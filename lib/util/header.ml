(** The [key: value] header codec shared by the replayable text
    artifacts: corpus repros ([*.repro]) and recordings ([*.k23rec]).

    A file is a first line (a magic or a [#] comment), one [key: value]
    line per header field, a [---] separator, then body lines that
    each artifact decodes with its own codec.  The rules live here
    once:
    - blank lines and lines starting with [#] are skipped;
    - a header line splits at its first [:]; the key is trimmed and
      exactly one leading space is stripped from the value, so a value
      keeps any other leading or trailing whitespace byte-for-byte;
    - keys the caller does not know are skipped (forward
      compatibility), and a missing required key is an error;
    - the body lines come back untouched. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt
let separator = "---"

(** [to_string ~magic pairs body] renders the first line, one
    [key: value] line per pair, the separator and the body lines, each
    newline-terminated. *)
let to_string ~magic pairs body =
  let b = Buffer.create 4096 in
  let line s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  line magic;
  List.iter (fun (k, v) -> line (k ^ ": " ^ v)) pairs;
  line separator;
  List.iter line body;
  Buffer.contents b

(** [fold ~required fields init lines] folds each known header pair of
    [lines] into [init] with its handler from [fields], in file order,
    and returns the result with the body lines after the separator. *)
let fold ?(required = []) (fields : (string * ('a -> string -> 'a)) list) (init : 'a) lines =
  let rec header seen acc = function
    | [] -> fail "missing %s separator" separator
    | line :: rest -> (
      let t = String.trim line in
      if t = separator then (seen, acc, rest)
      else if t = "" || t.[0] = '#' then header seen acc rest
      else
        match String.index_opt line ':' with
        | None -> fail "bad header line: %S" line
        | Some i -> (
          let key = String.trim (String.sub line 0 i) in
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          let v = if String.starts_with ~prefix:" " v then String.sub v 1 (String.length v - 1) else v in
          match List.assoc_opt key fields with
          | Some f -> header (key :: seen) (f acc v) rest
          | None -> header seen acc rest))
  in
  let seen, acc, body = header [] init lines in
  List.iter (fun k -> if not (List.mem k seen) then fail "missing %s: header" k) required;
  (acc, body)

(** Value decoders that fail with {!Parse_error}. *)

let int what s =
  match int_of_string_opt s with Some n -> n | None -> fail "bad %s: %S" what s

(** Reverse [String.escaped]. *)
let unescape what s =
  try Scanf.unescaped s with Scanf.Scan_failure _ | Failure _ -> fail "bad %s string: %S" what s
