(** The recording: one run's nondeterministic inputs as an
    append-only log, with a text serialisation that round-trips.

    A recording is the complete ktrace event stream of a run (captured
    through an {e unbounded} sink, so nothing is ever dropped) plus
    the recipe needed to re-drive it: the app path and argv, the
    mechanism, and the full {!World.Config} — seed, cost model, fault
    plan included.  Because every source of nondeterminism in the
    simulator is owned by the config (ASLR draws, cost skew, fault
    dice all flow from [seed]/[faults]), the log doubles as both the
    replay input {e and} the oracle: the replayer re-drives a fresh
    world from the header and diffs the live stream against the body.

    The wire format is the {!K23_util.Header} codec shared with
    [Corpus]: `key: value` header lines, a `---` separator, then one
    event per line.  [to_string]/[of_string] are exact inverses, and
    the `events:` header pins the body length so a truncated file is a
    parse error, not a silently-short replay. *)

module Event = K23_obs.Event
module Mech = K23_eval.Mech
module World = K23_kernel.World
module Kern = K23_kernel.Kern
module Faults = K23_faults.Faults
module Cost = K23_machine.Cost
module Header = K23_util.Header

let fail = Header.fail

type fate = Exit of int | Killed of int | Running

type t = {
  rc_app : string;  (** registered path of the recorded program *)
  rc_argv : string list;  (** argv at launch; [] = mechanism default *)
  rc_mech : Mech.t;
  rc_cfg : World.Config.t;  (** the recipe; [ktrace] is always false
      (the recorder/replayer own the sink directly, unbounded) *)
  rc_root : int;  (** raw pid of the launched root process *)
  rc_console : string;  (** root console bytes at end of run *)
  rc_fates : (int * fate) list;  (** raw pid -> fate, ascending *)
  rc_events : Event.t list;  (** the full ktrace stream, in order *)
}

(* ------------------------------------------------------------------ *)
(* Fates                                                               *)

let fate_to_string = function
  | Exit n -> Printf.sprintf "exit %d" n
  | Killed n -> Printf.sprintf "killed %d" n
  | Running -> "running"

let fate_of_proc (q : Kern.proc) =
  match (q.Kern.exit_status, q.Kern.term_signal) with
  | Some s, _ -> Exit s
  | None, Some s -> Killed s
  | None, None -> Running

(** Every traced process's fate, by ascending raw pid. *)
let fates_of_world (w : Kern.world) =
  List.map (fun (q : Kern.proc) -> (q.Kern.pid, fate_of_proc q)) w.Kern.procs
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Event line codec                                                    *)

(* One event per line: "<cycles> <pid> <tid> <tag> <fields...>".
   Fields are fixed-arity ints except for at most one trailing string
   per payload, written [String.escaped] (newline-safe) and parsed as
   the remainder of the line — so strings containing spaces survive.
   [Syscall_enter] carries a length-prefixed argument vector before
   its trailing owner string. *)

let event_to_line (e : Event.t) =
  let b = Buffer.create 64 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "%d %d %d" e.Event.ev_cycles e.Event.ev_pid e.Event.ev_tid;
  (match e.Event.ev_payload with
  | Event.Syscall_enter { nr; site; owner; args } ->
    pr " enter %d %d %d" nr site (Array.length args);
    Array.iter (fun a -> pr " %d" a) args;
    pr " %s" (String.escaped owner)
  | Event.Syscall_exit { nr; ret } -> pr " exit %d %d" nr ret
  | Event.Signal_deliver { signo; sysno; site } -> pr " signal %d %d %d" signo sysno site
  | Event.Sigreturn { depth } -> pr " sigreturn %d" depth
  | Event.Sud_toggle { armed; sel_addr; allow_lo; allow_hi } ->
    pr " sud_toggle %d %d %d %d" (Bool.to_int armed) sel_addr allow_lo allow_hi
  | Event.Sud_block { nr; site } -> pr " sud_block %d %d" nr site
  | Event.Seccomp { nr; verdict } -> pr " seccomp %d %s" nr (String.escaped verdict)
  | Event.Ptrace_stop { kind; nr } ->
    pr " ptrace %s %d" (match kind with Event.Entry -> "entry" | Event.Exit -> "exit") nr
  | Event.Code_write { addr; len } -> pr " code_write %d %d" addr len
  | Event.Fault { access; addr; rip } -> pr " fault %d %d %s" addr rip (String.escaped access)
  | Event.Exec { path } -> pr " exec %s" (String.escaped path)
  | Event.Vdso_call { sym } -> pr " vdso %s" (String.escaped sym)
  | Event.Sched_switch { core } -> pr " sched %d" core
  | Event.Req_send { conn; req; sched } -> pr " req_send %d %d %d" conn req sched
  | Event.Req_recv { conn; req } -> pr " req_recv %d %d" conn req
  | Event.Fault_injected { nr; site; kind } ->
    pr " fault_inj %d %d %s" nr site (String.escaped kind)
  | Event.Syscall_restarted { nr; site } -> pr " restart %d %d" nr site
  | Event.Annot s -> pr " annot %s" (String.escaped s));
  Buffer.contents b

let str_field what toks = Header.unescape what (String.concat " " toks)

let event_of_line lineno line =
  let bad what = fail "event line %d: %s (%S)" lineno what line in
  match String.split_on_char ' ' line with
  | cy :: pid :: tid :: tag :: rest ->
    let i = Header.int in
    let payload =
      match (tag, rest) with
      | "enter", nr :: site :: argc :: rest ->
        let argc = i "argc" argc in
        let rec split n acc l =
          if n = 0 then (List.rev acc, l)
          else match l with x :: l' -> split (n - 1) (x :: acc) l' | [] -> bad "truncated enter"
        in
        let args, owner = split argc [] rest in
        Event.Syscall_enter
          {
            nr = i "nr" nr;
            site = i "site" site;
            owner = str_field "owner" owner;
            args = Array.of_list (List.map (i "arg") args);
          }
      | "exit", [ nr; ret ] -> Event.Syscall_exit { nr = i "nr" nr; ret = i "ret" ret }
      | "signal", [ signo; sysno; site ] ->
        Event.Signal_deliver { signo = i "signo" signo; sysno = i "sysno" sysno; site = i "site" site }
      | "sigreturn", [ depth ] -> Event.Sigreturn { depth = i "depth" depth }
      | "sud_toggle", [ armed; sel; lo; hi ] ->
        Event.Sud_toggle
          { armed = i "armed" armed <> 0; sel_addr = i "sel" sel; allow_lo = i "lo" lo; allow_hi = i "hi" hi }
      | "sud_block", [ nr; site ] -> Event.Sud_block { nr = i "nr" nr; site = i "site" site }
      | "seccomp", nr :: v -> Event.Seccomp { nr = i "nr" nr; verdict = str_field "verdict" v }
      | "ptrace", [ kind; nr ] ->
        let kind =
          match kind with "entry" -> Event.Entry | "exit" -> Event.Exit | _ -> bad "bad stop kind"
        in
        Event.Ptrace_stop { kind; nr = i "nr" nr }
      | "code_write", [ addr; len ] -> Event.Code_write { addr = i "addr" addr; len = i "len" len }
      | "fault", addr :: rip :: access ->
        Event.Fault { addr = i "addr" addr; rip = i "rip" rip; access = str_field "access" access }
      | "exec", path -> Event.Exec { path = str_field "path" path }
      | "vdso", sym -> Event.Vdso_call { sym = str_field "sym" sym }
      | "sched", [ core ] -> Event.Sched_switch { core = i "core" core }
      | "req_send", [ conn; req; sched ] ->
        Event.Req_send { conn = i "conn" conn; req = i "req" req; sched = i "sched" sched }
      | "req_recv", [ conn; req ] -> Event.Req_recv { conn = i "conn" conn; req = i "req" req }
      | "fault_inj", nr :: site :: kind ->
        Event.Fault_injected { nr = i "nr" nr; site = i "site" site; kind = str_field "kind" kind }
      | "restart", [ nr; site ] -> Event.Syscall_restarted { nr = i "nr" nr; site = i "site" site }
      | "annot", s -> Event.Annot (str_field "annot" s)
      | _ -> bad ("unknown event tag " ^ tag)
    in
    {
      Event.ev_cycles = i "cycles" cy;
      ev_pid = i "pid" pid;
      ev_tid = i "tid" tid;
      ev_payload = payload;
    }
  | _ -> bad "malformed event line"

(* ------------------------------------------------------------------ *)
(* Files as text                                                       *)

let magic = "# k23 recording v1"

(* argv entries are space-separated tokens: escape embedded spaces as
   the decimal escape \032 (String.escaped leaves spaces alone,
   Scanf.unescaped reverses either form) *)
let escape_token s = String.concat "\\032" (String.split_on_char ' ' (String.escaped s))

let to_string r =
  let open World.Config in
  let c = r.rc_cfg in
  let int = string_of_int and flag b = string_of_int (Bool.to_int b) in
  let argv =
    if r.rc_argv = [] then [] else [ ("argv", String.concat " " (List.map escape_token r.rc_argv)) ]
  in
  let fates =
    List.map (fun (pid, f) -> ("fate", Printf.sprintf "%d %s" pid (fate_to_string f))) r.rc_fates
  in
  Header.to_string ~magic
    ([ ("app", r.rc_app) ] @ argv
    @ [ ("mech", Mech.to_string r.rc_mech) ]
    @ K23_isa.Isa.fields c.isa
    @ [
        ("ncores", int c.ncores);
        ("quantum", int c.quantum);
        ("seed", int c.seed);
        ("aslr", flag c.aslr);
        ("predecode", flag c.predecode);
        ("cost", Cost.to_string c.cost);
        ("faults", Faults.to_string c.faults);
        ("root", int r.rc_root);
        ("console", String.escaped r.rc_console);
      ]
    @ fates
    @ [ ("events", int (List.length r.rc_events)) ])
    (List.map event_to_line r.rc_events)

(* Header handlers fold into the recording and the [events:] count,
   which pins the body length. *)
let rc f (r, n) v = (f r v, n)
let cfg f = rc (fun r v -> { r with rc_cfg = f r.rc_cfg v })

let fields =
  let open World.Config in
  [
    ("app", rc (fun r v -> { r with rc_app = v }));
    ( "argv",
      rc (fun r v ->
          { r with rc_argv = List.map (Header.unescape "argv") (String.split_on_char ' ' v) }) );
    ( "mech",
      rc (fun r v ->
          match Mech.of_string v with
          | Some m -> { r with rc_mech = m }
          | None -> fail "unknown mechanism: %S" v) );
    ( "isa",
      cfg (fun c v ->
          match K23_isa.Isa.of_string v with
          | Some isa -> { c with isa }
          | None -> fail "unknown isa: %S" v) );
    ("ncores", cfg (fun c v -> { c with ncores = Header.int "ncores" v }));
    ("quantum", cfg (fun c v -> { c with quantum = Header.int "quantum" v }));
    ("seed", cfg (fun c v -> { c with seed = Header.int "seed" v }));
    ("aslr", cfg (fun c v -> { c with aslr = Header.int "aslr" v <> 0 }));
    ("predecode", cfg (fun c v -> { c with predecode = Header.int "predecode" v <> 0 }));
    ( "cost",
      cfg (fun c v ->
          match Cost.of_string v with
          | Some cost -> { c with cost }
          | None -> fail "bad cost model: %S" v) );
    ( "faults",
      cfg (fun c v ->
          match Faults.of_string v with
          | Some faults -> { c with faults }
          | None -> fail "bad fault plan: %S" v) );
    ("root", rc (fun r v -> { r with rc_root = Header.int "root" v }));
    ("console", rc (fun r v -> { r with rc_console = Header.unescape "console" v }));
    ( "fate",
      rc (fun r v ->
          let fate =
            match String.split_on_char ' ' v with
            | [ pid; "exit"; n ] -> (Header.int "pid" pid, Exit (Header.int "status" n))
            | [ pid; "killed"; n ] -> (Header.int "pid" pid, Killed (Header.int "signal" n))
            | [ pid; "running" ] -> (Header.int "pid" pid, Running)
            | _ -> fail "bad fate line: %S" v
          in
          { r with rc_fates = r.rc_fates @ [ fate ] }) );
    ("events", fun (r, _) v -> (r, Some (Header.int "events" v)));
  ]

let of_string s =
  match String.split_on_char '\n' s with
  | first :: rest when first = magic ->
    let init =
      {
        rc_app = "";
        rc_argv = [];
        rc_mech = Mech.Native;
        rc_cfg = World.Config.default;
        rc_root = 0;
        rc_console = "";
        rc_fates = [];
        rc_events = [];
      }
    in
    let (r, nevents), body =
      Header.fold ~required:[ "app"; "mech"; "root" ] fields (init, None) rest
    in
    let events =
      List.filter (fun l -> String.trim l <> "") body |> List.mapi (fun i l -> event_of_line (i + 1) l)
    in
    (match nevents with
    | Some n when n <> List.length events ->
      fail "truncated recording: header says %d events, body has %d" n (List.length events)
    | _ -> ());
    { r with rc_events = events }
  | first :: _ when String.starts_with ~prefix:"# k23 recording" first ->
    fail "unsupported recording version: %S" first
  | _ -> fail "not a k23 recording (missing %S header)" magic

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let save ~path r =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string r))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
