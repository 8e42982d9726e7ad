(** In-memory spans around calls into the simulator's layers.

    A span is one timed call: its name (the [<library>.<Module>.<function>]
    it wraps), start and end, the span that was open when it started,
    and the operation it belongs to.  Spans are recorded only while
    {!enabled} is set — the untraced run pays one branch per wrapped
    call — and stay in memory until {!dump} writes them out.  Every
    workload runs on one domain, so the recorder is plain global
    state. *)

type span = {
  id : int;
  parent : int;  (** 0 when no span was open *)
  op : int;  (** operation id, -1 outside operations *)
  name : string;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let spans : span list ref = ref [] (* newest first *)
let stack : int list ref = ref [] (* ids of the open spans, innermost first *)
let next_id = ref 1
let cur_op = ref (-1)

let record ~id ~parent ~name ~t0 =
  let t1 = Unix.gettimeofday () in
  stack := List.tl !stack;
  spans := { id; parent; op = !cur_op; name; t0; t1 } :: !spans

(** [span name f] runs [f ()], recording a span around it when tracing
    is on. *)
let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    match f () with
    | v ->
      record ~id ~parent ~name ~t0;
      v
    | exception e ->
      record ~id ~parent ~name ~t0;
      raise e
  end

(** Mark the spans that follow as belonging to operation [op]. *)
let set_op op = cur_op := op

(** Every recorded span, oldest first. *)
let all () = List.rev !spans

(** Self time of each span: its duration minus the time its direct
    children cover.  Children of one span never overlap, so the
    subtraction is exact. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let d = s.t1 -. s.t0 in
        Hashtbl.replace child s.parent (d +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map (fun s -> (s, s.t1 -. s.t0 -. Option.value ~default:0. (Hashtbl.find_opt child s.id))) spans

(** Write the spans as tab-separated lines, one per span:
    [id parent op workload name start_s end_s]. *)
let dump ~path ~workload spans =
  let oc = open_out path in
  output_string oc "id\tparent\top\tworkload\tname\tstart_s\tend_s\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%s\t%.9f\t%.9f\n" s.id s.parent s.op workload s.name s.t0
        s.t1)
    spans;
  close_out oc
