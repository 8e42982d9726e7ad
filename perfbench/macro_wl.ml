(** The macro workload: Table 6 cells (Section 6.2.2) driven through
    [Macro]'s public steps.

    A round is nine cells — nginx (10 workers, 4 KB), redis (6 I/O
    threads) and sqlite (speedtest1), each native, under K23-ultra and
    under SUD — built from the seed the way [Macro.measure_cell] builds
    one run: the native cell on [seed], interposed cells on [seed + 1].
    Every round repeats the same nine cells, so every round must
    reproduce round 0's simulated results exactly.  One operation is
    one cell.

    Untraced rounds run each cell with [Macro.run_spec] itself, so that
    the timed path is the program's.  Traced rounds run a copy of its
    steps with a span around each call into [Macro]'s public steps; the
    copy also sees the client's completed requests, which
    [Macro.run_spec] does not return, so {!check} runs it once per
    cell.  Every round, traced or not, must reproduce round 0's
    [Macro.run_spec] results exactly. *)

open K23_kernel
module Macro = K23_eval.Macro
module Mech = K23_eval.Mech
module Sim = K23_userland.Sim
module Wrk = K23_apps.Wrk

let specs = [ Macro.nginx ~workers:10 ~kb:4; Macro.redis ~io_threads:6; Macro.sqlite ]
let mechs = [ Mech.Native; Mech.K23_ultra; Mech.Sud ]
let cells = List.concat_map (fun s -> List.map (fun m -> (s, m)) mechs) specs

let spec_name (spec : Macro.spec) =
  match spec.Macro.workload with Macro.Web _ -> "web" | Macro.Redis _ -> "redis" | Macro.Sqlite _ -> "sqlite"

let cell_name (spec, mech) = spec_name spec ^ "/" ^ Mech.to_string mech

(** A cell's simulated result as the copy sees it: requests/sec of the
    closed-loop client (0 for sqlite), cycles (server cells: the world's
    clock at the end; sqlite: launch to exit, the value
    [Macro.run_spec] reports), the world's guest steps (the offline
    phase included) and the steps from launch to the end. *)
type digest = { rps : float; cycles : int; steps : int; run_steps : int }

let render_digest d =
  Printf.sprintf "req/s=%.6f cycles=%d steps=%d run_steps=%d" d.rps d.cycles d.steps d.run_steps

type t = {
  seed : int;
  mutable round0 : float option list option;
      (** round 0's [Macro.run_spec] results, [None] for a failed cell *)
  steps : (string, int) Hashtbl.t;  (** guest steps per cell name, filled by {!check} *)
  mutable problems : string list;
}

let make ~seed = { seed; round0 = None; steps = Hashtbl.create 16; problems = [] }
let cell_seed t mech = if mech = Mech.Native then t.seed else t.seed + 1
let span = Spans.span

(* The value [Macro.run_spec] returns for a cell *)
let value spec d = if Macro.is_throughput spec then d.rps else float_of_int d.cycles

(* The body of [Macro.drive_client], kept here so the client's result
   record (completed requests, errors) is visible to the checks. *)
let drive_client w ~(client : Wrk.config) =
  let results = Wrk.register w client in
  (match World.spawn w ~path:client.Wrk.path () with
  | Error e -> failwith (Printf.sprintf "client spawn failed: %d" e)
  | Ok cp -> Kern.run ~max_steps:400_000_000 ~until:(fun () -> Kern.proc_dead cp) w);
  let t_end = Kern.now w in
  let rps =
    match results.Wrk.started_at with
    | Some t0 when results.Wrk.completed > 0 && t_end > t0 ->
      float_of_int results.Wrk.completed *. float_of_int Kern.cycles_per_sec
      /. float_of_int (t_end - t0)
    | _ -> 0.0
  in
  (results, rps)

(* The copy of one cell: the steps of [Macro.run_spec], each timed.
   In a traced round the ktrace sink is enabled just before launch, so
   its counts are the measured run's.  Returns the digest when the
   cell completed correctly, and the counts. *)
let run_cell t (spec, mech) =
  let w =
    span "userland.Sim.create_world" (fun () ->
        Sim.create_world ~seed:(cell_seed t mech) ~quantum:8 ())
  in
  let path, port = span "eval.Macro.register_workload" (fun () -> Macro.register_workload w spec) in
  if Mech.needs_offline mech then begin
    span "eval.Macro.offline_spec" (fun () -> Macro.offline_spec w spec ~path ~port);
    Kern.sync_cores w
  end;
  let sink =
    if !Spans.enabled then Some (span "kernel.Kern.ktrace_enable" (fun () -> Kern.ktrace_enable w))
    else None
  in
  let code_writes = Option.map Op.count_code_writes sink in
  let t0 = Kern.now w and steps0 = w.Kern.steps in
  let digest rps cycles =
    Some { rps; cycles; steps = w.Kern.steps; run_steps = w.Kern.steps - steps0 }
  in
  let result, requests =
    match span "eval.Mech.launch" (fun () -> Mech.launch mech w ~path ()) with
    | Error _ -> (None, 0)
    | Ok (p, _) -> (
      match spec.Macro.workload with
      | Macro.Sqlite _ ->
        span "kernel.World.run_until_exit" (fun () ->
            World.run_until_exit ~max_steps:400_000_000 w p);
        ((if World.exit_code p = Some 0 then digest 0. (Kern.now w - t0) else None), 0)
      | Macro.Web _ | Macro.Redis _ ->
        span "eval.Macro.wait_for_listener" (fun () -> Macro.wait_for_listener w port);
        Kern.sync_cores w;
        let client = Option.get (Macro.client_for spec ~rounds:spec.Macro.rounds) in
        let results, rps = span "eval.Macro.drive_client" (fun () -> drive_client w ~client) in
        span "eval.Macro.kill_everything" (fun () -> Macro.kill_everything w);
        let sent = client.Wrk.threads * client.Wrk.conns * client.Wrk.depth * client.Wrk.rounds in
        ( (if results.Wrk.completed = sent && results.Wrk.errors = 0 then digest rps (Kern.now w)
           else None),
          results.Wrk.completed ))
  in
  let counts =
    match (sink, code_writes) with
    | Some s, Some n ->
      Op.counts_of_sink s ~code_writes:!n ~run_steps:(w.Kern.steps - steps0) ~requests
    | _ -> Op.no_counts
  in
  (result, w.Kern.steps, counts)

(** Set-up: the first world, with all three workloads registered, and
    a warm-up run of the cheapest cell (redis, native), which grows the
    host heap to its working size before anything is timed. *)
let setup t =
  let w = Sim.create_world ~seed:t.seed ~quantum:8 () in
  List.iter (fun spec -> ignore (Macro.register_workload w spec)) specs;
  ignore (Macro.run_spec (Macro.redis ~io_threads:6) Mech.Native ~seed:t.seed)

let round t r =
  let ncells = List.length cells in
  let outs =
    List.mapi
      (fun k ((spec, mech) as cell) ->
        let v = ref None in
        let op =
          Op.timed ~id:((r * ncells) + k) ~kind:(cell_name cell) (fun () ->
              if !Spans.enabled then begin
                let d, steps, counts = run_cell t cell in
                v := Option.map (value spec) d;
                (steps, d = None, counts)
              end
              else begin
                let x = Macro.run_spec spec mech ~seed:(cell_seed t mech) in
                (* a server cell with no completed request reports 0;
                   partial completion shows in [check] *)
                if x > 0. then v := Some x;
                (0, x <= 0., Op.no_counts)
              end)
        in
        (op, !v))
      cells
  in
  let values = List.map snd outs in
  (match t.round0 with
  | None -> t.round0 <- Some values
  | Some v0 ->
    if v0 <> values then
      t.problems <-
        Printf.sprintf "round %d%s's simulated results differ from round 0's" r
          (if !Spans.enabled then " (traced)" else "")
        :: t.problems);
  List.map fst outs

(** Guest steps of a macro operation, known once {!check} has run. *)
let steps t (o : Op.t) = Option.value ~default:o.steps (Hashtbl.find_opt t.steps o.kind)

(** The digest (one line per cell, from the copy run once per cell)
    and the problems found: rounds that did not repeat round 0, cells
    whose client did not complete every request (or sqlite did not exit
    0), and cells where the copy's result differs from round 0's
    [Macro.run_spec] result. *)
let check t =
  let v0 = Option.get t.round0 in
  let rows =
    List.map2
      (fun ((spec, mech) as cell) v ->
        let name = cell_name cell in
        let d, steps, _ = run_cell t cell in
        Hashtbl.replace t.steps name steps;
        let problem =
          match (d, v) with
          | None, _ -> [ name ^ ": incomplete (requests short, errors or exit code not 0)" ]
          | Some d, Some v when value spec d = v -> []
          | Some d, _ ->
            [
              Printf.sprintf "%s: %.6f in the copy, %s from Macro.run_spec" name (value spec d)
                (match v with Some v -> Printf.sprintf "%.6f" v | None -> "failure");
            ]
        in
        ( Printf.sprintf "%s seed=%d %s" name (cell_seed t mech)
            (match d with Some d -> render_digest d | None -> "FAILED"),
          problem ))
      cells v0
  in
  (String.concat "\n" (List.map fst rows) ^ "\n", List.rev t.problems @ List.concat_map snd rows)
