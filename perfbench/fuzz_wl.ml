(** The fuzz workloads: the default `k23 fuzz` campaign, one oracle
    execution at a time.

    A round is the campaign `k23 fuzz --seed <seed> --iters <iters>`,
    run the way [Campaign.run] runs it at jobs=1: phase A generates
    each program and runs it natively, phase B runs it under every
    mechanism and compares with the native projection.  Every round
    repeats it, so rounds do identical work and must reach identical
    verdicts.  One operation is one oracle execution (one world run),
    native reference included.

    Untraced rounds call the library's own entry points for each
    operation, [Campaign.gen_native] and [Oracle.diverges], so that the
    timed path is the program's.  Traced rounds run a copy of
    [Oracle.launch_in]'s steps with a span around each call; every
    traced round must reproduce round 0 (untraced, the library's path)
    exactly, guest steps included, so drift between the copy and the
    library is caught. *)

open K23_kernel
module Campaign = K23_fuzz.Campaign
module Oracle = K23_fuzz.Oracle
module Gen = K23_fuzz.Gen
module Mech = K23_eval.Mech
module Sim = K23_userland.Sim
module K23 = K23_core.K23

(** What a round computed: the programs, the native projections, the
    guest steps of every operation (in operation order) and the
    divergences as (iteration, mechanism, divergence). *)
type summary = {
  progs : Gen.prog option list;
  natives : Oracle.projected option list;
  steps : int list;
  divs : (int * Mech.t * Oracle.divergence) list;
}

type t = {
  config : Campaign.config;
  mutable round0 : summary option;
  mutable problems : string list;
}

(** The CLI's campaign configuration for [--seed seed --iters iters]
    on [isa]. *)
let config ~isa ~seed ~iters =
  let d = Campaign.default_config in
  {
    d with
    Campaign.c_seed = seed;
    c_iters = iters;
    c_mechs = Oracle.default_mechs_for isa;
    c_world = { d.Campaign.c_world with World.Config.isa };
  }

let make ~isa ~seed ~iters = { config = config ~isa ~seed ~iters; round0 = None; problems = [] }

let span = Spans.span

(* Guest steps of the last world run on this domain: the oracle runs in
   the domain's [World_cache] slot, which keeps the world after the
   call returns. *)
let slot_steps () =
  match (Domain.DLS.get K23_par.World_cache.slot_key).K23_par.World_cache.world with
  | Some w -> w.Kern.steps
  | None -> 0

(* The traced copy of one oracle execution: the steps of
   [Oracle.launch_in] followed by [Oracle.project], on the domain's
   scratch world, each wrapped in a span.  Returns the outcome, the
   world's guest steps and the simulated work counted by the ktrace
   sink, whose [run_steps] are the steps from launch to exit (K23's
   offline phase runs in the same world before). *)
let exec t i ~mech (items : Gen.items) =
  let cfg = Campaign.iter_world t.config i in
  let hits0, _ = K23_par.World_cache.stats () in
  K23_par.World_cache.with_world
    ~build:(fun c -> span "userland.Sim.create_world_cfg" (fun () -> Sim.create_world_cfg c))
    ~reset:(fun w c -> span "userland.Sim.reset_world_cfg" (fun () -> Sim.reset_world_cfg w c))
    cfg
    (fun w ->
      span "userland.Sim.register_app" (fun () ->
          match items with
          | Gen.X86 its ->
            ignore (Sim.register_app w ~path:Oracle.target_path its);
            ignore (Sim.register_app w ~path:Gen.exec_child_path Gen.exec_child_items)
          | Gen.A64 its ->
            let module A = K23_isa_arm.Asm_arm in
            ignore (Sim.register_app_prog w ~path:Oracle.target_path (A.assemble its));
            ignore
              (Sim.register_app_prog w ~path:Gen.exec_child_path
                 (A.assemble Gen.exec_child_items_arm)));
      if Mech.needs_offline mech then
        span "core.K23.offline_run" (fun () ->
            ignore (K23.offline_run w ~path:Oracle.target_path ());
            K23.seal_logs w);
      Kern.fault_reset w;
      let sink = span "kernel.Kern.ktrace_enable" (fun () -> Kern.ktrace_enable w) in
      let code_writes = Op.count_code_writes sink in
      let steps0 = w.Kern.steps in
      let outcome =
        match span "eval.Mech.launch" (fun () -> Mech.launch mech w ~path:Oracle.target_path ()) with
        | Error e -> Oracle.Launch_failed e
        | Ok (p, _) ->
          span "kernel.World.run_until_exit" (fun () ->
              try World.run_until_exit ~max_steps:t.config.Campaign.c_max_steps w p
              with Kern.Deadlock _ -> ());
          Oracle.Ok_run
            (span "fuzz.Oracle.project" (fun () -> Oracle.project p w (K23_obs.Trace.events sink)))
      in
      let hits, _ = K23_par.World_cache.stats () in
      let counts =
        Op.counts_of_sink sink ~code_writes:!code_writes ~run_steps:(w.Kern.steps - steps0)
          ~cache_hits:(hits - hits0)
      in
      (outcome, w.Kern.steps, counts))

(* the divergence [Oracle.diverges] reports when a mechanism fails to
   launch *)
let launch_divergence mech e =
  {
    Oracle.d_mech = Mech.to_string mech;
    d_where = "launch";
    d_native = "ok";
    d_mech_val = Printf.sprintf "error %d" e;
  }

(* Phase A of iteration [i]: the program and its native projection
   ([None] when the native run fails to launch), guest steps, counts. *)
let phase_a t i =
  if not !Spans.enabled then
    let prog, proj = Campaign.gen_native t.config i in
    (prog, Some proj, slot_steps (), Op.no_counts)
  else
    let c = t.config in
    let prog =
      span "fuzz.Gen.generate" (fun () ->
          Gen.generate ~shapes:c.Campaign.c_shapes ~isa:c.Campaign.c_world.World.Config.isa
            (K23_util.Rng.create ~seed:(Campaign.iter_seed c i)))
    in
    let outcome, steps, counts = exec t i ~mech:Mech.Native prog.Gen.items in
    let proj = match outcome with Oracle.Ok_run p -> Some p | Oracle.Launch_failed _ -> None in
    (prog, proj, steps, counts)

(* Phase B of iteration [i] under [mech]: the divergence, guest steps,
   counts. *)
let phase_b t i ~mech ~native (prog : Gen.prog) =
  let c = t.config in
  if not !Spans.enabled then
    let d =
      Oracle.diverges ~cfg:(Campaign.iter_world c i) ~max_steps:c.Campaign.c_max_steps ~native ~mech
        prog.Gen.items
    in
    (d, slot_steps (), Op.no_counts)
  else
    let outcome, steps, counts = exec t i ~mech prog.Gen.items in
    let d =
      match outcome with
      | Oracle.Launch_failed e -> Some (launch_divergence mech e)
      | Oracle.Ok_run proj ->
        span "fuzz.Oracle.compare_projected" (fun () -> Oracle.compare_projected ~mech native proj)
    in
    (d, steps, counts)

(** Set-up: the first world (the calling domain's [World_cache] slot)
    and a warm-up execution of iteration 0 natively and under every
    mechanism, which fills the zpoline sweep memo and leaves the slot
    warm. *)
let setup t =
  let c = t.config in
  let prog, native = Campaign.gen_native c 0 in
  List.iter
    (fun mech ->
      ignore
        (Oracle.diverges ~cfg:(Campaign.iter_world c 0) ~max_steps:c.Campaign.c_max_steps ~native
           ~mech prog.Gen.items))
    c.c_mechs

(** Run round [r]; returns its operations in campaign order (phase A,
    then phase B). *)
let round t r =
  let n = t.config.Campaign.c_iters in
  let mechs = Array.of_list t.config.Campaign.c_mechs in
  let m = Array.length mechs in
  let base_id = r * n * (1 + m) in
  (* phase A: generate + native column *)
  let natives =
    Array.init n (fun i ->
        let res = ref (None, None, 0) in
        let op =
          Op.timed ~id:(base_id + i) ~kind:"native" (fun () ->
              let prog, proj, steps, counts = phase_a t i in
              res := (Some prog, proj, steps);
              (steps, proj = None, counts))
        in
        (op, !res))
  in
  (* phase B: one compare per (iteration, mechanism) *)
  let compares =
    Array.init (n * m) (fun k ->
        let i = k / m and mech = mechs.(k mod m) in
        let res = ref (None, 0) in
        let op =
          Op.timed ~id:(base_id + n + k) ~kind:(Mech.to_string mech) (fun () ->
              match natives.(i) with
              | _, (Some prog, Some native, _) ->
                let d, steps, counts = phase_b t i ~mech ~native prog in
                res := (Option.map (fun d -> (i, mech, d)) d, steps);
                (steps, d <> None, counts)
              | _ -> (0, true, Op.no_counts))
        in
        (op, !res))
  in
  let natives = Array.to_list natives and compares = Array.to_list compares in
  let summary =
    {
      progs = List.map (fun (_, (p, _, _)) -> p) natives;
      natives = List.map (fun (_, (_, n, _)) -> n) natives;
      steps = List.map (fun (_, (_, _, s)) -> s) natives @ List.map (fun (_, (_, s)) -> s) compares;
      divs = List.filter_map (fun (_, (d, _)) -> d) compares;
    }
  in
  (match t.round0 with
  | None -> t.round0 <- Some summary
  | Some s0 ->
    let traced = if !Spans.enabled then " (traced)" else "" in
    let differ what = Printf.sprintf "round %d%s: %s differ from round 0's" r traced what in
    if s0.progs <> summary.progs then t.problems <- differ "programs" :: t.problems;
    if s0.natives <> summary.natives then t.problems <- differ "native projections" :: t.problems;
    if s0.steps <> summary.steps then t.problems <- differ "guest steps" :: t.problems;
    if s0.divs <> summary.divs then t.problems <- differ "verdicts" :: t.problems);
  List.map fst natives @ List.map fst compares

(** The digest (the report of [Campaign.run] on the round's
    configuration, as `k23 fuzz --json` renders it) and the problems
    found: rounds that did not repeat round 0, and a round 0 whose
    programs or divergences differ from that report's. *)
let check t =
  let reference = Campaign.run t.config in
  let s0 = Option.get t.round0 in
  let progs = List.filter_map Fun.id s0.progs in
  let same_programs =
    List.length progs = reference.Campaign.r_programs
    && List.fold_left (fun a p -> a + Gen.insn_count p.Gen.items) 0 progs = reference.r_insns
    && Gen.insn_histogram progs = reference.r_insn_hist
    && Gen.syscall_histogram progs = reference.r_sys_hist
  in
  let same_divs =
    s0.divs
    = List.map
        (fun f -> (f.Campaign.f_iter, f.Campaign.f_mech, f.Campaign.f_divergence))
        reference.r_findings
  in
  ( Campaign.render_json reference,
    List.rev t.problems
    @ (if same_programs then [] else [ "round 0's programs differ from Campaign.run's" ])
    @ if same_divs then [] else [ "round 0's divergences differ from Campaign.run's" ] )
