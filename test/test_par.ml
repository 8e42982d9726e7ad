(* Domain pool: results in input order whatever the scheduling,
   deterministic exception choice, and the headline guarantee — a
   parallel fuzz campaign renders byte-identical JSON. *)

module Pool = K23_par.Pool
module Campaign = K23_fuzz.Campaign

let squares n = List.init n (fun i -> i * i)

let test_map_order () =
  let tasks = List.init 53 Fun.id in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        (squares 53)
        (Pool.map ~jobs (fun x -> x * x) tasks))
    [ 1; 2; 4; 16 ]

(* more workers than tasks: the surplus domains find the queue empty
   and exit; every task still runs exactly once *)
let test_jobs_exceed_tasks () =
  Alcotest.(check (list int)) "jobs=16, 3 tasks" [ 0; 1; 4 ]
    (Pool.map ~jobs:16 (fun x -> x * x) [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "jobs=0 clamps to sequential" (squares 5)
    (Pool.map ~jobs:0 (fun x -> x * x) (List.init 5 Fun.id));
  Alcotest.(check (list int)) "empty task list" [] (Pool.map ~jobs:4 (fun x -> x) [])

let test_mapi () =
  Alcotest.(check (list int)) "mapi passes positions" [ 10; 12; 14 ]
    (Pool.mapi ~jobs:4 (fun i x -> i + x) [ 10; 11; 12 ])

(* chunked claiming is a scheduling detail: results, order and the
   exception contract are unchanged for every (jobs, chunk) pair *)
let test_chunked_map () =
  let tasks = List.init 53 Fun.id in
  List.iter
    (fun chunk ->
      List.iter
        (fun jobs ->
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d chunk=%d" jobs chunk)
            (squares 53)
            (Pool.map ~jobs ~chunk (fun x -> x * x) tasks))
        [ 1; 2; 4; 16 ])
    [ 1; 2; 7; 16; 64 ];
  (match Pool.map ~jobs:2 ~chunk:0 Fun.id [ 1 ] with
  | _ -> Alcotest.fail "chunk=0 accepted"
  | exception Invalid_argument _ -> ())

(* regression: a single task with jobs and chunk both larger — jobs
   clamps to the chunk count (1), so the call short-circuits to the
   sequential path instead of spawning domains with no work *)
let test_single_task_large_chunk () =
  Alcotest.(check (list int)) "tasks=1 jobs=8 chunk=16" [ 49 ]
    (Pool.map ~jobs:8 ~chunk:16 (fun x -> x * x) [ 7 ]);
  Alcotest.(check (list int)) "mapi tasks=1 jobs=8 chunk=16" [ 107 ]
    (Pool.mapi ~jobs:8 ~chunk:16 (fun i x -> i + x) [ 107 ])

(* [jobs] counts the calling domain: it works the queue instead of
   parking in [Domain.join], so no more than [jobs - 1] other domains
   ever run a task.  Each task spins ~1 ms so that every spawned domain
   gets to claim some. *)
let test_caller_is_a_worker () =
  let self = (Domain.self () :> int) in
  List.iter
    (fun jobs ->
      let ran_on =
        Pool.map ~jobs
          (fun _ ->
            let acc = ref 0 in
            for i = 1 to 1_000_000 do
              acc := Sys.opaque_identity (!acc + i)
            done;
            (Domain.self () :> int))
          (List.init 40 Fun.id)
      in
      let others = List.sort_uniq compare (List.filter (fun d -> d <> self) ran_on) in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: at most %d other domains (saw %d)" jobs (jobs - 1)
           (List.length others))
        true
        (List.length others <= jobs - 1))
    [ 2; 3 ]

exception Boom of int

(* when several tasks fail, the lowest-indexed exception is re-raised
   (after all domains are joined) — failure reporting must not depend
   on which domain got there first *)
let test_exception_lowest_index () =
  List.iter
    (fun jobs ->
      match
        Pool.map ~jobs (fun i -> if i = 3 || i = 7 then raise (Boom i) else i) (List.init 10 Fun.id)
      with
      | _ -> Alcotest.failf "jobs=%d: expected an exception" jobs
      | exception Boom n -> Alcotest.(check int) (Printf.sprintf "jobs=%d" jobs) 3 n)
    [ 1; 4 ];
  (* same contract under chunked claiming *)
  match
    Pool.map ~jobs:4 ~chunk:4
      (fun i -> if i mod 5 = 3 then raise (Boom i) else i)
      (List.init 20 Fun.id)
  with
  | _ -> Alcotest.fail "chunked: expected an exception"
  | exception Boom n -> Alcotest.(check int) "chunked lowest index" 3 n

(* the tentpole invariant of the scratch-world cache: a world that ran
   a different program and was then reset in place is observationally
   identical to a freshly built one.  The dirty run is truncated
   mid-flight (step cap), so the reset has to clear live processes,
   open fds, mapped pages, pending signals and a non-empty ktrace
   ring; the probe then runs under zpoline-ultra (launch-time sweep,
   selector state) and must yield byte-identical ktrace streams and an
   equal oracle projection. *)
let test_world_reuse () =
  let module Oracle = K23_fuzz.Oracle in
  let module Gen = K23_fuzz.Gen in
  let module Sim = K23_userland.Sim in
  let cfg = Oracle.default_world_cfg in
  let gen seed = (Gen.generate ~shapes:Gen.default_shapes (K23_util.Rng.create ~seed)).Gen.items in
  let probe = gen 4242 and dirty = gen 777 in
  let run_in ?(max_steps = Oracle.default_max_steps) w items mech =
    match Oracle.launch_in w ~max_steps ~mech items with
    | Error e -> Alcotest.failf "launch failed: %d" e
    | Ok (p, events) ->
      ( String.concat "\n" (List.map K23_obs.Render.human_event events),
        Oracle.project p w events )
  in
  let w_fresh = Sim.create_world_cfg cfg in
  let fresh_trace, fresh_proj = run_in w_fresh probe K23_eval.Mech.Zpoline_ultra in
  let w = Sim.create_world_cfg cfg in
  (* dirty it: K23-ultra leaves offline logs plus a sealed (immutable)
     log directory in the VFS, and the truncated run leaves everything
     else mid-flight *)
  let _ = run_in ~max_steps:20_000 w dirty K23_eval.Mech.K23_ultra in
  Sim.reset_world_cfg w cfg;
  let reused_trace, reused_proj = run_in w probe K23_eval.Mech.Zpoline_ultra in
  Alcotest.(check string) "ktrace streams byte-identical" fresh_trace reused_trace;
  Alcotest.(check bool) "oracle projections equal" true (fresh_proj = reused_proj);
  (* and the cache path itself converges: run via Oracle.run (scratch
     world) twice — second call is a hit — against the fresh result *)
  let via_cache () =
    match Oracle.run ~cfg ~mech:K23_eval.Mech.Zpoline_ultra probe with
    | Oracle.Ok_run p -> p
    | Oracle.Launch_failed e -> Alcotest.failf "cached launch failed: %d" e
  in
  let first = via_cache () in
  let second = via_cache () in
  Alcotest.(check bool) "scratch-world runs equal fresh run" true
    (first = fresh_proj && second = fresh_proj)

(* the scratch-world cache's reuse decision: a config with the same
   structure (isa, ncores, quantum) reuses the domain's world; one that
   differs in any of the three builds a fresh world, counted as a miss
   and raising nothing.  Every run projects exactly as a fresh world
   built from its config. *)
let test_world_cache_reuse () =
  let module Oracle = K23_fuzz.Oracle in
  let module Gen = K23_fuzz.Gen in
  let module Sim = K23_userland.Sim in
  let module Cache = K23_par.World_cache in
  let module Config = K23_kernel.World.Config in
  let project (cfg : Config.t) w =
    let items = (Gen.generate ~isa:cfg.isa (K23_util.Rng.create ~seed:4242)).Gen.items in
    match Oracle.launch_in w ~max_steps:Oracle.default_max_steps ~mech:K23_eval.Mech.Sud items with
    | Error e -> Alcotest.failf "launch failed: %d" e
    | Ok (p, events) -> Oracle.project p w events
  in
  let via_cache cfg =
    let h0, m0 = Cache.stats () in
    let proj =
      Cache.with_world ~build:Sim.create_world_cfg ~reset:Sim.reset_world_cfg cfg (fun w ->
          Alcotest.(check bool) "world has the config's structure" true
            (w.K23_kernel.Kern.isa = cfg.isa && w.ncores = cfg.ncores && w.quantum = cfg.quantum);
          project cfg w)
    in
    let h1, m1 = Cache.stats () in
    (proj, (h1 - h0, m1 - m0))
  in
  let base = Oracle.default_world_cfg in
  let small = { base with ncores = base.ncores / 2; quantum = base.quantum * 2 } in
  ignore (via_cache base);
  List.iter
    (fun (what, (cfg : Config.t), hit) ->
      let proj, counts = via_cache cfg in
      Alcotest.(check (pair int int)) (what ^ ": hit/miss") (if hit then (1, 0) else (0, 1)) counts;
      Alcotest.(check bool)
        (what ^ ": projection equals a fresh world's")
        true
        (proj = project cfg (Sim.create_world_cfg cfg)))
    [
      ("same structure, other seed", { base with seed = base.seed + 1 }, true);
      ("other isa", { base with isa = K23_isa.Isa.Arm64 }, false);
      ("same isa again", { base with isa = K23_isa.Isa.Arm64; aslr = false }, true);
      ("back to x86", base, false);
      ("other ncores", { base with ncores = small.ncores }, false);
      ("other quantum", small, false);
      ( "same structure, other cost",
        { small with cost = { small.cost with syscall_base = small.cost.syscall_base + 50 } },
        true );
    ]

(* libc is built once and every process maps its pages copy-on-write:
   zpoline-ultra rewrites libc's syscall sites in its own process, and
   the next process to map libc, in the reset world or on another
   domain, still reads the built-once image's text (outside the slots
   the loader relocates in every process). *)
let test_image_pages_shared () =
  let module Sim = K23_userland.Sim in
  let module Libc = K23_userland.Libc in
  let module Mech = K23_eval.Mech in
  let open K23_isa in
  let unrelocated text =
    let b = Bytes.of_string text in
    List.iter
      (fun (r : Asm.reloc) -> if r.reloc_section = `Text then Bytes.fill b r.reloc_offset 8 '\000')
      Libc.image.im_prog.relocs;
    Bytes.to_string b
  in
  let image_text = unrelocated Libc.image.im_prog.text in
  let libc_text mech w =
    let path = "/bin/cow-probe" in
    ignore
      (Sim.register_app w ~path
         [ Asm.Label "main"; Asm.Call_sym "getpid"; Asm.I (Insn.Mov_ri (RDI, 0)); Asm.Call_sym "exit" ]);
    match Mech.launch mech w ~path () with
    | Error e -> Alcotest.failf "launch failed: %d" e
    | Ok (p, _) ->
      K23_kernel.World.run_until_exit w p;
      let base, _ = Hashtbl.find p.image_bases Libc.path in
      unrelocated
        (Bytes.to_string (K23_machine.Memory.read_bytes_raw p.mem base (String.length image_text)))
  in
  let rewrite_then_native () =
    let cfg = K23_kernel.World.Config.default in
    let w = Sim.create_world_cfg cfg in
    let rewritten = libc_text Mech.Zpoline_ultra w in
    Sim.reset_world_cfg w cfg;
    (rewritten, libc_text Mech.Native w)
  in
  List.iter
    (fun (rewritten, native) ->
      Alcotest.(check bool) "zpoline-ultra rewrote its libc" false (String.equal rewritten image_text);
      Alcotest.(check bool) "native libc reads the image" true (String.equal native image_text))
    (rewrite_then_native () :: Pool.map ~jobs:2 rewrite_then_native [ (); () ])

(* the acceptance-grade invariant, sized for the unit suite: a real
   campaign (fresh worlds, all default mechanisms) renders the same
   JSON bytes sequentially and sharded across 4 domains *)
let test_campaign_jobs_identical () =
  let config = { Campaign.default_config with c_seed = 23; c_iters = 30 } in
  let j1 = Campaign.render_json (Campaign.run ~jobs:1 config) in
  let j4 = Campaign.render_json (Campaign.run ~jobs:4 config) in
  Alcotest.(check string) "jobs=1 vs jobs=4 JSON" j1 j4

let tests =
  ( "par",
    [
      Alcotest.test_case "map preserves input order" `Quick test_map_order;
      Alcotest.test_case "jobs exceed tasks" `Quick test_jobs_exceed_tasks;
      Alcotest.test_case "chunked map: same results, any (jobs, chunk)" `Quick test_chunked_map;
      Alcotest.test_case "single task, jobs=8 chunk=16" `Quick test_single_task_large_chunk;
      Alcotest.test_case "mapi indexes" `Quick test_mapi;
      Alcotest.test_case "calling domain is one of the jobs" `Quick test_caller_is_a_worker;
      Alcotest.test_case "world reuse == fresh world" `Quick test_world_reuse;
      Alcotest.test_case "world cache: reuse decision" `Quick test_world_cache_reuse;
      Alcotest.test_case "image pages shared copy-on-write" `Quick test_image_pages_shared;
      Alcotest.test_case "lowest-index exception wins" `Quick test_exception_lowest_index;
      Alcotest.test_case "campaign jobs=1 == jobs=4" `Slow test_campaign_jobs_identical;
    ] )
