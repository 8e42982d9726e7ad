(* The host-performance benchmark of the K23 simulator: what the
   simulator costs to run, end to end and layer by layer.

     perfbench --workload <fuzz-x86|fuzz-arm|macro>
               --seed <n> --seconds <s> --trace <0|1> [--out DIR]

   Each workload is a closed loop of identical rounds (fuzz_wl.ml,
   macro_wl.ml) run until [--seconds] have passed.  With [--trace 0]
   the last line of standard output is a JSON object with the
   end-to-end metrics; with [--trace 1] every round runs twice,
   untraced and traced in alternating order, and the JSON holds the
   per-layer metrics derived from the traced rounds' spans and counts.
   The lines before it give each round's figures, the digest, the
   per-workload metric names of the benchmark's notes, and in a traced
   run the span breakdown and the tracing overhead.  See README.md in
   this directory. *)

let t_start = Unix.gettimeofday ()

module Stats = K23_util.Stats

type workload = {
  setup : unit -> unit;
  round : int -> Op.t list;
  check : unit -> string * string list;  (** digest text, problems *)
  steps : Op.t -> int;  (** an operation's guest steps, once [check] has run *)
}

let workloads = [ "fuzz-x86"; "fuzz-arm"; "macro" ]

(* default seeds: [Campaign.default_config] (23) and [Macro.run_seeds] (2000) *)
let default_seed = function "macro" -> 2000 | _ -> 23

(* iterations per fuzz round: the default campaign size *)
let fuzz_iters = K23_fuzz.Campaign.default_config.K23_fuzz.Campaign.c_iters

let make name ~seed =
  let fuzz ~isa =
    let t = Fuzz_wl.make ~isa ~seed ~iters:fuzz_iters in
    {
      setup = (fun () -> Fuzz_wl.setup t);
      round = Fuzz_wl.round t;
      check = (fun () -> Fuzz_wl.check t);
      steps = (fun o -> o.Op.steps);
    }
  in
  match name with
  | "fuzz-x86" -> fuzz ~isa:K23_isa.Isa.X86_64
  | "fuzz-arm" -> fuzz ~isa:K23_isa.Isa.Arm64
  | "macro" ->
    let t = Macro_wl.make ~seed in
    {
      setup = (fun () -> Macro_wl.setup t);
      round = Macro_wl.round t;
      check = (fun () -> Macro_wl.check t);
      steps = Macro_wl.steps t;
    }
  | w -> failwith ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

(* A zygote: a child forked before any set-up work, idle until asked,
   that forks one grandchild per request; the grandchild runs the
   set-up from that pristine process state and reports its duration.
   This repeats the cold set-up (the world cache and the sweep memo are
   per domain and would be warm in this process) between rounds, so
   that the repetitions sample the whole run. *)
type zygote = { pid : int; req : out_channel; resp : in_channel }

let start_zygote setup =
  let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close resp_r;
    let req = Unix.in_channel_of_descr req_r and resp = Unix.out_channel_of_descr resp_w in
    (try
       while true do
         ignore (input_char req);
         let rd, wr = Unix.pipe () in
         match Unix.fork () with
         | 0 ->
           let t0 = Unix.gettimeofday () in
           setup ();
           let s = Printf.sprintf "%.9f\n" (Unix.gettimeofday () -. t0) in
           ignore (Unix.write_substring wr s 0 (String.length s));
           Unix._exit 0
         | pid ->
           Unix.close wr;
           let line = try input_line (Unix.in_channel_of_descr rd) with End_of_file -> "fail" in
           Unix.close rd;
           ignore (Unix.waitpid [] pid);
           output_string resp (line ^ "\n");
           flush resp
       done
     with End_of_file -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    { pid; req = Unix.out_channel_of_descr req_w; resp = Unix.in_channel_of_descr resp_r }

let zygote_setup z =
  output_char z.req 'x';
  flush z.req;
  match float_of_string_opt (input_line z.resp) with
  | Some s -> s
  | None -> failwith "set-up failed in a child process"

let stop_zygote z =
  close_out z.req;
  close_in z.resp;
  ignore (Unix.waitpid [] z.pid)

(* set-up repetitions: this process's own, then one from the zygote
   after each of the first rounds (the rest after the loop) *)
let setup_reps = 7

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type round_out = { idx : int; traced : bool; ops : Op.t list; wall : float }

let sum f l = List.fold_left (fun a x -> a +. f x) 0. l
let isum f l = List.fold_left (fun a x -> a + f x) 0 l
let ratio a b = if b = 0. then 0. else a /. b

(* Load from other tenants of the host comes and goes in phases of
   seconds that make rounds up to 1.5x slower, and runs differ in how
   much of their time falls in a quiet phase.  Every reported time is
   therefore a quantile over repetitions taken at the slow end: the
   loaded state that every run visits, where a median or a best round
   would depend on the luck of the run. *)
let slow_end ~pct ~higher_is_better vs =
  Stats.percentile (if higher_is_better then pct else 100. -. pct) vs

let ops_per_s r = float_of_int (List.length r.ops) /. r.wall

(* A round's typical operation latency: the geometric mean, over the
   kinds of operation (fuzz mechanism columns, macro cells), of each
   kind's median.  Kinds differ up to 30x in cost, so a percentile over
   all operations jumps between kinds as their order shifts; the
   geometric mean moves smoothly with every kind. *)
let op_ms_geo r =
  let by_kind = Hashtbl.create 16 in
  List.iter
    (fun (o : Op.t) ->
      Hashtbl.replace by_kind o.kind
        ((o.lat *. 1e3) :: Option.value ~default:[] (Hashtbl.find_opt by_kind o.kind)))
    r.ops;
  Stats.geomean (Hashtbl.fold (fun _ ls acc -> Stats.median ls :: acc) by_kind [])

let msteps_per_s ~steps r = float_of_int (isum steps r.ops) /. r.wall /. 1e6

(* End-to-end metrics over the measured rounds (round 0, which also
   builds the digest, is left out): the slowest decile of rounds. *)
let e2e rounds =
  let over ~higher_is_better f =
    slow_end ~pct:10. ~higher_is_better (List.map f (List.filter (fun r -> r.idx > 0) rounds))
  in
  [
    ("ops_per_s", over ~higher_is_better:true ops_per_s, "1/s");
    ("op_ms_geo", over ~higher_is_better:false op_ms_geo, "ms");
  ]

(* The heap is read after a fixed amount of work, the end of round
   [heap_round], which every run reaches, so that it does not depend on
   how many rounds the machine's speed allowed. *)
let heap_round = 2

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* per-layer groups: which spans' self time each layer metric sums *)
let layer_of = function
  | "userland.Sim.reset_world_cfg" | "userland.Sim.create_world_cfg" | "userland.Sim.create_world" ->
    "world.acquire_ms"
  | "userland.Sim.register_app" | "eval.Macro.register_workload" -> "app.register_ms"
  | "core.K23.offline_run" | "eval.Macro.offline_spec" | "eval.Mech.launch" -> "mech.launch_ms"
  | "kernel.World.run_until_exit" | "eval.Macro.wait_for_listener" | "eval.Macro.drive_client" ->
    "guest.run_ms"
  | "kernel.Kern.ktrace_enable" -> "ktrace.enable_ms"
  | _ -> "bench.other_ms"

let layer_names =
  [
    "world.acquire_ms";
    "app.register_ms";
    "mech.launch_ms";
    "guest.run_ms";
    "ktrace.enable_ms";
    "bench.other_ms";
  ]

(* Per-layer metrics: self times from the traced rounds' spans, counts
   from the first traced round (a fixed, seed-determined amount of
   work), GC deltas from the first untraced round. *)
let per_layer ~spans ~traced ~counted ~gc =
  let ops = List.concat_map (fun r -> r.ops) traced in
  let nops = float_of_int (List.length ops) in
  let self = Spans.self_times spans in
  let layer_ms name =
    1e3 *. sum (fun (s, st) -> if layer_of s.Spans.name = name then st else 0.) self /. nops
  in
  let op_time = sum (fun (s, _) -> if s.Spans.name = "perfbench.op" then s.t1 -. s.t0 else 0.) self in
  let wall = sum (fun r -> r.wall) traced in
  let cops = counted.ops in
  let cn = float_of_int (List.length cops) in
  let c = List.fold_left (fun a (o : Op.t) -> Op.add_counts a o.counts) Op.no_counts cops in
  let per f = float_of_int f /. cn in
  let run_steps = float_of_int (isum (fun (o : Op.t) -> o.counts.run_steps) ops) in
  let gc_minor, gc_major, gc_majors, gc_ops = gc in
  List.map (fun n -> (n, layer_ms n, "ms")) layer_names
  @ [
      ("guest.ns_per_step", ratio (layer_ms "guest.run_ms" *. nops *. 1e6) run_steps, "ns");
      ("spans.coverage_pct", 100. *. ratio op_time wall, "%");
      ("spans.layer_pct", 100. *. ratio (op_time -. (layer_ms "bench.other_ms" *. nops /. 1e3)) op_time, "%");
      ("guest.steps_per_op", per c.run_steps, "count");
      ("kernel.syscalls_per_op", per c.syscalls, "count");
      ("kernel.mmap_per_op", per c.mmaps, "count");
      ("kernel.sigsys_per_op", per c.sigsys, "count");
      ("ktrace.events_per_op", per c.events, "count");
      ("ktrace.ptrace_stops_per_op", per c.ptrace_stops, "count");
      ("ktrace.code_writes_per_op", per c.code_writes, "count");
      ("par.World_cache.hit_ratio", per c.cache_hits, "ratio");
      ("gc.minor_words_per_op", gc_minor /. gc_ops, "count");
      ("gc.major_words_per_op", gc_major /. gc_ops, "count");
      ("gc.major_gcs_per_kop", 1e3 *. gc_majors /. gc_ops, "count");
    ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_metrics ms =
  String.concat ", "
    (List.map (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" n v u) ms)

let print_metric (n, v, u) = Printf.printf "metric %-28s %.6g %s\n" n v u

(* Per-workload figures for reading (README.md): pooled latency
   percentiles and per-spec cell medians over the measured rounds, and
   the failure ratio.  They are not gated; the JSON carries the
   workload-independent metrics. *)
let named_metrics ~workload ~steps rounds =
  let rounds = List.filter (fun r -> r.idx > 0 && not r.traced) rounds in
  let ops = List.concat_map (fun r -> r.ops) rounds in
  let failed = List.length (List.filter (fun (o : Op.t) -> o.failed) ops) in
  let lat ops = List.map (fun (o : Op.t) -> o.lat) ops in
  let fail_ratio = ("fail_ratio", ratio (float_of_int failed) (float_of_int (List.length ops)), "1") in
  if workload = "macro" then
    let cell spec =
      let ops = List.filter (fun (o : Op.t) -> String.starts_with ~prefix:(spec ^ "/") o.kind) ops in
      (spec ^ "_cell_s", Stats.median (lat ops), "s")
    in
    ( ( "msteps_per_s",
        slow_end ~pct:10. ~higher_is_better:true (List.map (msteps_per_s ~steps) rounds),
        "Msteps/s" )
    :: List.map cell [ "web"; "redis"; "sqlite" ])
    @ [ fail_ratio ]
  else
    let ms = List.map (fun x -> x *. 1e3) (lat ops) in
    [
      ("run_ms_p50", Stats.percentile 50. ms, "ms");
      ("run_ms_p99", Stats.percentile 99. ms, "ms");
      fail_ratio;
    ]

(* per-span-name breakdown of the traced rounds, ms per operation *)
let print_breakdown ~nops spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, st) ->
      let calls, self = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl s.Spans.name) in
      Hashtbl.replace tbl s.Spans.name (calls + 1, self +. st))
    (Spans.self_times spans);
  let rows = Hashtbl.fold (fun n (c, st) acc -> (n, c, st) :: acc) tbl [] in
  let total = List.fold_left (fun a (_, _, st) -> a +. st) 0. rows in
  List.iter
    (fun (n, c, st) ->
      Printf.printf "span %-34s calls %7d  self %9.4f ms/op  %5.1f%%\n" n c (1e3 *. st /. nops)
        (100. *. st /. total))
    (List.sort (fun (_, _, a) (_, _, b) -> compare b a) rows)

(* Per operation kind (a fuzz mechanism column, a macro cell): each
   layer's self time per operation over the traced rounds, and the
   simulated work of the first traced round. *)
let print_kinds ~traced ~counted spans =
  let kind_of = Hashtbl.create 4096 and nkind = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun (o : Op.t) ->
          Hashtbl.replace kind_of o.id o.kind;
          Hashtbl.replace nkind o.kind (1 + Option.value ~default:0 (Hashtbl.find_opt nkind o.kind)))
        r.ops)
    traced;
  let self = Hashtbl.create 64 in
  List.iter
    (fun ((s : Spans.span), st) ->
      match Hashtbl.find_opt kind_of s.op with
      | None -> ()
      | Some k ->
        let key = (k, layer_of s.name) in
        Hashtbl.replace self key (st +. Option.value ~default:0. (Hashtbl.find_opt self key)))
    (Spans.self_times spans);
  let kinds = List.sort_uniq compare (List.map (fun (o : Op.t) -> o.kind) counted.ops) in
  List.iter
    (fun k ->
      let n = float_of_int (Hashtbl.find nkind k) in
      let ops = List.filter (fun (o : Op.t) -> o.kind = k) counted.ops in
      let c = List.fold_left (fun a (o : Op.t) -> Op.add_counts a o.counts) Op.no_counts ops in
      let cn = float_of_int (List.length ops) in
      Printf.printf "kind %-20s %s | steps/op %.0f syscalls/op %.1f sigsys/op %.1f%s\n" k
        (String.concat " "
           (List.map
              (fun l ->
                Printf.sprintf "%s %.4f" l
                  (1e3 *. Option.value ~default:0. (Hashtbl.find_opt self (k, l)) /. n))
              layer_names))
        (float_of_int c.run_steps /. cn)
        (float_of_int c.syscalls /. cn) (float_of_int c.sigsys /. cn)
        (if c.requests = 0 then ""
         else
           Printf.sprintf " syscalls/req %.2f sigsys/req %.2f"
             (float_of_int c.syscalls /. float_of_int c.requests)
             (float_of_int c.sigsys /. float_of_int c.requests)))
    kinds

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench --workload <fuzz-x86|fuzz-arm|macro> [--seed N] [--seconds S] \
     [--trace 0|1] [--out DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 45. and trace = ref false in
  let out = ref "perfbench-out" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := Some (int_of_string v); parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := (v = "1"); parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) then usage ();
  let seed = Option.value !seed ~default:(default_seed !workload) in
  let wl = make !workload ~seed in
  let zygote = start_zygote wl.setup in
  wl.setup ();
  let setups = ref [ Unix.gettimeofday () -. t_start ] in
  let more_setup () =
    if List.length !setups < setup_reps then setups := zygote_setup zygote :: !setups
  in
  (* the timed loop: whole rounds until [seconds] have passed *)
  let rounds = ref [] and gc = ref (0., 0., 0., 1.) and heap = ref 0. in
  let run_round r ~traced =
    Spans.enabled := traced;
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let ops = wl.round r in
    let wall = Unix.gettimeofday () -. t0 in
    Spans.enabled := false;
    if r = 0 && not traced then begin
      let g1 = Gc.quick_stat () in
      gc :=
        ( g1.Gc.minor_words -. g0.Gc.minor_words,
          g1.Gc.major_words -. g0.Gc.major_words,
          float_of_int (g1.Gc.major_collections - g0.Gc.major_collections),
          float_of_int (List.length ops) )
    end;
    let ro = { idx = r; traced; ops; wall } in
    Printf.printf "round %d traced %b ops %d wall_s %.6f ops_per_s %.6g op_ms_geo %.6g\n" r traced
      (List.length ops) wall (ops_per_s ro) (op_ms_geo ro);
    if r = heap_round then heap := peak_heap_mb ();
    rounds := ro :: !rounds
  in
  let t_loop = Unix.gettimeofday () in
  let r = ref 0 in
  while !r <= heap_round || Unix.gettimeofday () -. t_loop < !seconds do
    if !trace then begin
      (* untraced and traced copies of each round, alternating which
         goes first; round 0 starts untraced so its GC deltas are the
         untraced program's *)
      let first = !r mod 2 = 1 in
      run_round !r ~traced:first;
      run_round !r ~traced:(not first)
    end
    else run_round !r ~traced:false;
    more_setup ();
    incr r
  done;
  for _ = 1 to setup_reps do more_setup () done;
  stop_zygote zygote;
  let setup_s = slow_end ~pct:25. ~higher_is_better:false !setups in
  let heap = !heap and rounds = List.rev !rounds in
  let digest, problems = wl.check () in
  (* report *)
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  let base = Filename.concat !out (Printf.sprintf "%s-seed%d" !workload seed) in
  let oc = open_out (base ^ ".digest") in
  output_string oc digest;
  close_out oc;
  Printf.printf "workload %s seed %d rounds %d digest %s (%s.digest)\n" !workload seed !r
    (Digest.to_hex (Digest.string digest)) base;
  List.iter (fun p -> Printf.printf "problem: %s\n" p) problems;
  let ops = List.concat_map (fun r -> r.ops) rounds in
  let failed = List.length (List.filter (fun (o : Op.t) -> o.failed) ops) in
  let untraced = List.filter (fun r -> not r.traced) rounds in
  let e2e_all = e2e untraced @ [ ("setup_s", setup_s, "s"); ("peak_heap_mb", heap, "MB") ] in
  List.iter print_metric (e2e_all @ named_metrics ~workload:!workload ~steps:wl.steps rounds);
  let metrics =
    if not !trace then e2e_all
    else begin
      let traced = List.filter (fun r -> r.traced) rounds in
      let spans = Spans.all () in
      Spans.dump ~path:(base ^ ".spans.tsv") ~workload:!workload spans;
      let nops = float_of_int (List.length (List.concat_map (fun r -> r.ops) traced)) in
      print_breakdown ~nops spans;
      print_kinds ~traced ~counted:(List.hd traced) spans;
      List.iter2
        (fun (n, u, unit) (_, t, _) ->
          Printf.printf "overhead %-26s untraced %.6g traced %.6g %s (%+.1f%%)\n" n u t unit
            (100. *. ratio (t -. u) u))
        (e2e untraced) (e2e traced);
      per_layer ~spans ~traced ~counted:(List.hd traced) ~gc:!gc
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (problems = [] && failed = 0) (List.length ops) failed (json_metrics metrics)
