(** Microbenchmark (Table 5): a stress loop around the non-existent
    system call 500, "selected because it spends minimal time in the
    kernel, thereby emphasising the overhead introduced by each
    interposition technique" (Section 6.2.1).

    Per-iteration cost is measured as the marginal slope between two
    iteration counts, which cancels process-startup and
    interposer-initialisation costs — the moral equivalent of the
    paper's 100M-iteration amortisation. *)

open K23_isa
open K23_kernel
open K23_userland
module Stats = K23_util.Stats

let app_path = "/bin/syscall_stress"

let app_items n =
  [
    Asm.Label "main";
    Asm.I (Insn.Mov_ri (R13, n));
    Asm.Label "loop";
    Asm.I (Insn.Mov_ri (RAX, Sysno.bench_nonexistent));
    Asm.I Insn.Syscall;
    Asm.I (Insn.Sub_ri (R13, 1));
    Asm.Jc (Insn.NZ, "loop");
    Asm.I (Insn.Xor_rr (RDI, RDI));
    Asm.Call_sym "exit";
  ]

(* NOTE: the iteration count is a same-width immediate, so the layout
   (and thus every syscall-site offset) is identical across counts —
   K23's offline logs transfer between them. *)
let lo_iters = 2_000
let hi_iters = 12_000

(** Install the stress app with [iters] iterations at {!app_path}.
    When [mech] needs K23's offline phase, it runs first, on a short
    [offline_iters] build of the same binary, and the logs are sealed. *)
let install w ~mech ~iters ~offline_iters =
  let register n = ignore (Sim.register_app w ~path:app_path (app_items n)) in
  if Mech.needs_offline mech then begin
    register offline_iters;
    ignore (K23_core.K23.offline_run w ~path:app_path ());
    K23_core.K23.seal_logs w
  end;
  register iters

let run_one ~mech ~seed ~iters =
  let w = Sim.create_world ~seed () in
  install w ~mech ~iters ~offline_iters:200;
  match Mech.launch mech w ~path:app_path () with
  | Error e -> failwith (Printf.sprintf "micro: launch %s failed (%d)" (Mech.to_string mech) e)
  | Ok (p, _stats) ->
    (* measure the stress process's own core: offline-phase cycles (on
       other cores / processes) must not leak into the measurement *)
    let core = (List.hd p.threads).Kern.core in
    let before = w.core_cycles.(core) in
    World.run_until_exit w p;
    (match p.exit_status with
    | Some 0 -> ()
    | _ -> failwith (Printf.sprintf "micro: %s did not exit cleanly" (Mech.to_string mech)));
    w.core_cycles.(core) - before

(** Marginal cycles per iteration under [mech]. *)
let cycles_per_iter ~mech ~seed =
  let lo = run_one ~mech ~seed ~iters:lo_iters in
  let hi = run_one ~mech ~seed ~iters:hi_iters in
  float_of_int (hi - lo) /. float_of_int (hi_iters - lo_iters)

type row = { mech : Mech.t; overhead : float; stddev_pct : float }

(* per-repetition seed, as in the paper's repeated-run methodology *)
let run_seed i = 1000 + (i * 7)

(** One repetition of one row: the (mech, run-index) sample.  Each
    sample builds four fresh worlds (lo/hi iteration counts, mech and
    native) and is a pure function of its seed — the unit of work the
    domain pool shards. *)
let sample ~mech i =
  let seed = run_seed i in
  cycles_per_iter ~mech ~seed /. cycles_per_iter ~mech:Mech.Native ~seed

(** Assemble a row following the paper's methodology: min/max
    discarded, geometric mean, stddev as % of mean. *)
let row_of_samples mech samples =
  let kept = Stats.drop_outliers samples in
  { mech; overhead = Stats.geomean kept; stddev_pct = Stats.stddev_pct kept }

(** Overhead of one mechanism relative to native ([runs] repetitions),
    measured sequentially. *)
let overhead_row ?(runs = 10) mech = row_of_samples mech (List.init runs (sample ~mech))

(** Table 5, with one pool task per (row, repetition) pair.  Samples
    come back in submission order whatever [jobs] is, so the rendered
    table is byte-identical to the sequential sweep. *)
let table5 ?(runs = 10) ?(jobs = 1) () =
  let tasks = List.concat_map (fun mech -> List.init runs (fun i -> (mech, i))) Mech.table5_rows in
  let samples = K23_par.Pool.map ~jobs (fun (mech, i) -> sample ~mech i) tasks in
  (* regroup row-major: row i owns samples [i*runs, (i+1)*runs) *)
  List.mapi
    (fun i mech -> row_of_samples mech (List.filteri (fun j _ -> j / runs = i) samples))
    Mech.table5_rows

let render rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%-22s %-12s\n" "Mechanism" "Overhead");
  List.iter
    (fun { mech; overhead; stddev_pct } ->
      Buffer.add_string buf
        (Printf.sprintf "%-22s %.4fx (+/-%.3f%%)\n" (Mech.to_string mech) overhead stddev_pct))
    rows;
  Buffer.contents buf
