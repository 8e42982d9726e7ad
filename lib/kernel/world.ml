(** World assembly: wires the syscall table and the loader into a
    {!Kern.world} and provides the high-level API used by examples,
    tests and benchmarks. *)

open Kern

(** The complete recipe for one world, as a plain record.

    Every field is immutable data, and two equal configs (plus equal
    programs) produce byte-identical worlds — which is what lets the
    domain pool ({!K23_par}) run tasks that each build their own world
    from one. *)
module Config = struct
  type t = {
    isa : K23_isa.Isa.t;  (** instruction set of every image this world loads *)
    ncores : int;
    quantum : int;  (** scheduler timeslice, in instructions *)
    seed : int;  (** world RNG seed: ASLR draws + cost skew *)
    aslr : bool;
    cost : K23_machine.Cost.model;
    predecode : bool;  (** per-line decode memo in every I-cache *)
    faults : K23_faults.Faults.plan;  (** fault-injection schedule; {!K23_faults.Faults.none} = off *)
  }

  (** The default world: the one place its values are written. *)
  let default =
    {
      isa = K23_isa.Isa.X86_64;
      ncores = 12;
      quantum = 64;
      seed = 23;
      aslr = true;
      cost = K23_machine.Cost.default;
      predecode = true;
      faults = K23_faults.Faults.none;
    }
end

(** Set every per-run field of [w] from [cfg] and wire it: syscall
    dispatch, execve, the dynamic linker, the vdso and a minimal
    filesystem skeleton.  This is the only initialiser of a world's
    per-run state: a fresh world is [Kern.create_world] reset once, and
    a used world reset in place reaches the same observable state —
    the scratch-world path of the domain pool ({!K23_par}), which skips
    allocating the big structures (cores, I-caches, tables).

    The invariants (test_par.ml pins them; DESIGN.md §4g):
    - the RNG is rewound and the per-run cost skew re-drawn, so the
      ASLR/jitter stream replays bit-for-bit;
    - every id sequence (pid, tid, connection id, steps) restarts;
    - the VFS (offline logs and their seals included), the network,
      the library table, the ktrace sink, SUD history and per-core
      state (cycles, residency, I-cache contents, predecode memos) are
      emptied exactly as a fresh world starts;
    - the world's {e structural} parameters ([isa], [ncores],
      [quantum]) cannot change in place — a config differing there
      must rebuild ([Invalid_argument]). *)
let reset (w : world) (cfg : Config.t) =
  if cfg.ncores <> w.ncores || cfg.quantum <> w.quantum || cfg.isa <> w.isa then
    invalid_arg "World.reset: isa/ncores/quantum differ from the world being reset";
  Rng.reseed w.rng ~seed:cfg.seed;
  (* per-run machine-state skew (~±0.7% on the kernel path), the
     seed's first draw: repeated runs with different seeds show
     realistic standard deviations *)
  w.cost <- { cfg.cost with K23_machine.Cost.syscall_base = cfg.cost.K23_machine.Cost.syscall_base + Rng.int w.rng 3 - 1 };
  Array.fill w.core_cycles 0 w.ncores 0;
  Array.fill w.core_resident 0 w.ncores (-1);
  Array.iter
    (fun ic ->
      K23_machine.Icache.flush ic;
      K23_machine.Icache.set_predecode ic cfg.predecode)
    w.icaches;
  w.procs <- [];
  w.next_pid <- 1;
  w.next_tid <- 1;
  w.next_core <- 0;
  Vfs.reset w.vfs;
  Net.reset w.net;
  Hashtbl.reset w.libraries;
  w.steps <- 0;
  w.aslr <- cfg.aslr;
  w.sud_ever_armed <- false;
  w.ktrace <- None;
  Array.fill w.ktrace_last_tid 0 w.ncores (-1);
  w.replay_exit <- None;
  w.faults <- (if K23_faults.Faults.enabled cfg.faults then Some cfg.faults else None);
  Hashtbl.reset w.fault_ticks;
  w.syscall_impl <- Some Syscalls.dispatch;
  w.execve_impl <- Some Loader.do_execve;
  (match cfg.isa with
  | K23_isa.Isa.X86_64 ->
    register_library w Loader.ldso_image;
    register_library w Loader.vdso_image
  | K23_isa.Isa.Arm64 ->
    register_library w Loader.ldso_image_arm;
    register_library w Loader.vdso_image_arm);
  List.iter
    (fun d -> ignore (Vfs.mkdir_p w.vfs d))
    [ "/bin"; "/usr/lib"; "/etc"; "/tmp"; "/home/user"; "/k23" ];
  ignore (Vfs.write_file w.vfs "/etc/ld.so.cache" "ld.so cache\n");
  ignore (Vfs.write_file w.vfs "/etc/hostname" "sim\n")

(** Spawn a process running [path].  [env] is a list of "K=V" strings;
    LD_PRELOAD is honoured exactly as by the dynamic loader.  A
    [tracer] attaches before the initial execve, so it observes the
    program from its very first instruction (the property only ptrace
    offers; Section 5.2). *)
let spawn (w : world) ~path ?(argv = []) ?(env = []) ?tracer ?(vdso = true) () =
  let p = new_proc w ~parent:None ~cmd:path in
  let th = new_thread w p in
  p.tracer <- tracer;
  p.vdso_enabled <- vdso;
  let argv = if argv = [] then [ path ] else argv in
  match w.execve_impl with
  | None -> panic "world not wired"
  | Some f ->
    let ret = f { world = w; thread = th } ~path ~argv ~envp:env in
    if ret < 0 then begin
      exit_proc p ~status:127;
      Error ret
    end
    else Ok p

(** Run until [p] terminates (or the step budget is exhausted). *)
let run_until_exit ?max_steps (w : world) (p : proc) =
  run ?max_steps ~until:(fun () -> proc_dead p) w

let exit_code (p : proc) = p.exit_status

let stdout_of = console_output
