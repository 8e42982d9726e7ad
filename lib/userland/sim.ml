(** Convenience layer: a world with the standard userland registered,
    and helpers to define application binaries. *)

open K23_kernel

(* Userland registration on top of the kernel wiring: libc, the stub
   libraries and the files the startup sequence touches.  ARM apps are
   freestanding and never load the x86 images, so an ARM world holds
   none of them. *)
let populate w =
  (match w.Kern.isa with
  | K23_isa.Isa.X86_64 ->
    Kern.register_library w Libc.image;
    List.iter (Kern.register_library w) Stdlibs.all
  | K23_isa.Isa.Arm64 -> ());
  ignore (Vfs.write_file w.vfs "/usr/lib/locale/locale-archive" (String.make 1024 'L'))

(** {!World.reset} plus the userland registration: recycles a dirty
    world into the exact observable state of a fresh one.  The
    scratch-world cache ({!K23_par.World_cache}) calls it directly;
    {!create_world_cfg} calls it once on a newly allocated world. *)
let reset_world_cfg w cfg =
  World.reset w cfg;
  populate w

(** A wired world with the standard userland, built from a
    {!World.Config.t}: allocate the structure, then reset it. *)
let create_world_cfg (cfg : World.Config.t) =
  let w = Kern.create_world ~isa:cfg.isa ~ncores:cfg.ncores ~quantum:cfg.quantum in
  reset_world_cfg w cfg;
  w

(** {!create_world_cfg} with {!World.Config.default}'s fields
    overridden by the optional arguments. *)
let create_world ?(isa = World.Config.default.isa) ?(ncores = World.Config.default.ncores)
    ?(quantum = World.Config.default.quantum) ?(seed = World.Config.default.seed)
    ?(aslr = World.Config.default.aslr) ?(cost = World.Config.default.cost)
    ?(predecode = World.Config.default.predecode) () =
  create_world_cfg
    { World.Config.default with isa; ncores; quantum; seed; aslr; cost; predecode }

(** An application image from an assembled program (entry symbol
    ["main"] unless overridden) — the seam that keeps this module
    ISA-agnostic: ARM callers assemble their items with
    [K23_isa_arm.Asm_arm.assemble] (the userland layer has no backend
    dependency) and pass the resulting neutral program.  [needed]
    defaults to [[]]: there is no ARM libc image, apps are freestanding
    (ld.so still runs its boilerplate, so P2b-class startup syscalls
    exist on ARM too).  An image built once may be registered in any
    number of worlds. *)
let app_image ~path ?(needed = []) ?(entry = "main") ?init ?(host_fns = [])
    (prog : K23_isa.Asm.program) =
  Kern.make_image ~name:path ~owner:App ~host_fns ?init ~entry ~needed prog

(** Define and register an application binary: {!app_image}, then
    registered in [w]. *)
let register_app_prog w ~path ?needed ?entry ?init ?host_fns prog =
  let im = app_image ~path ?needed ?entry ?init ?host_fns prog in
  Kern.register_library w im;
  im

(** {!register_app_prog} for x86 assembly [items]; [needed] defaults
    to libc. *)
let register_app w ~path ?(needed = [ Libc.path ]) ?entry ?init ?host_fns items =
  register_app_prog w ~path ~needed ?entry ?init ?host_fns (K23_isa.Asm.assemble items)

(** Spawn + run to completion; returns the process. *)
let run_to_exit ?max_steps w ~path ?argv ?env () =
  match World.spawn w ~path ?argv ?env () with
  | Error e -> failwith (Printf.sprintf "spawn %s failed: %d" path e)
  | Ok p ->
    World.run_until_exit ?max_steps w p;
    p
