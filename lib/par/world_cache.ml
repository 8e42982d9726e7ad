(** Per-domain scratch-world cache.

    Building a fully wired world is cheap but not free, and under the
    domain pool every task used to pay it.  This cache keeps {e one}
    world per domain (via [Domain.DLS], so no locking and no
    cross-domain sharing — the seed-determinism audit of DESIGN.md §4f
    stays intact) and recycles it between runs with an in-place reset
    that is runtest-proven observationally identical to a fresh build
    (test_par.ml, "world reuse").

    The cache is callback-parameterised ([~build]/[~reset]) so this
    library needs only the kernel's types: the userland layer passes
    [Sim.create_world_cfg]/[Sim.reset_world_cfg].  A world is reusable
    whenever its {e structural} parameters (isa, ncores, quantum) match
    the requested {!World.Config.t}; every other field is re-derived by
    the reset, which is also how a fresh build initialises its world. *)

open K23_kernel

type slot = {
  mutable world : Kern.world option;
  mutable in_use : bool;  (** re-entrancy guard: nested calls build fresh *)
  mutable hits : int;
  mutable misses : int;
}

let slot_key : slot Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { world = None; in_use = false; hits = 0; misses = 0 })

(** [(hits, misses)] of the calling domain's slot — bench visibility. *)
let stats () =
  let s = Domain.DLS.get slot_key in
  (s.hits, s.misses)

(** Run [f] with a world observably equal to [build cfg], reusing the
    domain's cached world when possible.  The world must not escape
    [f]: it is reset underneath any lingering reference on the next
    call. *)
let with_world ~(build : World.Config.t -> Kern.world)
    ~(reset : Kern.world -> World.Config.t -> unit) (cfg : World.Config.t) f =
  let s = Domain.DLS.get slot_key in
  if s.in_use then f (build cfg)
  else begin
    s.in_use <- true;
    Fun.protect
      ~finally:(fun () -> s.in_use <- false)
      (fun () ->
        let w =
          match s.world with
          | Some w
            when w.Kern.isa = cfg.World.Config.isa
                 && w.Kern.ncores = cfg.World.Config.ncores
                 && w.Kern.quantum = cfg.World.Config.quantum ->
            reset w cfg;
            s.hits <- s.hits + 1;
            w
          | _ ->
            s.misses <- s.misses + 1;
            build cfg
        in
        s.world <- Some w;
        f w)
  end
