(** The recorder: run an app under a mechanism with an unbounded
    ktrace sink and package the run as a {!Recording.t}.

    There is no separate "record mode" in the kernel — the simulator
    is deterministic given its config, so recording is just a normal
    run with the complete event stream retained (rr's insight inverted:
    where rr must capture nondeterministic inputs because the host OS
    is uncontrolled, here the config {e is} the nondeterminism, and
    the stream is captured as the oracle for replay).  The setup is
    {!Mech.prologue} (offline phase, fault-schedule rewind), then the
    sink, then the launch — the same prologue the fuzz oracle and the
    replayer run, so a recording of a faulty run replays the same
    dice. *)

module Mech = K23_eval.Mech
open K23_kernel
open K23_userland

let default_max_steps = 200_000_000

(** Record one run in [w], a world the caller built from [cfg] and
    installed the app(s) in.  This is the only place a
    {!Recording.t} is assembled: {!record} runs it in a fresh world,
    the fuzz oracle in its recycled scratch world.  [argv] defaults
    to the mechanism's own convention.  Returns [Error e] when the
    mechanism fails to launch. *)
let record_in w ~cfg ?(max_steps = default_max_steps) ?(argv = []) ~mech ~path () =
  Mech.prologue mech w ~path;
  let t = Kern.ktrace_enable ~unbounded:true w in
  match Mech.launch mech w ~path ?argv:(if argv = [] then None else Some argv) () with
  | Error e -> Error e
  | Ok (p, _stats) ->
    (try World.run_until_exit ~max_steps w p with Kern.Deadlock _ -> ());
    Ok
      {
        Recording.rc_app = path;
        rc_argv = argv;
        rc_mech = mech;
        rc_cfg = { cfg with World.Config.ktrace = false };
        rc_root = p.Kern.pid;
        rc_console = World.stdout_of p;
        rc_fates = Recording.fates_of_world w;
        rc_events = K23_obs.Trace.events t;
      }

(** Record one run in a fresh world.  [register] installs the app(s)
    (coreutils for the CLI, a generated program for tests). *)
let record ?(cfg = World.Config.default) ?max_steps
    ?(register = fun (_ : Kern.world) -> ()) ?argv ~mech ~path () =
  (* the recorder owns the sink (unbounded); a config-enabled bounded
     ring would shadow it and drop events *)
  let cfg = { cfg with World.Config.ktrace = false } in
  let w = Sim.create_world_cfg cfg in
  register w;
  record_in w ~cfg ?max_steps ?argv ~mech ~path ()
