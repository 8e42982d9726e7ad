(** One timed operation, as a workload reports it to the main loop. *)

type t = {
  id : int;
  kind : string;  (** the mechanism column (fuzz) or "spec/mechanism" cell (macro) *)
  lat : float;  (** host seconds *)
  steps : int;
      (** guest instructions of the operation's world, K23's offline
          phase included (0 when the workload cannot see the world) *)
  failed : bool;
  counts : counts;
}

(** Simulated work, counted only in traced rounds (ktrace sink). *)
and counts = {
  run_steps : int;  (** guest instructions from launch to exit *)
  syscalls : int;
  mmaps : int;
  sigsys : int;
  events : int;
  ptrace_stops : int;
  code_writes : int;
  requests : int;  (** client requests completed (macro servers) *)
  cache_hits : int;  (** scratch worlds the operation got from [World_cache] *)
}

let no_counts =
  {
    run_steps = 0;
    syscalls = 0;
    mmaps = 0;
    sigsys = 0;
    events = 0;
    ptrace_stops = 0;
    code_writes = 0;
    requests = 0;
    cache_hits = 0;
  }

let add_counts a b =
  {
    run_steps = a.run_steps + b.run_steps;
    syscalls = a.syscalls + b.syscalls;
    mmaps = a.mmaps + b.mmaps;
    sigsys = a.sigsys + b.sigsys;
    events = a.events + b.events;
    ptrace_stops = a.ptrace_stops + b.ptrace_stops;
    code_writes = a.code_writes + b.code_writes;
    requests = a.requests + b.requests;
    cache_hits = a.cache_hits + b.cache_hits;
  }

(** Counts of a world's ktrace sink.  [code_writes] comes from the
    sink's observer ({!count_code_writes}), because the ring may have
    overwritten old events by the time the operation ends. *)
let counts_of_sink ?(requests = 0) ?(cache_hits = 0) (t : K23_obs.Trace.t) ~code_writes ~run_steps =
  let c = K23_obs.Counters.get t.K23_obs.Trace.counters in
  {
    run_steps;
    syscalls = c "sys.app" + c "sys.interposer";
    mmaps = c ("sys.nr." ^ string_of_int K23_kernel.Sysno.mmap);
    sigsys = c "sigsys";
    events = K23_obs.Trace.event_count t;
    ptrace_stops = c "ptrace.stop";
    code_writes;
    requests;
    cache_hits;
  }

(** Install an observer on [t] that counts code-write events into the
    returned ref. *)
let count_code_writes (t : K23_obs.Trace.t) =
  let n = ref 0 in
  t.K23_obs.Trace.on_event <-
    Some
      (fun ev ->
        match ev.K23_obs.Event.ev_payload with K23_obs.Event.Code_write _ -> incr n | _ -> ());
  n

(** Run [f] as operation [id]: times it, records the operation's root
    span, and turns a host exception into a failed operation. *)
let timed ~id ~kind (f : unit -> int * bool * counts) =
  Spans.set_op id;
  let t0 = Unix.gettimeofday () in
  let steps, failed, counts =
    try Spans.span "perfbench.op" f
    with e ->
      Printf.eprintf "perfbench: op %d (%s) raised %s\n%!" id kind (Printexc.to_string e);
      (0, true, no_counts)
  in
  { id; kind; lat = Unix.gettimeofday () -. t0; steps; failed; counts }
