(** Differential conformance oracle.

    A generated program is run in fresh, identically-seeded worlds —
    natively and under each interposition mechanism — with the ktrace
    ring enabled, and the runs are compared on their {e application-
    observable} behaviour:

    - the per-process sequence of {e executed} application syscalls
      (number and normalised return value),
    - every process's exit fate (exit status / fatal signal / still
      running at the step cap),
    - the root process's console bytes.

    Raw event streams are {e not} comparable across mechanisms: an
    interposer adds selector toggles, SIGSYS round trips, ptrace stops
    and its own housekeeping syscalls, shifts every library's load
    address (one more preload changes the ASLR draw sequence), and
    skews fd and pid numbering (extra [openat]s, K23's offline
    process).  The projection in this module is the per-mechanism
    allowlist, made systematic:

    - events are grouped per process; only syscalls that {e executed}
      (entered and exited) survive;
    - syscalls owned by the dynamic loader are dropped (mechanism
      launch changes what ld.so loads), as are [rt_sigreturn] and
      K23's fake syscall numbers;
    - an interposer-owned execution is the SIGSYS gadget re-issuing a
      blocked application attempt (SUD or seccomp-TRAP): it is matched
      FIFO to the preceding blocked [Syscall_enter] of the same thread
      and replayed as that application syscall, with the re-issue's
      return value.  Unmatched interposer syscalls are the
      interposer's own housekeeping and are dropped;
    - return values are normalised: addresses ([mmap]/[brk]) to a
      token, descriptors to a per-process first-use index, pids/tids
      to a per-run first-appearance index.  Everything else (byte
      counts, errnos) must match exactly.

    [Trace_diff] still guards the stronger property that the same
    mechanism with the same seed yields byte-identical streams; this
    module owns the cross-mechanism question. *)

open K23_kernel
open K23_userland
module Event = K23_obs.Event
module Mech = K23_eval.Mech
module Recording = K23_replay.Recording

let target_path = "/bin/fuzz_target"

(** The six mechanisms checked by default (plus native as reference). *)
let default_mechs : Mech.t list =
  [ Mech.Zpoline_ultra; Mech.Lazypoline; Mech.Sud; Mech.Ptrace; Mech.Seccomp; Mech.K23_ultra ]

(** Default mechanism column per ISA: on Arm the rewriting family is
    ASC-Hook and the kernel-mediated mechanisms carry over; the x86
    trampoline mechanisms have no Arm realisation. *)
let default_mechs_for = function
  | K23_isa.Isa.X86_64 -> default_mechs
  | K23_isa.Isa.Arm64 -> [ Mech.Asc_hook; Mech.Sud; Mech.Ptrace; Mech.Seccomp ]

type projected = {
  streams : (int * string list) list;
      (** canonical pid -> rendered (nr, normalised ret) records *)
  fates : (int * Recording.fate) list;  (** canonical pid -> fate *)
  console : string;  (** root process console bytes *)
}

type outcome =
  | Ok_run of projected
  | Launch_failed of int

(* ------------------------------------------------------------------ *)
(* Running                                                             *)

let default_world_seed = 97
let default_max_steps = 3_000_000

(** The oracle's world recipe: the fixed fuzz seed over the default
    configuration.  Campaigns carry (and may override) this record. *)
let default_world_cfg = { World.Config.default with World.Config.seed = default_world_seed }

(* The execve helper never changes, so its image is built once per ISA
   per host process, as {!Libc.image} is. *)
let exec_child_image =
  Sim.app_image ~path:Gen.exec_child_path ~needed:[ Libc.path ]
    (K23_isa.Asm.assemble Gen.exec_child_items)

let exec_child_image_arm =
  Sim.app_image ~path:Gen.exec_child_path (K23_isa_arm.Asm_arm.assemble Gen.exec_child_items_arm)

(** Install [items] as the fuzz target (plus the execve helper) in
    [w], which must be a world of the program's ISA. *)
let register w (items : Gen.items) =
  if w.Kern.isa <> Gen.items_isa items then
    invalid_arg
      (Printf.sprintf "Oracle: %s program on a %s world"
         (K23_isa.Isa.to_string (Gen.items_isa items))
         (K23_isa.Isa.to_string w.Kern.isa));
  match items with
  | Gen.X86 its ->
    ignore (Sim.register_app w ~path:target_path its);
    Kern.register_library w exec_child_image
  | Gen.A64 its ->
    ignore (Sim.register_app_prog w ~path:target_path (K23_isa_arm.Asm_arm.assemble its));
    Kern.register_library w exec_child_image_arm

(* Register the target, run the mechanism's prologue, launch and run
   to completion.  Takes the world as an argument so the fresh-world
   ({!run_raw}) and scratch-world ({!run}) paths share one setup
   sequence. *)
let launch_in w ~max_steps ~mech items =
  register w items;
  Mech.prologue mech w ~path:target_path;
  let t = Kern.ktrace_enable w in
  match Mech.launch mech w ~path:target_path () with
  | Error e -> Error e
  | Ok (p, _stats) ->
    (try World.run_until_exit ~max_steps w p with Kern.Deadlock _ -> ());
    Ok (p, K23_obs.Trace.events t)

(** Run [items] (plus the execve helper) under [mech] in a fresh world
    built from [cfg]; returns the raw material for projection.  Always
    builds a {e fresh} world — the world escapes to the caller, so the
    scratch-world cache must not recycle it underneath them. *)
let run_raw ?(cfg = default_world_cfg) ?(max_steps = default_max_steps) ~mech items =
  let w = Sim.create_world_cfg cfg in
  match launch_in w ~max_steps ~mech items with
  | Error e -> Error e
  | Ok (p, events) -> Ok (w, p, events)

(** Run [f] on a world observably equal to [Sim.create_world_cfg cfg],
    recycled per domain.  Nothing world-owned may escape [f]; only
    project inside and return the (immutable) projection. *)
let with_scratch_world cfg f =
  K23_par.World_cache.with_world ~build:Sim.create_world_cfg ~reset:Sim.reset_world_cfg cfg f

(* ------------------------------------------------------------------ *)
(* Projection                                                          *)

(* owners whose syscalls are part of application behaviour *)
let keep_owner = function
  | "app" | "libc" | "trampoline" | "anon" | "stack" -> true
  | "interposer" | "ld.so" | "vdso" -> false
  | _ -> true (* named shared libraries *)

(* direct int tests, not [List.mem] over heap lists: [norm_ret] runs
   once per kept record and the projection is on the campaign's hot
   path *)
let is_addr_nr nr = nr = Sysno.mmap || nr = Sysno.brk

let is_fd_nr nr =
  nr = Sysno.open_ || nr = Sysno.openat || nr = Sysno.dup || nr = Sysno.socket
  || nr = Sysno.accept

let is_pid_nr nr =
  nr = Sysno.fork || nr = Sysno.clone || nr = Sysno.getpid || nr = Sysno.gettid
  || nr = Sysno.wait4

type pend = { pd_nr : int; pd_owner : string; mutable pd_blocked : bool }

(** Project a run into comparable per-process syscall records, from
    pure data: the root pid, every traced process's fate (by raw
    pid), the root console bytes and the event stream.  Shared by the
    live path ({!project}, straight off a world) and the replay
    oracle ({!project_recording}, off a {!Recording.t} — same
    function, so a recorded run projects identically by
    construction). *)
let project_events ~root_pid ~(fates : (int * Recording.fate) list) ~console events =
  (* canonical pid numbering: root first, then first appearance *)
  let pid_map = Hashtbl.create 8 in
  Hashtbl.replace pid_map root_pid 0;
  let next_pid = ref 1 in
  let canon_pid pid =
    match Hashtbl.find_opt pid_map pid with
    | Some c -> c
    | None ->
      let c = !next_pid in
      incr next_pid;
      Hashtbl.replace pid_map pid c;
      c
  in
  (* tids normalised the same way (the offline phase consumes tids) *)
  let tid_map = Hashtbl.create 8 in
  let next_tid = ref 0 in
  let canon_tid tid =
    match Hashtbl.find_opt tid_map tid with
    | Some c -> c
    | None ->
      let c = !next_tid in
      incr next_tid;
      Hashtbl.replace tid_map tid c;
      c
  in
  (* per-pid fd numbering by first use as a return value *)
  let fd_maps : (int, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let canon_fd pid fd =
    let m =
      match Hashtbl.find_opt fd_maps pid with
      | Some m -> m
      | None ->
        let m = Hashtbl.create 8 in
        Hashtbl.replace fd_maps pid m;
        m
    in
    match Hashtbl.find_opt m fd with
    | Some c -> c
    | None ->
      let c = Hashtbl.length m in
      Hashtbl.replace m fd c;
      c
  in
  let norm_ret pid nr ret =
    if ret < 0 then string_of_int ret
    else if is_addr_nr nr then (if ret >= 4096 then "addr" else string_of_int ret)
    else if is_fd_nr nr then Printf.sprintf "fd%d" (canon_fd pid ret)
    else if is_pid_nr nr then
      if ret = 0 then "0" else Printf.sprintf "pid%d" (canon_pid ret)
    else string_of_int ret
  in
  let streams : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let emit pid nr ret =
    if nr <> Sysno.rt_sigreturn && nr < 1023 then begin
      let cpid = canon_pid pid in
      let q =
        match Hashtbl.find_opt streams cpid with
        | Some q -> q
        | None ->
          let q = ref [] in
          Hashtbl.replace streams cpid q;
          q
      in
      q := Printf.sprintf "%s->%s" (Sysno.name nr) (norm_ret pid nr ret) :: !q
    end
  in
  (* per-(pid,tid) in-flight slot + FIFO of blocked app attempts *)
  let slots : (int * int, pend) Hashtbl.t = Hashtbl.create 8 in
  let blocked : (int * int, pend Queue.t) Hashtbl.t = Hashtbl.create 8 in
  let blocked_q key =
    match Hashtbl.find_opt blocked key with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace blocked key q;
      q
  in
  let retire key =
    (* an enter that never exited: keep it if it was diverted (the
       re-issue will claim it), drop it otherwise (seccomp ERRNO-style
       short circuits) *)
    match Hashtbl.find_opt slots key with
    | None -> ()
    | Some pd ->
      Hashtbl.remove slots key;
      if pd.pd_blocked then Queue.add pd (blocked_q key)
  in
  List.iter
    (fun (e : Event.t) ->
      let key = (e.ev_pid, e.ev_tid) in
      (* fix the canonical ids in stream order; ev_pid = 0 marks
         events with no process context (rewrites, world bookkeeping)
         and must not consume a slot *)
      if e.ev_pid <> 0 then begin
        ignore (canon_pid e.ev_pid);
        ignore (canon_tid e.ev_tid)
      end;
      match e.ev_payload with
      | Event.Syscall_enter { nr; owner; _ } ->
        retire key;
        Hashtbl.replace slots key { pd_nr = nr; pd_owner = owner; pd_blocked = false }
      | Event.Sud_block { nr; _ } -> (
        match Hashtbl.find_opt slots key with
        | Some pd when pd.pd_nr = nr -> pd.pd_blocked <- true
        | _ -> ())
      | Event.Seccomp { nr; verdict = "trap" } -> (
        match Hashtbl.find_opt slots key with
        | Some pd when pd.pd_nr = nr -> pd.pd_blocked <- true
        | _ -> ())
      | Event.Syscall_exit { nr; ret } -> (
        match Hashtbl.find_opt slots key with
        | Some pd when pd.pd_nr = nr ->
          Hashtbl.remove slots key;
          if keep_owner pd.pd_owner then emit e.ev_pid nr ret
          else if pd.pd_owner = "interposer" then begin
            (* gadget re-issue: replay the blocked application attempt *)
            let q = blocked_q key in
            match Queue.peek_opt q with
            | Some bp when bp.pd_nr = nr ->
              ignore (Queue.pop q);
              if keep_owner bp.pd_owner then emit e.ev_pid nr ret
            | _ -> () (* interposer housekeeping *)
          end
        | _ -> ())
      | _ -> ())
    events;
  (* fates, in canonical order, for every traced process *)
  let fates =
    Hashtbl.fold (fun pid cpid acc -> (pid, cpid) :: acc) pid_map []
    |> List.sort (fun (_, a) (_, b) -> compare a b)
    |> List.filter_map (fun (pid, cpid) ->
           Option.map (fun f -> (cpid, f)) (List.assoc_opt pid fates))
  in
  let streams =
    Hashtbl.fold (fun cpid q acc -> (cpid, List.rev !q) :: acc) streams []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { streams; fates; console }

(** Project a raw run straight off its (still-live) world. *)
let project (p : Kern.proc) (w : Kern.world) events =
  project_events ~root_pid:p.Kern.pid ~fates:(Recording.fates_of_world w)
    ~console:(World.stdout_of p) events

(** Project a recording — the replay oracle's native column. *)
let project_recording (r : Recording.t) =
  project_events ~root_pid:r.Recording.rc_root ~fates:r.Recording.rc_fates
    ~console:r.Recording.rc_console r.Recording.rc_events

(** Run under [mech] and project.  Uses the per-domain scratch world:
    the world is recycled between calls, and only the immutable
    {!projected} escapes.  Callers that need the raw world use
    {!run_raw}. *)
let run ?(cfg = default_world_cfg) ?(max_steps = default_max_steps) ~mech items =
  with_scratch_world cfg (fun w ->
      match launch_in w ~max_steps ~mech items with
      | Error e -> Launch_failed e
      | Ok (p, events) -> Ok_run (project p w events))

(** Run [items] under [mech] and package the run as a
    {!Recording.t} via {!K23_replay.Recorder.record_in}.  Uses the
    scratch world — only the immutable recording escapes.  The
    replay-checked oracle records the native column once with this
    and projects each iteration off the log. *)
let record ?(cfg = default_world_cfg) ?(max_steps = default_max_steps) ~mech items =
  with_scratch_world cfg (fun w ->
      register w items;
      K23_replay.Recorder.record_in w ~cfg ~max_steps ~mech ~path:target_path ())

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

type divergence = {
  d_mech : string;
  d_where : string;  (** what differed, e.g. "pid 0 syscall 3" *)
  d_native : string;
  d_mech_val : string;
}

let render_divergence d =
  Printf.sprintf "[%s] %s: native=%s mech=%s" d.d_mech d.d_where d.d_native d.d_mech_val

let escape = String.map (fun c -> if c = '\n' then ';' else c)

(** First application-observable difference between a native and a
    mechanism projection, if any. *)
let compare_projected ~mech (native : projected) (m : projected) : divergence option =
  let mk where n v = Some { d_mech = Mech.to_string mech; d_where = where; d_native = n; d_mech_val = v } in
  let rec cmp_stream cpid i (a : string list) (b : string list) =
    match (a, b) with
    | [], [] -> None
    | x :: _, [] -> mk (Printf.sprintf "pid %d record %d" cpid i) x "<missing>"
    | [], y :: _ -> mk (Printf.sprintf "pid %d record %d" cpid i) "<missing>" y
    | x :: xs, y :: ys ->
      if x = y then cmp_stream cpid (i + 1) xs ys
      else mk (Printf.sprintf "pid %d record %d" cpid i) x y
  in
  let rec cmp_streams = function
    | [], [] -> None
    | (cpid, s) :: _, [] -> mk (Printf.sprintf "pid %d" cpid) (Printf.sprintf "%d records" (List.length s)) "<no process>"
    | [], (cpid, s) :: _ -> mk (Printf.sprintf "pid %d" cpid) "<no process>" (Printf.sprintf "%d records" (List.length s))
    | (ca, sa) :: ra, (cb, sb) :: rb ->
      if ca <> cb then mk "pid order" (string_of_int ca) (string_of_int cb)
      else (
        match cmp_stream ca 0 sa sb with Some d -> Some d | None -> cmp_streams (ra, rb))
  in
  match cmp_streams (native.streams, m.streams) with
  | Some d -> Some d
  | None -> (
    let rec cmp_fates = function
      | [], [] -> None
      | (cpid, f) :: _, [] -> mk (Printf.sprintf "pid %d fate" cpid) (Recording.fate_to_string f) "<no process>"
      | [], (cpid, f) :: _ -> mk (Printf.sprintf "pid %d fate" cpid) "<no process>" (Recording.fate_to_string f)
      | (ca, fa) :: ra, (cb, fb) :: rb ->
        if ca <> cb || fa <> fb then
          mk
            (Printf.sprintf "pid %d fate" ca)
            (Recording.fate_to_string fa)
            (Printf.sprintf "pid %d %s" cb (Recording.fate_to_string fb))
        else cmp_fates (ra, rb)
    in
    match cmp_fates (native.fates, m.fates) with
    | Some d -> Some d
    | None ->
      if native.console <> m.console then
        mk "console" (escape native.console) (escape m.console)
      else None)

(** Run [items] natively and under [mech]; [Some divergence] if the
    application-observable behaviour differs.

    [?native] supplies an already-computed native projection (the
    campaign computes it {e once} per program and shares it across all
    mechanisms — [projected] is immutable, so sharing it between
    domains is safe); without it the native column is re-run here. *)
let diverges ?cfg ?max_steps ?native ~mech items =
  let native_outcome =
    match native with
    | Some n -> Ok_run n
    | None -> run ?cfg ?max_steps ~mech:Mech.Native items
  in
  match native_outcome with
  | Launch_failed e ->
    Some
      {
        d_mech = Mech.to_string mech;
        d_where = "native launch";
        d_native = Printf.sprintf "error %d" e;
        d_mech_val = "";
      }
  | Ok_run native -> (
    match run ?cfg ?max_steps ~mech items with
    | Launch_failed e ->
      Some
        {
          d_mech = Mech.to_string mech;
          d_where = "launch";
          d_native = "ok";
          d_mech_val = Printf.sprintf "error %d" e;
        }
    | Ok_run m -> compare_projected ~mech native m)
