(** The interposition mechanisms compared in the evaluation
    (Tables 4-6). *)

open K23_kernel
module Zp = K23_baselines.Zpoline
module Lp = K23_baselines.Lazypoline
module Sud = K23_baselines.Sud_interposer
module Pt = K23_baselines.Ptrace_interposer
module Sc = K23_baselines.Seccomp_interposer
module K23 = K23_core.K23
module Asc = K23_interpose.Asc_hook

type t =
  | Native
  | Zpoline_default
  | Zpoline_ultra
  | Lazypoline
  | K23_default
  | K23_ultra
  | K23_ultra_plus
  | Sud_no_interposition  (** SUD armed, selector left on ALLOW *)
  | Sud
  | Ptrace  (** host-agent tracer, entry/exit stops (Section 2.1) *)
  | Seccomp  (** SECCOMP_RET_TRAP outside the interposer's text *)
  | Asc_hook  (** AArch64 svc->b rewriting with per-site slots (Section 8) *)

(** Every mechanism, in declaration order — the single source of truth
    for name tables, CLI converters and round-trip serialisation
    (corpus files, campaign reports).  Extending [t] without extending
    this list is caught by the exhaustive round-trip test. *)
let all =
  [
    Native;
    Zpoline_default;
    Zpoline_ultra;
    Lazypoline;
    K23_default;
    K23_ultra;
    K23_ultra_plus;
    Sud_no_interposition;
    Sud;
    Ptrace;
    Seccomp;
    Asc_hook;
  ]

(** The mechanisms that exist on [isa].  Rewriting an x86 variable-
    length instruction stream (zpoline/lazypoline/K23) has no meaning
    on AArch64 and vice versa for ASC-Hook; SUD, seccomp and ptrace
    are kernel interfaces and work on both. *)
let available ~isa =
  let open K23_isa.Isa in
  match isa with
  | X86_64 ->
    [
      Native;
      Zpoline_default;
      Zpoline_ultra;
      Lazypoline;
      K23_default;
      K23_ultra;
      K23_ultra_plus;
      Sud_no_interposition;
      Sud;
      Ptrace;
      Seccomp;
    ]
  | Arm64 -> [ Native; Asc_hook; Sud_no_interposition; Sud; Ptrace; Seccomp ]

let to_string = function
  | Native -> "native"
  | Zpoline_default -> "zpoline-default"
  | Zpoline_ultra -> "zpoline-ultra"
  | Lazypoline -> "lazypoline"
  | K23_default -> "K23-default"
  | K23_ultra -> "K23-ultra"
  | K23_ultra_plus -> "K23-ultra+"
  | Sud_no_interposition -> "SUD-no-interposition"
  | Sud -> "SUD"
  | Ptrace -> "ptrace"
  | Seccomp -> "seccomp"
  | Asc_hook -> "asc-hook"

(** Inverse of {!to_string}, case-insensitively, plus the short CLI
    aliases ["zpoline"] and ["k23"] for the default variants. *)
let of_string s =
  let ls = String.lowercase_ascii s in
  match List.find_opt (fun m -> String.lowercase_ascii (to_string m) = ls) all with
  | Some m -> Some m
  | None -> (
    match ls with
    | "zpoline" -> Some Zpoline_default
    | "k23" -> Some K23_default
    | _ -> None)

(** Table 5 rows, in the paper's order. *)
let table5_rows =
  [
    Zpoline_default;
    Zpoline_ultra;
    Lazypoline;
    K23_default;
    K23_ultra;
    K23_ultra_plus;
    Sud_no_interposition;
    Sud;
  ]

(** Table 6 columns. *)
let table6_cols =
  [ Zpoline_default; Zpoline_ultra; Lazypoline; K23_default; K23_ultra; K23_ultra_plus; Sud ]

let needs_offline = function
  | K23_default | K23_ultra | K23_ultra_plus -> true
  | Native | Zpoline_default | Zpoline_ultra | Lazypoline | Sud | Sud_no_interposition | Ptrace
  | Seccomp | Asc_hook ->
    false

(** The run prologue every measured single-app run shares: K23's
    offline phase (log [path]'s syscall sites, then seal the logs —
    the paper's Table 2 / Figure 3) when [mech] needs it, then a
    rewind of the fault schedule.  The offline phase consumes app
    syscalls a native run never makes, so the rewind makes every
    mechanism's measured run start the schedule from tick 0 — which
    is also what lets a recording replay the same fault dice as the
    live run it was taken from. *)
let prologue mech w ~path =
  if needs_offline mech then begin
    ignore (K23.offline_run w ~path ());
    K23.seal_logs w
  end;
  Kern.fault_reset w

(** Launch [path] under the mechanism.  Returns the process (and the
    interposition stats for non-native mechanisms). *)
let launch mech w ~path ?argv ?env () =
  let ok = function Ok (p, s) -> Ok (p, Some s) | Error e -> Error e in
  match mech with
  | Native -> (
    match World.spawn w ~path ?argv ?env () with Ok p -> Ok (p, None) | Error e -> Error e)
  | Zpoline_default -> ok (Zp.launch w ~variant:Zp.Default ~path ?argv ?env ())
  | Zpoline_ultra -> ok (Zp.launch w ~variant:Zp.Ultra ~path ?argv ?env ())
  | Lazypoline -> ok (Lp.launch w ~path ?argv ?env ())
  | K23_default -> ok (K23.launch w ~variant:K23.Default ~path ?argv ?env ())
  | K23_ultra -> ok (K23.launch w ~variant:K23.Ultra ~path ?argv ?env ())
  | K23_ultra_plus -> ok (K23.launch w ~variant:K23.Ultra_plus ~path ?argv ?env ())
  | Sud -> ok (Sud.launch w ~interpose_on:true ~path ?argv ?env ())
  | Sud_no_interposition -> ok (Sud.launch w ~interpose_on:false ~path ?argv ?env ())
  | Ptrace -> ok (Pt.launch w ~path ?argv ?env ())
  | Seccomp -> ok (Sc.launch w ~path ?argv ?env ())
  | Asc_hook -> ok (Asc.launch w ~path ?argv ?env ())
