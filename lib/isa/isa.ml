(** The ISA as a first-class, pure-data parameter.

    Everything that describes a world — [World.Config], corpus
    entries, recordings — carries one of these.  It is a plain variant
    (no functions, no modules) so structural equality and the text
    wire formats keep working unchanged;
    behavioural dispatch happens with [match] at the few ABI seams
    (fetch/step, syscall register convention, signal frame layout)
    rather than through a first-class module.

    Conventions per backend:
    - {!X86_64}: variable-length insns, [syscall] = [0f 05], nr in
      rax, args rdi/rsi/rdx/r10/r8/r9, ret in rax.  Registers 0..15.
    - {!Arm64}: fixed 4-byte insns, [svc #0], nr in x8, args x0..x5,
      ret in x0.  Registers 0..30 plus sp at index 31. *)

type t = X86_64 | Arm64

let all = [ X86_64; Arm64 ]

let to_string = function X86_64 -> "x86-64" | Arm64 -> "arm64"

let of_string = function
  | "x86-64" | "x86_64" | "x86" | "amd64" -> Some X86_64
  | "arm64" | "aarch64" | "arm" -> Some Arm64
  | _ -> None

let equal (a : t) (b : t) = a = b

(** The [("isa", name)] field that the text artifacts (corpus repros,
    recordings, campaign reports) carry: empty on x86, so every file
    and report written before the ARM backend stays byte-identical. *)
let fields = function X86_64 -> [] | isa -> [ ("isa", to_string isa) ]

(** Bytes occupied by the host-escape [Vcall] pseudo-instruction:
    6 on x86 (0f 1f /0 imm16-style), one word on arm64 (hlt-space). *)
let vcall_len = function X86_64 -> 6 | Arm64 -> 4

(** Index of the syscall-number register in the flat GPR file. *)
let nr_index = function X86_64 -> 0 (* rax *) | Arm64 -> 8 (* x8 *)

(** Indices of the six syscall argument registers, ABI order. *)
let arg_indices = function
  | X86_64 -> [| 7; 6; 2; 10; 8; 9 |] (* rdi rsi rdx r10 r8 r9 *)
  | Arm64 -> [| 0; 1; 2; 3; 4; 5 |] (* x0..x5 *)

(** Index of the stack pointer. *)
let sp_index = function X86_64 -> 4 (* rsp *) | Arm64 -> 31 (* sp *)

(** Indices of the first three signal-handler argument registers
    (signo, site, sysno): rdi/rsi/rdx on x86, x0/x1/x2 on arm64. *)
let sig_arg_indices = function X86_64 -> [| 7; 6; 2 |] | Arm64 -> [| 0; 1; 2 |]

(** The AUDIT_ARCH_* value seccomp filters see in [seccomp_data.arch]. *)
let audit_arch = function
  | X86_64 -> 0xc000003e (* AUDIT_ARCH_X86_64 *)
  | Arm64 -> 0xc00000b7 (* AUDIT_ARCH_AARCH64 *)
