(** Extension experiments beyond the paper's tables.

    - {!arm_study}: quantifies the Discussion-section claim
      (Section 7) that fixed-length ISAs make disassembly-based
      rewriting fundamentally easier: random programs with embedded
      data are swept on both ISAs, and misidentification /
      overlook rates are reported.
    - {!seccomp_micro}: the microbenchmark overhead of seccomp-based
      interposition (SECCOMP_RET_TRAP), the third Linux interface the
      paper discusses — landing, as predicted, in SUD's cost class. *)

open K23_isa
module Arm = K23_isa_arm.Arm
module Rng = K23_util.Rng

(* random x86 instruction pool (all data-free encodings) *)
let x86_pool : Insn.t array =
  [|
    Nop;
    Ret;
    Syscall;
    Mov_rr (RAX, RBX);
    Mov_rr (RDI, RSI);
    Add_ri (RSP, 8);
    Sub_ri (RSP, 8);
    Push RBP;
    Pop RBP;
    Mov_ri32 (RDX, 0x1234);
    Test_rr (RAX, RAX);
    Lea (RSI, RSP, 64);
  |]

let arm_pool : Arm.insn array =
  [|
    Arm.Nop;
    Arm.Ret;
    Arm.Svc 0;
    Arm.Movz (1, 77);
    Arm.Add_imm (2, 3, 9);
    Arm.Bl 12;
    Arm.B 3;
    Arm.Ldr_lit (4, 2);
  |]

type rates = {
  programs : int;
  true_sites : int;
  found : int;
  false_positives : int;  (** data / desync reported as syscalls (P3a) *)
  overlooked : int;  (** genuine syscalls missed (P2a) *)
}

(** One random program: [n] instructions with a blob of random data
    embedded in the code (jump-table style), then swept. *)
let x86_trial rng n =
  let insns = List.init n (fun _ -> x86_pool.(Rng.int rng (Array.length x86_pool))) in
  let data = Bytes.init 12 (fun _ -> Char.chr (Rng.int rng 256)) in
  let split = Rng.int rng (n + 1) in
  let before = List.filteri (fun i _ -> i < split) insns in
  let after = List.filteri (fun i _ -> i >= split) insns in
  let code =
    Bytes.concat Bytes.empty [ Encode.assemble before; data; Encode.assemble after ]
  in
  (* ground truth: where the real syscalls are *)
  let truth = ref [] in
  let off = ref 0 in
  List.iter
    (fun i ->
      if i = Insn.Syscall then truth := !off :: !truth;
      off := !off + Encode.length i)
    before;
  off := !off + Bytes.length data;
  List.iter
    (fun i ->
      if i = Insn.Syscall then truth := !off :: !truth;
      off := !off + Encode.length i)
    after;
  let truth = List.rev !truth in
  let found = Disasm.find_syscall_sites code ~base:0 in
  (truth, found)

let arm_trial rng n =
  let insns = List.init n (fun _ -> arm_pool.(Rng.int rng (Array.length arm_pool))) in
  let data =
    Arm.bytes_of_word (Rng.int rng 0x3fffffff lor (Rng.int rng 4 lsl 30))
  in
  let split = Rng.int rng (n + 1) in
  let before = List.filteri (fun i _ -> i < split) insns in
  let after = List.filteri (fun i _ -> i >= split) insns in
  let code = Bytes.concat Bytes.empty [ Arm.assemble before; data; Arm.assemble after ] in
  let truth = ref [] in
  List.iteri (fun i insn -> match insn with Arm.Svc _ -> truth := (4 * i) :: !truth | _ -> ()) before;
  let base_after = (4 * List.length before) + 4 in
  List.iteri
    (fun i insn ->
      match insn with Arm.Svc _ -> truth := (base_after + (4 * i)) :: !truth | _ -> ())
    after;
  let truth = List.rev !truth in
  let found = Arm.find_svc_sites code ~base:0 in
  (truth, found)

let rates_of ~programs trial =
  let rng = Rng.create ~seed:99 in
  let acc = ref { programs; true_sites = 0; found = 0; false_positives = 0; overlooked = 0 } in
  for _ = 1 to programs do
    let truth, found = trial rng 40 in
    let fp = List.filter (fun s -> not (List.mem s truth)) found in
    let missed = List.filter (fun s -> not (List.mem s found)) truth in
    acc :=
      {
        !acc with
        true_sites = !acc.true_sites + List.length truth;
        found = !acc.found + List.length found;
        false_positives = !acc.false_positives + List.length fp;
        overlooked = !acc.overlooked + List.length missed;
      }
  done;
  !acc

let arm_study ?(programs = 2000) () =
  let x86 = rates_of ~programs (fun rng n -> x86_trial rng n) in
  let arm = rates_of ~programs (fun rng n -> arm_trial rng n) in
  (x86, arm)

let render_arm_study (x86, arm) =
  let line name (r : rates) =
    Printf.sprintf
      "%-8s %6d programs  %7d real sites  %6d misidentified (P3a)  %6d overlooked (P2a)\n"
      name r.programs r.true_sites r.false_positives r.overlooked
  in
  line "x86-64" x86 ^ line "arm64" arm
  ^ "\n\
     Fixed-length decoding cannot desynchronise: the overlook class vanishes\n\
     and misidentification shrinks to exact data/instruction aliasing — the\n\
     Section 7 claim, quantified.  (An offline validation phase remains\n\
     useful on ARM: aliasing false positives are rarer, not impossible.)\n"

(* ------------------------------------------------------------------ *)

(** Seccomp's Table 5-style overhead: {!Micro.cycles_per_iter} under
    [Seccomp] against [Native], on this experiment's own seeds. *)
let seccomp_micro ?(runs = 6) () =
  let samples =
    List.init runs (fun i ->
        let seed = 4_000 + (i * 3) in
        Micro.cycles_per_iter ~mech:Mech.Seccomp ~seed
        /. Micro.cycles_per_iter ~mech:Mech.Native ~seed)
  in
  let kept = K23_util.Stats.drop_outliers samples in
  (K23_util.Stats.geomean kept, K23_util.Stats.stddev_pct kept)

let render_seccomp (overhead, std) =
  Printf.sprintf
    "seccomp-trap interposition: %.4fx (+/-%.3f%%) vs native\n\n\
     As the paper argues (Section 1), signal-based seccomp interposition\n\
     lands in SUD's cost class (~15x), an order of magnitude above the\n\
     rewriting interposers; pure in-kernel filters are cheap but cannot\n\
     dereference pointer arguments (see test/test_seccomp.ml).\n"
    overhead std
