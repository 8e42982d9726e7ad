(** seccomp-based interposition (Sections 1 and 8).

    Two deployment styles, mirroring how seccomp is used in practice:

    + {!launch} — SECCOMP_RET_TRAP interposition: every syscall outside
      the handler's own code range raises SIGSYS, the handler runs the
      user handler and re-issues the call.  Exhaustive (after load) and
      expressive, but it pays the full signal round trip like SUD —
      "comparable performance overheads" (Section 1).
    + {!launch_filter_only} — a pure in-kernel policy (ALLOW / ERRNO /
      KILL per syscall number, register-argument predicates).  Nearly
      free, but the interposer's expressiveness collapses: a cBPF
      filter can never dereference pointer arguments
      ("restricts the interposer's expressiveness", Section 1) and no
      user code runs per call. *)

open K23_isa
open K23_kernel
open Kern
open K23_interpose.Interpose

let lib_path = "/usr/lib/libseccomp-interposer.so"

let make_config ~handler ~stats =
  {
    cfg_name = "seccomp-trap";
    pre_cost = 120;
    post_cost = 60;
    null_check = None;
    null_check_cost = 0;
    stack_switch = false;
    sud_selector = (fun _ -> None);
    handler;
    stats;
  }

let image ?(isa = Isa.X86_64) ~handler ~stats () : image =
  let im_ref = ref None in
  let lazy_im = lazy (Option.get !im_ref) in
  let cfg = make_config ~handler ~stats in
  let init (ctx : ctx) =
    let p = ctx.thread.t_proc in
    (* SIGSYS handler *)
    (match Mapper.image_sym p (Lazy.force lazy_im) sigsys_handler_sym with
    | Some a -> Hashtbl.replace p.sig_handlers sigsys a
    | None -> panic "seccomp interposer: no handler");
    (* trap everything whose instruction pointer is outside our own
       text (so the handler's re-issued syscalls pass) *)
    let r =
      List.find
        (fun r ->
          (match r.r_image with Some i -> i == Lazy.force lazy_im | None -> false)
          && r.r_sec = `Text)
        p.regions
    in
    seccomp_install p (Bpf.trap_outside_ip_range ~lo:r.r_start ~hi:(r.r_start + r.r_len));
    charge ctx.world ctx.thread 600
  in
  let prog =
    match isa with
    | Isa.X86_64 ->
      Asm.assemble
        ([ Asm.Label "__seccomp_init"; Asm.Vcall_named "sc_init"; Asm.I Insn.Ret ]
        @ sigsys_handler_items ())
    | Isa.Arm64 ->
      let module A = K23_isa_arm.Asm_arm in
      A.assemble
        ([ A.Label "__seccomp_init"; A.Vcall_named "sc_init"; A.I K23_isa_arm.Arm.Ret ]
        @ sigsys_handler_items_arm ())
  in
  let im =
    make_image ~name:lib_path ~owner:Interposer ~init:"__seccomp_init"
      ~host_fns:
        [
          ("sc_init", init);
          ("sigsys_pre", sigsys_pre cfg ~im:lazy_im ());
          ("sigsys_post", sigsys_post cfg);
        ]
      prog
  in
  im_ref := Some im;
  im

(** TRAP-style interposition (signal-based, expressive). *)
let launch w ?inner ~path ?argv ?env () =
  launch_preloaded w ~annot:"mech:seccomp-trap" ~lib_path ~image:(image ~isa:w.isa) ?inner ~path
    ?argv ?env ()

(** Pure-filter policy: install [filters] right before main runs via a
    minimal preload whose constructor does only that.  No user handler
    ever runs — that is the point being demonstrated. *)
let launch_filter_only w ~filters ~path ?argv ?(env = []) () =
  ktrace_annot w "mech:seccomp-filter";
  let im : image =
    make_image ~name:"/usr/lib/libseccomp-policy.so" ~owner:Interposer ~init:"__policy_init"
      ~host_fns:
        [
          ( "pol_init",
            fun ctx ->
              List.iter (seccomp_install ctx.thread.t_proc) filters;
              charge ctx.world ctx.thread (600 * List.length filters) );
        ]
      (Asm.assemble [ Asm.Label "__policy_init"; Asm.Vcall_named "pol_init"; Asm.I Insn.Ret ])
  in
  register_library w im;
  let env = add_preload env im.im_name in
  World.spawn w ~path ?argv ~env ()
