(** Plain Syscall User Dispatch interposition (Section 2.1).

    Exhaustive (after its library loads) and fully expressive, but
    every interposed system call pays signal delivery + handler +
    re-issued syscall + rt_sigreturn — the ~15x microbenchmark
    overhead of Table 5 and the throughput collapse of Table 6. *)

open K23_isa
open K23_kernel
open Kern
open K23_interpose.Interpose

let lib_path = "/usr/lib/libsud.so"

let make_config ~handler ~stats ~selector =
  {
    cfg_name = "sud";
    pre_cost = 120;  (* handler prologue/epilogue work measured on real SUD *)
    post_cost = 60;
    null_check = None;
    null_check_cost = 0;
    stack_switch = false;
    sud_selector = selector;
    handler;
    stats;
  }

let image ?(interpose_on = true) ?(isa = Isa.X86_64) ~handler ~stats () : image =
  let im_ref = ref None in
  let lazy_im = lazy (Option.get !im_ref) in
  let selector p = Mapper.image_sym p (Lazy.force lazy_im) "sud_selector" in
  let cfg = make_config ~handler ~stats ~selector in
  let init (ctx : ctx) =
    let p = ctx.thread.t_proc in
    let sel_addr = arm_sud ctx ~im:(Lazy.force lazy_im) ~selector_sym:"sud_selector" in
    (* [interpose_on = false] gives the paper's "SUD-no-interposition"
       configuration: SUD initialised, selector left on ALLOW, so only
       the kernel slow path is measured *)
    set_selector_all_slots p ~sel_addr (if interpose_on then selector_block else selector_allow)
  in
  let prog =
    match isa with
    | Isa.X86_64 ->
      Asm.assemble
        ([ Asm.Label "__sud_init"; Asm.Vcall_named "sud_init"; Asm.I Insn.Ret ]
        @ sigsys_handler_items ()
        @ [ Asm.Section `Data; Asm.Label "sud_selector"; Asm.Zeros 64 ])
    | Isa.Arm64 ->
      let module A = K23_isa_arm.Asm_arm in
      A.assemble
        ([ A.Label "__sud_init"; A.Vcall_named "sud_init"; A.I K23_isa_arm.Arm.Ret ]
        @ sigsys_handler_items_arm ()
        @ [ A.Section `Data; A.Label "sud_selector"; A.Zeros 64 ])
  in
  let im =
    make_image ~name:lib_path ~owner:Interposer ~init:"__sud_init"
      ~host_fns:
        [
          ("sud_init", init);
          ("sigsys_pre", sigsys_pre cfg ~im:lazy_im ());
          ("sigsys_post", sigsys_post cfg);
        ]
      prog
  in
  im_ref := Some im;
  im

let launch w ?(interpose_on = true) ?inner ~path ?argv ?env () =
  launch_preloaded w
    ~annot:(if interpose_on then "mech:sud" else "mech:sud-nointerpose")
    ~lib_path ~image:(image ~interpose_on ~isa:w.isa) ?inner ~path ?argv ?env ()
