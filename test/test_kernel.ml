(* Kernel-layer tests: VFS, network queues, syscalls, scheduler,
   tracer plumbing, SUD semantics. *)

open K23_kernel
open K23_userland
open K23_isa

(* ---------------- vfs ---------------- *)

let test_vfs_files () =
  let v = Vfs.create () in
  (match Vfs.write_file v "/a/b/c.txt" "hello" with Ok _ -> () | Error _ -> Alcotest.fail "write");
  Alcotest.(check bool) "exists" true (Vfs.exists v "/a/b/c.txt");
  (match Vfs.read_file v "/a/b/c.txt" with
  | Ok s -> Alcotest.(check string) "content" "hello" s
  | Error _ -> Alcotest.fail "read");
  (match Vfs.rename v "/a/b/c.txt" "/a/d.txt" with Ok () -> () | Error _ -> Alcotest.fail "rename");
  Alcotest.(check bool) "old gone" false (Vfs.exists v "/a/b/c.txt");
  (match Vfs.unlink v "/a/d.txt" with Ok () -> () | Error _ -> Alcotest.fail "unlink");
  Alcotest.(check bool) "unlinked" false (Vfs.exists v "/a/d.txt")

let test_vfs_immutable () =
  let v = Vfs.create () in
  ignore (Vfs.write_file v "/logs/app.log" "data");
  (match Vfs.set_immutable v "/logs" true with Ok () -> () | Error _ -> Alcotest.fail "seal");
  (match Vfs.write_file v "/logs/app.log" "evil" with
  | Error `Perm -> ()
  | _ -> Alcotest.fail "write through immutable dir must fail");
  (match Vfs.unlink v "/logs/app.log" with
  | Error `Perm -> ()
  | _ -> Alcotest.fail "unlink through immutable dir must fail");
  (match Vfs.rename v "/logs/app.log" "/tmp/x" with
  | Error `Perm -> ()
  | _ -> Alcotest.fail "rename out of immutable dir must fail")

let test_vfs_listdir () =
  let v = Vfs.create () in
  ignore (Vfs.write_file v "/d/a" "1");
  ignore (Vfs.write_file v "/d/b" "2");
  match Vfs.listdir v "/d" with
  | Ok l -> Alcotest.(check (list string)) "entries" [ "a"; "b" ] l
  | Error _ -> Alcotest.fail "listdir"

(* ---------------- net ---------------- *)

let test_byteq_framing () =
  let q = Net.Byteq.create () in
  Net.Byteq.push q (Bytes.make 64 'a');
  Net.Byteq.push q (Bytes.make 64 'b');
  let first = Net.Byteq.pop q 64 in
  Alcotest.(check int) "frame size" 64 (Bytes.length first);
  Alcotest.(check char) "first frame" 'a' (Bytes.get first 0);
  let second = Net.Byteq.pop q 200 in
  Alcotest.(check int) "drains rest" 64 (Bytes.length second);
  Alcotest.(check char) "second frame" 'b' (Bytes.get second 0)

let test_byteq_partial_pop () =
  let q = Net.Byteq.create () in
  Net.Byteq.push q (Bytes.of_string "abcdef");
  Alcotest.(check string) "first 3" "abc" (Bytes.to_string (Net.Byteq.pop q 3));
  Alcotest.(check string) "rest" "def" (Bytes.to_string (Net.Byteq.pop q 100));
  Alcotest.(check int) "empty" 0 (Net.Byteq.length q)

let prop_byteq =
  QCheck.Test.make ~name:"byteq preserves byte order" ~count:300
    QCheck.(list (string_of_size (QCheck.Gen.int_range 0 20)))
    (fun chunks ->
      let q = Net.Byteq.create () in
      List.iter (fun c -> Net.Byteq.push q (Bytes.of_string c)) chunks;
      let out = Buffer.create 64 in
      let rec drain () =
        let b = Net.Byteq.pop q 7 in
        if Bytes.length b > 0 then begin
          Buffer.add_bytes out b;
          drain ()
        end
      in
      drain ();
      Buffer.contents out = String.concat "" chunks)

let test_listener_backlog () =
  let n = Net.create () in
  (match Net.listen n 80 with Ok _ -> () | Error _ -> Alcotest.fail "listen");
  (match Net.listen n 80 with Error `Addrinuse -> () | _ -> Alcotest.fail "EADDRINUSE");
  (match Net.connect n 81 with Error `Refused -> () | _ -> Alcotest.fail "refused");
  match Net.connect n 80 with
  | Error `Refused -> Alcotest.fail "connect"
  | Ok c ->
    let l = Hashtbl.find n.listeners 80 in
    (match Net.accept l with
    | Some c' -> Alcotest.(check int) "same conn" c.conn_id c'.conn_id
    | None -> Alcotest.fail "accept");
    Alcotest.(check bool) "backlog drained" true (Net.accept l = None)

(* the two-list backlog against a Queue.t model: random interleavings
   of connect/accept must agree on order, depth, and contents *)
let prop_backlog_fifo =
  QCheck.Test.make ~name:"listener backlog is FIFO (Queue model)" ~count:300
    QCheck.(list bool)
    (fun ops ->
      let n = Net.create () in
      (match Net.listen n 7 with Ok _ -> () | Error _ -> assert false);
      let l = Hashtbl.find n.listeners 7 in
      let model : int Queue.t = Queue.create () in
      List.for_all
        (fun is_connect ->
          if is_connect then (
            match Net.connect n 7 with
            | Ok c ->
              Queue.add c.Net.conn_id model;
              Net.backlog_length l = Queue.length model
            | Error `Refused -> false)
          else
            match (Net.accept l, Queue.take_opt model) with
            | None, None -> true
            | Some c, Some id ->
              c.Net.conn_id = id && Net.backlog_length l = Queue.length model
            | _ -> false)
        ops)

(* ---------------- syscalls via boot ---------------- *)

let run_app items =
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/t" items);
  let p = Sim.run_to_exit w ~path:"/bin/t" () in
  (w, p)

let test_pipe_syscall () =
  (* pipe, write into it, read back, exit with the byte read *)
  let items =
    [
      Asm.Label "main";
      Asm.Mov_sym (RDI, "fds");
      Asm.Call_sym "pipe";
      Asm.Mov_sym (R9, "fds");
      Asm.I (Insn.Load (R14, R9, 0));  (* read fd *)
      Asm.I (Insn.Load (R13, R9, 8));  (* write fd *)
      Asm.I (Insn.Mov_rr (RDI, R13));
      Asm.Mov_sym (RSI, "payload");
      Asm.I (Insn.Mov_ri (RDX, 1));
      Asm.Call_sym "write";
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.Mov_sym (RSI, "buf");
      Asm.I (Insn.Mov_ri (RDX, 1));
      Asm.Call_sym "read";
      Asm.Mov_sym (R9, "buf");
      Asm.I (Insn.Load8 (RDI, R9, 0));
      Asm.Call_sym "exit";
      Asm.Section `Data;
      Asm.Label "fds";
      Asm.Zeros 16;
      Asm.Label "payload";
      Asm.Strz "*";
      Asm.Label "buf";
      Asm.Zeros 8;
    ]
  in
  let _, p = run_app items in
  Alcotest.(check (option int)) "read byte back" (Some (Char.code '*')) p.exit_status

let test_brk_and_heap () =
  (* malloc via libc host allocator, store + load through the pointer *)
  let items =
    [
      Asm.Label "main";
      Asm.I (Insn.Mov_ri (RDI, 64));
      Asm.Call_sym "malloc";
      Asm.I (Insn.Mov_rr (R14, RAX));
      Asm.I (Insn.Mov_ri (RAX, 123));
      Asm.I (Insn.Store (R14, 0, RAX));
      Asm.I (Insn.Load (RDI, R14, 0));
      Asm.Call_sym "exit";
    ]
  in
  let _, p = run_app items in
  Alcotest.(check (option int)) "heap roundtrip" (Some 123) p.exit_status

let test_proc_maps_readable () =
  (* the app reads its own /proc/self/maps — the interface libLogger
     uses *)
  let items =
    [
      Asm.Label "main";
      Asm.I (Insn.Mov_ri (RDI, -100));
      Asm.Mov_sym (RSI, "mapsp");
      Asm.I (Insn.Mov_ri (RDX, 0));
      Asm.Call_sym "openat";
      Asm.I (Insn.Mov_rr (R14, RAX));
      Asm.I (Insn.Mov_rr (RDI, R14));
      Asm.Mov_sym (RSI, "buf");
      Asm.I (Insn.Mov_ri (RDX, 3000));
      Asm.Call_sym "read";
      Asm.I (Insn.Mov_rr (RDI, RAX));  (* exit status = bytes read > 0 *)
      Asm.I (Insn.Cmp_ri (RDI, 0));
      Asm.Jc (Insn.GT, "ok");
      Asm.I (Insn.Mov_ri (RDI, 1));
      Asm.Call_sym "exit";
      Asm.Label "ok";
      Asm.I (Insn.Xor_rr (RDI, RDI));
      Asm.Call_sym "exit";
      Asm.Section `Data;
      Asm.Label "mapsp";
      Asm.Strz "/proc/self/maps";
      Asm.Label "buf";
      Asm.Zeros 4096;
    ]
  in
  let _, p = run_app items in
  Alcotest.(check (option int)) "read maps" (Some 0) p.exit_status

(* ---------------- SUD semantics ---------------- *)

let test_sud_selector_and_allowlist () =
  let w = Sim.create_world () in
  ignore (Sim.register_app w ~path:"/bin/t" [ Asm.Label "main"; Asm.I (Insn.Xor_rr (RDI, RDI)); Asm.Call_sym "exit" ]);
  let p = Sim.run_to_exit w ~path:"/bin/t" () in
  let th = List.hd p.threads in
  (* craft SUD state manually against the dead process image *)
  K23_machine.Memory.map p.mem ~addr:0x6000_0000 ~len:4096 ~perm:K23_machine.Memory.perm_rw;
  th.sud <- Some { sel_addr = 0x6000_0000; allow_lo = 0x7000; allow_hi = 0x8000 };
  K23_machine.Memory.write_u8_raw p.mem (Kern.selector_slot th 0x6000_0000) 1;
  Alcotest.(check bool) "blocks outside allowlist" true (Kern.sud_blocks th ~site:0x1000);
  Alcotest.(check bool) "bypasses inside allowlist" false (Kern.sud_blocks th ~site:0x7800);
  K23_machine.Memory.write_u8_raw p.mem (Kern.selector_slot th 0x6000_0000) 0;
  Alcotest.(check bool) "selector ALLOW passes" false (Kern.sud_blocks th ~site:0x1000)

(* ---------------- stats helpers ---------------- *)

(* hlt is privileged: in user mode it is a #GP, delivered as SIGSEGV,
   never a host-side panic *)
let test_user_hlt_segv () =
  let _, p = run_app [ Asm.Label "main"; Asm.I Insn.Hlt ] in
  Alcotest.(check (option int)) "killed by SIGSEGV" (Some 11) p.Kern.term_signal

let test_stats_drop_outliers () =
  let open K23_util.Stats in
  Alcotest.(check (list (float 0.001))) "drops min and max" [ 2.0; 3.0 ]
    (drop_outliers [ 3.0; 1.0; 2.0; 9.0 ]);
  Alcotest.(check (float 0.0001)) "geomean" 2.0 (geomean [ 1.0; 4.0 ]);
  Alcotest.(check (float 0.0001)) "mean" 2.0 (mean [ 1.0; 2.0; 3.0 ])

let tests =
  ( "kernel",
    [
      Alcotest.test_case "vfs files" `Quick test_vfs_files;
      Alcotest.test_case "vfs immutable (log sealing)" `Quick test_vfs_immutable;
      Alcotest.test_case "vfs listdir" `Quick test_vfs_listdir;
      Alcotest.test_case "byteq framing" `Quick test_byteq_framing;
      Alcotest.test_case "byteq partial pop" `Quick test_byteq_partial_pop;
      QCheck_alcotest.to_alcotest prop_byteq;
      Alcotest.test_case "listener backlog" `Quick test_listener_backlog;
      QCheck_alcotest.to_alcotest prop_backlog_fifo;
      Alcotest.test_case "pipe syscalls" `Quick test_pipe_syscall;
      Alcotest.test_case "heap allocation" `Quick test_brk_and_heap;
      Alcotest.test_case "/proc/self/maps" `Quick test_proc_maps_readable;
      Alcotest.test_case "SUD selector + allowlist" `Quick test_sud_selector_and_allowlist;
      Alcotest.test_case "user-mode hlt is SIGSEGV" `Quick test_user_hlt_segv;
      Alcotest.test_case "stats helpers" `Quick test_stats_drop_outliers;
    ] )
