(* Machine-layer tests: memory, PKU/XOM, I-cache, CPU semantics. *)

open K23_machine
open K23_isa

(* ---------------- memory ---------------- *)

let test_map_read_write () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  Memory.write_u8_raw m 0x1234 0xab;
  Alcotest.(check int) "byte" 0xab (Memory.read_u8_raw m 0x1234);
  Memory.write_u64_raw m 0x1100 0xdeadbeef;
  Alcotest.(check int) "u64" 0xdeadbeef (Memory.read_u64_raw m 0x1100)

let test_unmapped_faults () =
  let m = Memory.create () in
  Alcotest.check_raises "read fault"
    (Memory.Fault { fault_addr = 0x9000; access = `Read })
    (fun () -> ignore (Memory.read_u8_raw m 0x9000))

let test_perm_checks () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_r;
  Alcotest.(check int) "read ok" 0 (Memory.read_u8 m ~pkru:0 0x1000);
  Alcotest.check_raises "write faults"
    (Memory.Fault { fault_addr = 0x1000; access = `Write })
    (fun () -> Memory.write_u8 m ~pkru:0 0x1000 1);
  Memory.set_perm m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  Memory.write_u8 m ~pkru:0 0x1000 1;
  Alcotest.(check int) "after mprotect" 1 (Memory.read_u8 m ~pkru:0 0x1000)

(* XOM via PKU: data reads blocked, instruction fetch allowed — the
   property both trampolines rely on (and the hole of P4a). *)
let test_pku_xom () =
  let m = Memory.create () in
  Memory.map m ~addr:0 ~len:4096 ~perm:Memory.perm_rx ~pkey:1;
  let pkru = 1 lsl 2 (* AD for key 1 *) in
  Alcotest.check_raises "PKU blocks data read"
    (Memory.Fault { fault_addr = 0; access = `Read })
    (fun () -> ignore (Memory.read_u8 m ~pkru 0));
  (* fetch is NOT blocked by PKU *)
  Alcotest.(check int) "fetch allowed" 0 (Memory.fetch_u8 m 0)

let test_fetch_needs_exec () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  Alcotest.check_raises "NX fetch faults"
    (Memory.Fault { fault_addr = 0x1000; access = `Exec })
    (fun () -> ignore (Memory.fetch_u8 m 0x1000))

(* clone shares page buffers copy-on-write: a write on either side
   must stay invisible to the other *)
let test_clone_is_deep () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:8192 ~perm:Memory.perm_rw;
  Memory.write_u8_raw m 0x1000 7;
  Memory.write_u64_raw m 0x2000 22;
  let c = Memory.clone m in
  Memory.write_u8_raw m 0x1000 9;
  Alcotest.(check int) "clone unaffected" 7 (Memory.read_u8_raw c 0x1000);
  Memory.write_u64 c ~pkru:0 0x2000 99;
  Alcotest.(check int) "clone sees its write" 99 (Memory.read_u64_raw c 0x2000);
  Alcotest.(check int) "parent unaffected" 22 (Memory.read_u64_raw m 0x2000)

let test_cstr_roundtrip () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  Memory.write_cstr m 0x1500 "hello";
  Alcotest.(check string) "cstr" "hello" (Memory.read_cstr m 0x1500)

let test_reservation_accounting () =
  let m = Memory.create () in
  Memory.reserve m ~len:(1 lsl 45);
  Alcotest.(check int) "reserved" (1 lsl 45) (Memory.reserved_bytes m);
  Alcotest.(check int) "not committed" 0 (Memory.committed_bytes m)

let prop_memory_bytes =
  QCheck.Test.make ~name:"memory: write/read byte roundtrip" ~count:500
    QCheck.(pair (int_range 0 4095) (int_range 0 255))
    (fun (off, v) ->
      let m = Memory.create () in
      Memory.map m ~addr:0x2000 ~len:4096 ~perm:Memory.perm_rw;
      Memory.write_u8_raw m (0x2000 + off) v;
      Memory.read_u8_raw m (0x2000 + off) = v)

(* The single-lookup word fast path must leave the same byte image and
   read back the same value as the definitional little-endian byte
   loop, at every offset including page straddles. *)
let prop_memory_u64 =
  QCheck.Test.make ~name:"memory: u64 word path == byte loop" ~count:500
    QCheck.(pair (int_range 0 8184) int)
    (fun (off, v) ->
      let m = Memory.create () in
      Memory.map m ~addr:0x2000 ~len:8192 ~perm:Memory.perm_rw;
      let addr = 0x2000 + off in
      Memory.write_u64 m ~pkru:0 addr v;
      let byte i = Memory.read_u8_raw m (addr + i) in
      let bytes_ok = ref true in
      for i = 0 to 7 do
        if byte i <> (v lsr (8 * i)) land 0xff then bytes_ok := false
      done;
      !bytes_ok && Memory.read_u64 m ~pkru:0 addr = v && Memory.read_u64_raw m addr = v)

let test_unmap_accounting () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:8192 ~perm:Memory.perm_rw;
  Alcotest.(check int) "committed" 8192 (Memory.committed_bytes m);
  Alcotest.(check int) "reserved" 8192 (Memory.reserved_bytes m);
  (* the range covers two mapped and two unmapped pages: only the
     mapped ones may be deducted *)
  Memory.unmap m ~addr:0x0 ~len:16384;
  Alcotest.(check int) "committed after unmap" 0 (Memory.committed_bytes m);
  Alcotest.(check int) "reserved after unmap" 0 (Memory.reserved_bytes m);
  (* unmapping an already-unmapped range must be a no-op, not drive
     the counters negative *)
  Memory.unmap m ~addr:0x0 ~len:16384;
  Alcotest.(check int) "committed stays 0" 0 (Memory.committed_bytes m);
  Alcotest.(check int) "reserved stays 0" 0 (Memory.reserved_bytes m);
  (* MAP_FIXED over mapped pages must not count them twice, or the
     single unmap below would leak the reservation *)
  Memory.map m ~addr:0x1000 ~len:8192 ~perm:Memory.perm_rw;
  Memory.map m ~addr:0x1000 ~len:8192 ~perm:Memory.perm_rw;
  Alcotest.(check int) "remap committed once" 8192 (Memory.committed_bytes m);
  Alcotest.(check int) "remap reserved once" 8192 (Memory.reserved_bytes m);
  Memory.unmap m ~addr:0x1000 ~len:8192;
  Alcotest.(check int) "committed after remap+unmap" 0 (Memory.committed_bytes m);
  Alcotest.(check int) "reserved after remap+unmap" 0 (Memory.reserved_bytes m)

let test_tlb_unmap_faults () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  Memory.write_u64 m ~pkru:0 0x1100 42;
  Alcotest.(check int) "read back" 42 (Memory.read_u64 m ~pkru:0 0x1100);
  Memory.unmap m ~addr:0x1000 ~len:4096;
  Alcotest.check_raises "fault after unmap (TLB flushed)"
    (Memory.Fault { fault_addr = 0x1100; access = `Read })
    (fun () -> ignore (Memory.read_u64 m ~pkru:0 0x1100))

let test_tlb_remap_fresh () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  Memory.write_u64 m ~pkru:0 0x1100 42;
  ignore (Memory.read_u64 m ~pkru:0 0x1100);
  (* MAP_FIXED remap replaces the page record: the TLB must not keep
     serving the old one *)
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  Alcotest.(check int) "fresh zeroed page" 0 (Memory.read_u64 m ~pkru:0 0x1100)

let test_tlb_mprotect_immediate () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  Memory.write_u64 m ~pkru:0 0x1000 7;
  (* perm change mutates the cached page record in place; the next
     access must see it even on a TLB hit *)
  Memory.set_perm m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_r;
  Alcotest.check_raises "write faults after mprotect"
    (Memory.Fault { fault_addr = 0x1000; access = `Write })
    (fun () -> Memory.write_u64 m ~pkru:0 0x1000 9);
  Alcotest.(check int) "value intact" 7 (Memory.read_u64 m ~pkru:0 0x1000);
  (* same for pkey changes vs the caller's PKRU *)
  Memory.set_pkey m ~addr:0x1000 ~len:4096 ~pkey:1;
  Alcotest.check_raises "PKU read fault after pkey_mprotect"
    (Memory.Fault { fault_addr = 0x1000; access = `Read })
    (fun () -> ignore (Memory.read_u64 m ~pkru:(1 lsl 2) 0x1000))

let test_u64_straddle_fault_addr () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  (* word at 0x1ffc spills into the unmapped page at 0x2000: the fault
     must name the first inaccessible byte, as the byte loop did *)
  Alcotest.check_raises "straddle write fault at 0x2000"
    (Memory.Fault { fault_addr = 0x2000; access = `Write })
    (fun () -> Memory.write_u64 m ~pkru:0 0x1ffc 1);
  Alcotest.check_raises "straddle read fault at 0x2000"
    (Memory.Fault { fault_addr = 0x2000; access = `Read })
    (fun () -> ignore (Memory.read_u64 m ~pkru:0 0x1ffc))

(* Range copies against the byte-at-a-time definition.  Three pages at
   [range_base], optionally with the middle one unmapped; the reference
   is a flat array plus the set of mapped pages, copied one byte at a
   time until the first unmapped byte. *)
let range_base = 0x10000

let prop_memory_range_copy =
  QCheck.Test.make ~name:"memory: range copies == byte loop" ~count:500
    QCheck.(quad (int_range 0 8191) (int_range 1 (3 * 4096)) bool bool)
    (fun (off, len, hole, prefill) ->
      let len = min len ((3 * 4096) - off) in
      let addr = range_base + off in
      let mapped a = (not hole) || a lsr 12 <> (range_base lsr 12) + 1 in
      let m = Memory.create () in
      Memory.map m ~addr:range_base ~len:(3 * 4096) ~perm:Memory.perm_rw;
      if hole then Memory.unmap m ~addr:(range_base + 4096) ~len:4096;
      let model = Array.make (3 * 4096) 0 in
      if prefill then
        for i = 0 to (3 * 4096) - 1 do
          if mapped (range_base + i) then begin
            model.(i) <- ((i * 7) + 3) land 0xff;
            Memory.write_u8_raw m (range_base + i) model.(i)
          end
        done;
      let data = Bytes.init len (fun i -> Char.chr (((i * 131) + off) land 0xff)) in
      (* the byte loop: the first unmapped byte faults *)
      let fault =
        let rec first i =
          if i = len then None else if mapped (addr + i) then first (i + 1) else Some (addr + i)
        in
        first 0
      in
      let read_ok =
        match (Memory.read_bytes_raw m addr len, fault) with
        | got, None -> Bytes.equal got (Bytes.init len (fun i -> Char.chr model.(off + i)))
        | _, Some _ -> false
        | exception Memory.Fault f -> fault = Some f.fault_addr && f.access = `Read
      in
      let written = match fault with None -> len | Some a -> a - addr in
      for i = 0 to written - 1 do
        model.(off + i) <- Char.code (Bytes.get data i)
      done;
      let write_ok =
        match Memory.write_bytes_raw m addr data with
        | () -> fault = None
        | exception Memory.Fault f -> fault = Some f.fault_addr && f.access = `Write
      in
      let image_ok = ref true in
      for i = 0 to (3 * 4096) - 1 do
        if mapped (range_base + i) && Memory.read_u8_raw m (range_base + i) <> model.(i) then
          image_ok := false
      done;
      read_ok && write_ok && !image_ok)

(* --- copy-on-write: fork-shared and zero-backed pages (clone
   isolation itself is "clone is deep" above) --- *)

let test_cow_clone_of_clone () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:8192 ~perm:Memory.perm_rw;
  Memory.write_bytes_raw m 0x1000 (Bytes.of_string "base");
  let c1 = Memory.clone m in
  let c2 = Memory.clone c1 in
  Memory.write_bytes_raw c1 0x1000 (Bytes.of_string "one");
  Memory.write_u32_raw c2 0x1000 0x6f777400;
  let s mem = Bytes.to_string (Memory.read_bytes_raw mem 0x1000 4) in
  Alcotest.(check string) "original" "base" (s m);
  Alcotest.(check string) "first clone" "onee" (s c1);
  Alcotest.(check string) "second clone" "\000two" (s c2);
  Memory.write_u8_raw m 0x2000 5;
  List.iter
    (fun mem -> Alcotest.(check int) "untouched shared page" 0 (Memory.read_u8_raw mem 0x2000))
    [ c1; c2 ];
  Alcotest.(check int) "original's write" 5 (Memory.read_u8_raw m 0x2000)

let test_cow_set_perm_one_side () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  Memory.write_u8_raw m 0x1000 1;
  let c = Memory.clone m in
  Memory.set_perm c ~addr:0x1000 ~len:4096 ~perm:Memory.perm_r;
  Alcotest.check_raises "child is read-only"
    (Memory.Fault { fault_addr = 0x1000; access = `Write })
    (fun () -> Memory.write_u8 c ~pkru:0 0x1000 2);
  Memory.write_u8 m ~pkru:0 0x1000 3;
  Alcotest.(check (option string)) "parent keeps rw" (Some "rw-")
    (Option.map Memory.perm_to_string (Memory.get_perm m 0x1000));
  Alcotest.(check int) "parent wrote" 3 (Memory.read_u8 m ~pkru:0 0x1000);
  Alcotest.(check int) "child unchanged" 1 (Memory.read_u8 c ~pkru:0 0x1000)

(* Every write path on a zero-backed page takes a private copy: a page
   mapped afterwards, here or in another memory, still reads zeros. *)
let test_cow_zero_page_stays_zero () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:(6 * 4096) ~perm:Memory.perm_rw;
  Memory.write_u8 m ~pkru:0 0x1000 1;
  Memory.write_u8_raw m 0x2008 2;
  Memory.write_u64 m ~pkru:0 0x3010 3;
  Memory.write_u64_raw m 0x4018 4;
  Memory.write_u32_raw m 0x5020 5;
  Memory.write_bytes_raw m 0x6028 (Bytes.make 8 '\006');
  let zeros = Bytes.make 4096 '\000' in
  Memory.map m ~addr:0x8000 ~len:4096 ~perm:Memory.perm_rw;
  Alcotest.(check bool) "fresh page reads zeros" true
    (Bytes.equal zeros (Memory.read_bytes_raw m 0x8000 4096));
  let other = Memory.create () in
  Memory.map other ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rw;
  Alcotest.(check bool) "another memory's fresh page reads zeros" true
    (Bytes.equal zeros (Memory.read_bytes_raw other 0x1000 4096));
  Alcotest.(check (list int)) "each write landed" [ 1; 2; 3; 4; 5; 6 ]
    [
      Memory.read_u8_raw m 0x1000;
      Memory.read_u8_raw m 0x2008;
      Memory.read_u64_raw m 0x3010;
      Memory.read_u64_raw m 0x4018;
      Memory.read_u32_raw m 0x5020;
      Memory.read_u8_raw m 0x602f;
    ]

(* An image segment is mapped by pointing page records at its buffers;
   to every reader and to the accounting it is [map] then
   [write_bytes_raw] of its string.  Pages of [zero_mask] are all zero
   (the segment shares the zero page there), the last page may be
   partial, the mapping may extend past the segment, and [premap] maps
   and dirties part of the range first (MAP_FIXED over live pages). *)
let prop_segment_map =
  QCheck.Test.make ~name:"memory: map_segment == map + write_bytes_raw" ~count:300
    QCheck.(quad (int_range 0 (3 * 4096)) (int_range 0 7) bool (int_range 0 2))
    (fun (len, zero_mask, premap, extra) ->
      let base = 0x20000 in
      let s =
        String.init len (fun i ->
            if zero_mask land (1 lsl (i / 4096)) <> 0 then '\000'
            else Char.chr (((i * 131) + len) land 0xff))
      in
      let map_len = max 1 len + (extra * 4096) in
      let prepare () =
        let m = Memory.create () in
        if premap then begin
          Memory.map m ~addr:(base - 4096) ~len:(3 * 4096) ~perm:Memory.perm_rw;
          Memory.write_bytes_raw m (base - 8) (Bytes.make 4100 '\255')
        end;
        m
      in
      let by_write = prepare () and by_segment = prepare () in
      Memory.map by_write ~addr:base ~len:map_len ~perm:Memory.perm_rx;
      Memory.write_bytes_raw by_write base (Bytes.of_string s);
      Memory.map_segment by_segment ~addr:base ~len:map_len ~perm:Memory.perm_rx
        (Memory.segment_of_string s);
      let lo = if premap then base - 4096 else base in
      let hi = Memory.align_up (base + map_len) in
      let view m = (Memory.read_bytes_raw m lo (hi - lo), Memory.get_perm m base) in
      view by_write = view by_segment
      && Memory.committed_bytes by_write = Memory.committed_bytes by_segment
      && Memory.reserved_bytes by_write = Memory.reserved_bytes by_segment)

(* Every write path, and fork, on pages mapped from a segment takes a
   private copy: a second memory mapping the same segment, and any
   later mapping of it, still read the source string. *)
let test_segment_never_written () =
  let s = String.init (2 * 4096) (fun i -> Char.chr ((i mod 251) + 1)) in
  let seg = Memory.segment_of_string s in
  let mapped () =
    let m = Memory.create () in
    Memory.map_segment m ~addr:0x1000 ~len:(String.length s) ~perm:Memory.perm_rw seg;
    m
  in
  let contents m = Bytes.to_string (Memory.read_bytes_raw m 0x1000 (String.length s)) in
  let reads_source what m = Alcotest.(check string) what s (contents m) in
  let other = mapped () in
  let writes =
    [
      ("write_u8", fun m -> Memory.write_u8 m ~pkru:0 0x1000 0);
      ("write_u8_raw", fun m -> Memory.write_u8_raw m 0x1ff8 0);
      ("write_u64", fun m -> Memory.write_u64 m ~pkru:0 0x1ffc 0);
      ("write_u64_raw", fun m -> Memory.write_u64_raw m 0x2010 0);
      ("write_u32_raw", fun m -> Memory.write_u32_raw m 0x2020 0);
      ("write_bytes_raw", fun m -> Memory.write_bytes_raw m 0x1ff0 (Bytes.make 32 '\000'));
      ( "clone",
        fun m ->
          let c = Memory.clone m in
          Memory.write_u64_raw c 0x1000 0;
          Memory.write_u64_raw m 0x2000 0 );
    ]
  in
  List.iter
    (fun (what, write) ->
      let m = mapped () in
      write m;
      Alcotest.(check bool) (what ^ " landed") false (String.equal s (contents m));
      reads_source (what ^ ": other memory unchanged") other;
      reads_source (what ^ ": fresh mapping unchanged") (mapped ()))
    writes

let test_cow_straddling_u64 () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:8192 ~perm:Memory.perm_rw;
  Memory.write_u64_raw m 0x1ff8 0x1111_1111_1111_1111;
  Memory.write_u64_raw m 0x2000 0x2222_2222_2222_2222;
  let c = Memory.clone m in
  Memory.write_u64 m ~pkru:0 0x1ffc 0x0102_0304_0506_0708;
  Alcotest.(check int) "parent reads the straddling word" 0x0102_0304_0506_0708
    (Memory.read_u64 m ~pkru:0 0x1ffc);
  Alcotest.(check int) "child's first page unchanged" 0x1111_1111_1111_1111
    (Memory.read_u64_raw c 0x1ff8);
  Alcotest.(check int) "child's second page unchanged" 0x2222_2222_2222_2222
    (Memory.read_u64_raw c 0x2000)

(* ---------------- icache ---------------- *)

let test_icache_caches_stale () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rx;
  Memory.write_u8_raw m 0x1000 0x90;
  let ic = Icache.create () in
  Alcotest.(check int) "first fetch" 0x90 (Icache.fetch_u8 ic m 0x1000);
  (* an uncoordinated raw write is invisible through the cache *)
  Memory.write_u8_raw m 0x1000 0xc3;
  Alcotest.(check int) "stale without invalidate" 0x90 (Icache.fetch_u8 ic m 0x1000);
  Icache.invalidate_range ic ~addr:0x1000 ~len:1;
  Alcotest.(check int) "fresh after invalidate" 0xc3 (Icache.fetch_u8 ic m 0x1000)

let test_icache_flush () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rx;
  let ic = Icache.create () in
  ignore (Icache.fetch_u8 ic m 0x1040);
  Alcotest.(check bool) "holds" true (Icache.holds ic 0x1040);
  Icache.flush ic;
  Alcotest.(check bool) "flushed" false (Icache.holds ic 0x1040)

(* ---------------- predecode coherence ---------------- *)

let check_decode msg expected got =
  let pp r =
    match r with
    | Ok (i, len) -> Printf.sprintf "%s/%d" (Insn.to_string i) len
    | Error `Invalid -> "(bad)"
  in
  Alcotest.(check string) msg (pp expected) (pp got)

(* (a) a store into a predecoded line is self-snooped: the next fetch
   re-decodes the new bytes. *)
let test_predecode_self_store () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rwx;
  Memory.write_u8_raw m 0x1200 0x90;
  let ic = Icache.create () in
  check_decode "target predecoded as nop" (Ok (Insn.Nop, 1)) (Icache.fetch_decode ic m 0x1200);
  (* overwrite the target with hlt (0xf4) via an executed store *)
  Memory.write_bytes_raw m 0x1000
    (Encode.assemble [ Mov_ri (RBX, 0x1200); Mov_ri (RAX, 0xf4); Store8 (RBX, 0, RAX) ]);
  let regs = Regs.create () in
  regs.rip <- 0x1000;
  for _ = 1 to 3 do
    ignore (Cpu.step regs m ic)
  done;
  check_decode "self-store re-decodes" (Ok (Insn.Hlt, 1)) (Icache.fetch_decode ic m 0x1200)

(* (b) a cross-core store without [Kern.code_write_barrier] leaves the
   other core's predecoded instruction stale — the byte-model
   behaviour the P5 PoC depends on. *)
let test_predecode_cross_core_stale () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rwx;
  Memory.write_u8_raw m 0x1200 0x90;
  let ic1 = Icache.create () and ic2 = Icache.create () in
  check_decode "core1 predecodes nop" (Ok (Insn.Nop, 1)) (Icache.fetch_decode ic1 m 0x1200);
  (* core 2 executes the store; it snoops only its own cache *)
  Memory.write_bytes_raw m 0x1000
    (Encode.assemble [ Mov_ri (RBX, 0x1200); Mov_ri (RAX, 0xf4); Store8 (RBX, 0, RAX) ]);
  let regs = Regs.create () in
  regs.rip <- 0x1000;
  for _ = 1 to 3 do
    ignore (Cpu.step regs m ic2)
  done;
  Alcotest.(check int) "memory updated" 0xf4 (Memory.read_u8_raw m 0x1200);
  check_decode "core1 still stale without barrier" (Ok (Insn.Nop, 1))
    (Icache.fetch_decode ic1 m 0x1200);
  (* the kernel barrier invalidates every core's line *)
  Icache.invalidate_range ic1 ~addr:0x1200 ~len:1;
  check_decode "fresh after barrier" (Ok (Insn.Hlt, 1)) (Icache.fetch_decode ic1 m 0x1200)

(* Jumping into the middle of an instruction must decode the different
   overlapping instruction at that offset (P2a/P3a root cause): the
   memo is per entry offset, not per instruction span. *)
let test_predecode_overlap_entry () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rx;
  (* b8 90 90 90 90 = mov eax, 0x90909090; its tail bytes are nops *)
  Memory.write_bytes_raw m 0x1000 (Bytes.of_string "\xb8\x90\x90\x90\x90");
  let ic = Icache.create () in
  check_decode "aligned entry" (Ok (Insn.Mov_ri32 (Reg.RAX, 0x90909090), 5))
    (Icache.fetch_decode ic m 0x1000);
  check_decode "misaligned entry decodes the overlap" (Ok (Insn.Nop, 1))
    (Icache.fetch_decode ic m 0x1001)

(* Line-straddling instructions are never memoised: their bytes span
   two lines with independent lifetimes, so invalidating only the
   second line must be visible on the next decode. *)
let test_predecode_line_straddle () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rx;
  (* mov eax, imm32 at 0x103e: opcode+imm0 in line 0x1000, imm1..3 in
     line 0x1040 *)
  Memory.write_bytes_raw m 0x103e (Bytes.of_string "\xb8\x11\x22\x33\x44");
  let ic = Icache.create () in
  check_decode "straddling insn decodes" (Ok (Insn.Mov_ri32 (Reg.RAX, 0x44332211), 5))
    (Icache.fetch_decode ic m 0x103e);
  (* change an imm byte that lives in the second line *)
  Memory.write_u8_raw m 0x1041 0x55;
  check_decode "stale while both lines cached" (Ok (Insn.Mov_ri32 (Reg.RAX, 0x44332211), 5))
    (Icache.fetch_decode ic m 0x103e);
  Icache.invalidate_range ic ~addr:0x1041 ~len:1;
  check_decode "second-line invalidate is visible"
    (Ok (Insn.Mov_ri32 (Reg.RAX, 0x44552211), 5))
    (Icache.fetch_decode ic m 0x103e)

(* ---------------- cpu ---------------- *)

let exec_prog ?(steps = 100) insns =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rx;
  Memory.map m ~addr:0x8000 ~len:4096 ~perm:Memory.perm_rw;
  Memory.write_bytes_raw m 0x1000 (Encode.assemble insns);
  let regs = Regs.create () in
  regs.rip <- 0x1000;
  Regs.set regs RSP 0x8800;
  let ic = Icache.create () in
  let trap = ref None in
  (try
     for _ = 1 to steps do
       match Cpu.step regs m ic with
       | Cpu.Stepped _ -> ()
       | Cpu.Trapped (t, _) ->
         trap := Some t;
         raise Exit
     done
   with Exit -> ());
  (regs, !trap)

let test_arith_flags () =
  let regs, _ =
    exec_prog [ Mov_ri (RAX, 5); Sub_ri (RAX, 5); Hlt ]
  in
  Alcotest.(check bool) "zf set" true regs.zf;
  Alcotest.(check int) "rax zero" 0 (Regs.get regs RAX)

let test_branching () =
  let regs, _ =
    exec_prog
      [ Mov_ri (RAX, 3); Cmp_ri (RAX, 3); Jcc (Z, 11); Mov_ri (RBX, 111); Hlt; Mov_ri (RBX, 222); Hlt ]
  in
  (* jz +11 skips the 10-byte mov rbx,111 and the hlt *)
  Alcotest.(check int) "took branch" 222 (Regs.get regs RBX)

let test_push_pop_call_ret () =
  let regs, _ =
    exec_prog
      [
        Mov_ri (RAX, 42);
        Push RAX;
        Mov_ri (RAX, 0);
        Pop RBX;
        Call_rel 1; (* call next+1: skips the hlt below? no: call jumps forward 1 byte *)
        Hlt;
        Mov_ri (RCX, 7);
        Hlt;
      ]
  in
  Alcotest.(check int) "pop" 42 (Regs.get regs RBX);
  Alcotest.(check int) "call target ran" 7 (Regs.get regs RCX)

let test_syscall_clobbers () =
  (* x86-64: syscall sets rcx to the next rip and clobbers r11 — the
     behaviour K23's trampoline exploits *)
  let regs, trap = exec_prog [ Mov_ri (RAX, 39); Syscall; Hlt ] in
  (match trap with
  | Some (Cpu.Syscall_trap { site; kind = `Syscall }) ->
    Alcotest.(check int) "site" (0x1000 + 10) site;
    Alcotest.(check int) "rcx = next rip" (0x1000 + 12) (Regs.get regs RCX)
  | _ -> Alcotest.fail "expected syscall trap");
  Alcotest.(check int) "rip advanced" (0x1000 + 12) regs.rip

let test_vcall_trap () =
  let _, trap = exec_prog [ Vcall 5 ] in
  match trap with
  | Some (Cpu.Vcall_trap 5) -> ()
  | _ -> Alcotest.fail "expected vcall trap"

let test_ud_on_garbage () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rx;
  Memory.write_u8_raw m 0x1000 0xfe (* not a valid first byte *);
  let regs = Regs.create () in
  regs.rip <- 0x1000;
  let ic = Icache.create () in
  match Cpu.step regs m ic with
  | Cpu.Trapped (Cpu.Ud_trap 0x1000, _) -> ()
  | _ -> Alcotest.fail "expected #UD"

(* torn lazypoline bytes decode to #UD: the P5 crash mechanism *)
let test_torn_rewrite_is_ud () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000 ~len:4096 ~perm:Memory.perm_rx;
  (* original syscall, first byte already rewritten: ff 05 *)
  Memory.write_bytes_raw m 0x1000 (Bytes.of_string "\xff\x05");
  let regs = Regs.create () in
  regs.rip <- 0x1000;
  match Cpu.step regs m (Icache.create ()) with
  | Cpu.Trapped (Cpu.Ud_trap _, _) -> ()
  | _ -> Alcotest.fail "torn bytes must fault"

let test_wrpkru () =
  let regs, _ = exec_prog [ Mov_ri (RAX, 0xc); Wrpkru; Hlt ] in
  Alcotest.(check int) "pkru loaded" 0xc regs.pkru

let tests =
  ( "machine",
    [
      Alcotest.test_case "map/read/write" `Quick test_map_read_write;
      Alcotest.test_case "unmapped faults" `Quick test_unmapped_faults;
      Alcotest.test_case "permission checks" `Quick test_perm_checks;
      Alcotest.test_case "PKU XOM (fetch allowed, read blocked)" `Quick test_pku_xom;
      Alcotest.test_case "NX fetch faults" `Quick test_fetch_needs_exec;
      Alcotest.test_case "clone is deep" `Quick test_clone_is_deep;
      Alcotest.test_case "cstr roundtrip" `Quick test_cstr_roundtrip;
      Alcotest.test_case "MAP_NORESERVE accounting" `Quick test_reservation_accounting;
      Alcotest.test_case "unmap accounting (partial/missing ranges)" `Quick test_unmap_accounting;
      Alcotest.test_case "TLB: unmap faults" `Quick test_tlb_unmap_faults;
      Alcotest.test_case "TLB: MAP_FIXED remap serves fresh page" `Quick test_tlb_remap_fresh;
      Alcotest.test_case "TLB: mprotect/pkey visible immediately" `Quick
        test_tlb_mprotect_immediate;
      Alcotest.test_case "u64 page-straddle fault address" `Quick test_u64_straddle_fault_addr;
      QCheck_alcotest.to_alcotest prop_memory_bytes;
      QCheck_alcotest.to_alcotest prop_memory_u64;
      QCheck_alcotest.to_alcotest prop_memory_range_copy;
      Alcotest.test_case "cow: clone of a clone" `Quick test_cow_clone_of_clone;
      Alcotest.test_case "cow: set_perm on one side" `Quick test_cow_set_perm_one_side;
      Alcotest.test_case "cow: zero page never written" `Quick test_cow_zero_page_stays_zero;
      Alcotest.test_case "cow: straddling u64 across two pages" `Quick test_cow_straddling_u64;
      QCheck_alcotest.to_alcotest prop_segment_map;
      Alcotest.test_case "cow: segment pages never written" `Quick test_segment_never_written;
      Alcotest.test_case "icache serves stale lines" `Quick test_icache_caches_stale;
      Alcotest.test_case "icache flush" `Quick test_icache_flush;
      Alcotest.test_case "predecode: self-store re-decodes (SMC)" `Quick
        test_predecode_self_store;
      Alcotest.test_case "predecode: cross-core store stays stale (P5)" `Quick
        test_predecode_cross_core_stale;
      Alcotest.test_case "predecode: misaligned entry overlap (P2a/P3a)" `Quick
        test_predecode_overlap_entry;
      Alcotest.test_case "predecode: line-straddling insn not memoised" `Quick
        test_predecode_line_straddle;
      Alcotest.test_case "arithmetic flags" `Quick test_arith_flags;
      Alcotest.test_case "conditional branch" `Quick test_branching;
      Alcotest.test_case "push/pop/call/ret" `Quick test_push_pop_call_ret;
      Alcotest.test_case "syscall clobbers rcx/r11" `Quick test_syscall_clobbers;
      Alcotest.test_case "vcall trap" `Quick test_vcall_trap;
      Alcotest.test_case "#UD on garbage" `Quick test_ud_on_garbage;
      Alcotest.test_case "torn rewrite is #UD (P5)" `Quick test_torn_rewrite_is_ud;
      Alcotest.test_case "wrpkru" `Quick test_wrpkru;
    ] )
