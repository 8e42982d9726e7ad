(* Assembler DSL: labels, sections, relocations, vcall numbering. *)

open K23_isa

let test_label_branches () =
  let prog =
    Asm.assemble
      [
        Asm.Label "start";
        Asm.I (Insn.Mov_ri (RAX, 1));
        Asm.J "end";
        Asm.I (Insn.Mov_ri (RAX, 2));
        Asm.Label "end";
        Asm.I Insn.Ret;
      ]
  in
  (* decode the jmp at offset 10; it must skip the second 10-byte mov *)
  match Decode.decode_bytes (Bytes.of_string prog.Asm.text) 10 with
  | Ok (Insn.Jmp_rel d, len) -> Alcotest.(check int) "skips mov" 10 (d + len - len)
  | _ -> Alcotest.fail "expected jmp"

let test_backward_branch () =
  let prog =
    Asm.assemble [ Asm.Label "top"; Asm.I Insn.Nop; Asm.J "top" ]
  in
  match Decode.decode_bytes (Bytes.of_string prog.Asm.text) 1 with
  | Ok (Insn.Jmp_rel d, _) -> Alcotest.(check int) "back to top" (-6) d
  | _ -> Alcotest.fail "expected jmp"

let test_sections_and_symbols () =
  let prog =
    Asm.assemble
      [
        Asm.Label "code";
        Asm.I Insn.Ret;
        Asm.Section `Data;
        Asm.Label "d1";
        Asm.Quad 0x1122334455;
        Asm.Label "d2";
        Asm.Strz "xy";
      ]
  in
  Alcotest.(check int) "text size" 1 (String.length prog.Asm.text);
  Alcotest.(check int) "data size" 11 (String.length prog.Asm.data);
  (match List.assoc "d2" prog.Asm.symbols with
  | `Data, 8 -> ()
  | _ -> Alcotest.fail "d2 at data+8");
  Alcotest.(check char) "strz content" 'x' prog.Asm.data.[8]

let test_relocs_recorded () =
  let prog =
    Asm.assemble [ Asm.Label "main"; Asm.Call_sym "write"; Asm.Mov_sym (RDI, "msg"); Asm.I Insn.Ret ]
  in
  Alcotest.(check int) "two relocs" 2 (List.length prog.Asm.relocs);
  let r = List.hd prog.Asm.relocs in
  Alcotest.(check string) "first reloc symbol" "write" r.Asm.reloc_symbol;
  (* imm64 slot of mov r11 is 2 bytes into the pseudo-instruction *)
  Alcotest.(check int) "slot offset" 2 r.Asm.reloc_offset

let test_vcall_indices () =
  let prog =
    Asm.assemble
      [
        Asm.Vcall_named "alpha";
        Asm.Vcall_named "beta";
        Asm.Vcall_named "alpha";  (* repeated name reuses the index *)
      ]
  in
  Alcotest.(check (list string)) "table" [ "alpha"; "beta" ] prog.Asm.vcalls;
  (match Decode.decode_bytes (Bytes.of_string prog.Asm.text) 0 with
  | Ok (Insn.Vcall 0, _) -> ()
  | _ -> Alcotest.fail "alpha=0");
  (match Decode.decode_bytes (Bytes.of_string prog.Asm.text) 6 with
  | Ok (Insn.Vcall 1, _) -> ()
  | _ -> Alcotest.fail "beta=1");
  match Decode.decode_bytes (Bytes.of_string prog.Asm.text) 12 with
  | Ok (Insn.Vcall 0, _) -> ()
  | _ -> Alcotest.fail "alpha reused"

let test_undefined_label_raises () =
  match Asm.assemble [ Asm.J "nowhere" ] with
  | exception Asm.Asm_error _ -> ()
  | _ -> Alcotest.fail "must reject undefined label"

let test_blob_and_zeros_layout () =
  let prog =
    Asm.assemble
      [ Asm.Blob (Bytes.of_string "\x0f\x05"); Asm.Zeros 3; Asm.Label "after"; Asm.I Insn.Ret ]
  in
  (match List.assoc "after" prog.Asm.symbols with
  | `Text, 5 -> ()
  | _ -> Alcotest.fail "label after blob+zeros");
  Alcotest.(check char) "blob bytes" '\x0f' prog.Asm.text.[0]

let tests =
  ( "asm",
    [
      Alcotest.test_case "forward branch" `Quick test_label_branches;
      Alcotest.test_case "backward branch" `Quick test_backward_branch;
      Alcotest.test_case "sections and symbols" `Quick test_sections_and_symbols;
      Alcotest.test_case "relocations" `Quick test_relocs_recorded;
      Alcotest.test_case "vcall numbering" `Quick test_vcall_indices;
      Alcotest.test_case "undefined label" `Quick test_undefined_label_raises;
      Alcotest.test_case "blob/zeros layout" `Quick test_blob_and_zeros_layout;
    ] )
