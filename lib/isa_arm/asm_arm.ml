(** Two-pass assembler DSL for the AArch64 backend.

    Mirrors {!K23_isa.Asm} (same item vocabulary, same two-pass
    constant-size layout) and emits the {e same} ISA-neutral
    {!K23_isa.Asm.program} record, so the mapper, loader and
    relocation machinery work unchanged on ARM images.

    The interesting difference is symbol addressing: x86 materialises
    absolute addresses with [mov r64, imm64] (a 10-byte instruction
    holding the 8-byte reloc slot {e inside} the instruction), while
    AArch64 has no 64-bit-immediate move — the idiomatic lowering is a
    pc-relative literal load.  [Mov_sym]/[Call_sym]/[Jmp_sym] therefore
    emit an inline literal pool:

    {v
      ldr  xN, [pc, #8]      ; load the 8-byte literal
      b    +16               ; skip over it
      .quad <reloc slot>     ; patched by the loader (R_AARCH64_ABS64)
      (blr/br x17)           ; Call_sym / Jmp_sym only
    v}

    which means {b data words live in executable text} — the authentic
    AArch64 property that keeps pitfall P3a alive on a fixed-width ISA
    (a literal whose value aliases the [svc] encoding is
    indistinguishable from code to any sweep). *)

open K23_isa

type item =
  | I of Arm.insn  (** a literal instruction *)
  | Label of string  (** local label; also exported as a symbol *)
  | Blob of bytes  (** raw bytes (literal pools, shellcode...) *)
  | Zeros of int  (** reserve n zero bytes *)
  | Strz of string  (** NUL-terminated string *)
  | Quad of int  (** 8-byte little-endian literal *)
  | J of string  (** b label *)
  | Jc of Insn.cond * string  (** b.cond label *)
  | Calll of string  (** bl label *)
  | Call_sym of string  (** call external symbol via inline literal + blr x17 *)
  | Jmp_sym of string  (** tail-jump to external symbol via br x17 *)
  | Mov_sym of int * string  (** xN := absolute address of symbol (reloc literal) *)
  | Vcall_named of string  (** host-function escape, resolved per-image *)
  | Section of Asm.section  (** switch emission section *)
  | Align of int  (** pad current section to a multiple *)

let err : 'a 'b. ('a, unit, string, 'b) format4 -> 'a =
 fun fmt -> Printf.ksprintf (fun s -> raise (Asm.Asm_error s)) fmt

let item_size = function
  | I _ | J _ | Jc _ | Calll _ | Vcall_named _ -> 4
  | Label _ | Section _ -> 0
  | Blob b -> Bytes.length b
  | Zeros n -> n
  | Strz s -> String.length s + 1
  | Quad _ -> 8
  | Call_sym _ | Jmp_sym _ -> 20 (* ldr x17,lit ; b +16 ; .quad ; blr/br x17 *)
  | Mov_sym _ -> 16 (* ldr xN,lit ; b +16 ; .quad *)
  | Align _ -> 0 (* variable; handled specially in layout *)

let nop_word = Arm.bytes_of_word (Arm.encode Arm.Nop)

let assemble (items : item list) : Asm.program =
  (* Pass 1: offsets + symbol table. *)
  let text_len = ref 0 and data_len = ref 0 in
  let symbols = ref [] in
  let sec = ref `Text in
  let off_of = function `Text -> text_len | `Data -> data_len in
  let layout =
    List.map
      (fun item ->
        (match item with Section s -> sec := s | _ -> ());
        let here = !(off_of !sec) in
        (match item with
        | Align n ->
          let pad = (n - (here mod n)) mod n in
          (off_of !sec) := here + pad
        | Label name -> symbols := (name, (!sec, here)) :: !symbols
        | other -> (off_of !sec) := here + item_size other);
        (item, !sec, here))
      items
  in
  let find_label name =
    match List.assoc_opt name !symbols with
    | Some (s, o) -> (s, o)
    | None -> err "undefined label %S" name
  in
  (* Pass 2: emit. *)
  let text = Bytes.make !text_len '\000'
  and data = Bytes.make !data_len '\000' in
  let relocs = ref [] in
  let vcalls = ref [] in
  let vcall_index name =
    match List.find_index (String.equal name) !vcalls with
    | Some i -> i
    | None ->
      vcalls := !vcalls @ [ name ];
      List.length !vcalls - 1
  in
  let put sec off b =
    let target = match sec with `Text -> text | `Data -> data in
    Bytes.blit b 0 target off (Bytes.length b)
  in
  let emit sec here insn =
    if sec = `Text && here land 3 <> 0 then
      err "arm insn at unaligned text offset %#x (%s)" here (Arm.to_string insn);
    put sec here (Arm.bytes_of_word (Arm.encode insn))
  in
  (* word displacement from the branch instruction itself (AArch64
     branches are pc-of-insn-relative, unlike x86's end-relative) *)
  let label_rel name sec here =
    let tsec, toff = find_label name in
    if tsec <> sec then err "cross-section branch to %S" name;
    if (toff - here) land 3 <> 0 then err "unaligned branch target %S" name;
    (toff - here) asr 2
  in
  let quad v =
    let b = Bytes.create 8 in
    for i = 0 to 7 do
      Bytes.set b i (Char.chr ((v lsr (8 * i)) land 0xff))
    done;
    b
  in
  List.iter
    (fun (item, sec, here) ->
      match item with
      | Section _ | Label _ -> ()
      | Align n ->
        let pad = (n - (here mod n)) mod n in
        if sec = `Text && pad land 3 = 0 then
          for i = 0 to (pad / 4) - 1 do
            Bytes.blit nop_word 0 text (here + (4 * i)) 4
          done
        (* unaligned text padding / data padding stays zero *)
      | I insn -> emit sec here insn
      | Blob b -> put sec here b
      | Zeros _ -> ()
      | Strz s -> put sec here (Bytes.of_string s) (* trailing NUL already zero *)
      | Quad v -> put sec here (quad v)
      | J name -> emit sec here (Arm.B (label_rel name sec here))
      | Jc (c, name) -> emit sec here (Arm.B_cond (c, label_rel name sec here))
      | Calll name -> emit sec here (Arm.Bl (label_rel name sec here))
      | Call_sym name ->
        emit sec here (Arm.Ldr_lit (17, 2));
        emit sec (here + 4) (Arm.B 3);
        relocs := { Asm.reloc_section = sec; reloc_offset = here + 8; reloc_symbol = name } :: !relocs;
        emit sec (here + 16) (Arm.Blr 17)
      | Jmp_sym name ->
        emit sec here (Arm.Ldr_lit (17, 2));
        emit sec (here + 4) (Arm.B 3);
        relocs := { Asm.reloc_section = sec; reloc_offset = here + 8; reloc_symbol = name } :: !relocs;
        emit sec (here + 16) (Arm.Br 17)
      | Mov_sym (rd, name) ->
        emit sec here (Arm.Ldr_lit (rd, 2));
        emit sec (here + 4) (Arm.B 3);
        relocs := { Asm.reloc_section = sec; reloc_offset = here + 8; reloc_symbol = name } :: !relocs
      | Vcall_named name -> emit sec here (Arm.Vcall (vcall_index name)))
    layout;
  {
    Asm.text = Bytes.unsafe_to_string text;
    data = Bytes.unsafe_to_string data;
    symbols = List.rev !symbols;
    relocs = List.rev !relocs;
    vcalls = !vcalls;
  }
