(** Two-pass assembler DSL.

    Programs for the simulated machine are written as lists of {!item}s
    mixing instructions, labels, raw data blobs (the "embedded data in
    code pages" of pitfall P3), and host-function escapes.  The
    assembler resolves local labels to rel32 branches and records
    {e relocations} for external symbols; the dynamic loader patches
    those at load time, exactly like ELF R_X86_64_64 relocations.

    Sections: [`Text] (mapped r-x) and [`Data] (mapped rw-).  Placing
    [Blob]s in [`Text] is how test programs embed data in executable
    pages. *)

type section = [ `Text | `Data ]

type item =
  | I of Insn.t  (** a literal instruction *)
  | Label of string  (** local label; also exported as a symbol *)
  | Blob of bytes  (** raw bytes (data, jump tables, shellcode...) *)
  | Zeros of int  (** reserve n zero bytes *)
  | Strz of string  (** NUL-terminated string *)
  | Quad of int  (** 8-byte little-endian literal *)
  | J of string  (** jmp to label (rel32 form, 5 bytes) *)
  | Jc of Insn.cond * string  (** conditional jump to label (6 bytes) *)
  | Calll of string  (** call to local label (rel32 form, 5 bytes) *)
  | Call_sym of string  (** call external symbol: mov r11, imm64(reloc); call *r11 *)
  | Jmp_sym of string  (** tail-jump to external symbol via r11 *)
  | Mov_sym of Reg.t * string  (** reg := absolute address of symbol (reloc) *)
  | Vcall_named of string  (** host-function escape, resolved per-image *)
  | Section of section  (** switch emission section *)
  | Align of int  (** pad current section with nops/zeros to a multiple *)

type reloc = { reloc_section : section; reloc_offset : int; reloc_symbol : string }
(** An 8-byte absolute slot at [reloc_offset] to be patched with the
    address of [reloc_symbol] at load time. *)

type program = {
  text : string;
  data : string;
  symbols : (string * (section * int)) list;  (** label -> (section, offset) *)
  relocs : reloc list;
  vcalls : string list;  (** host-function names in local-index order *)
}

exception Asm_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Asm_error s)) fmt

(* Fixed sizes of the pseudo-items (two-pass with constant sizes keeps
   the assembler simple and the layout predictable). *)
let item_size = function
  | I i -> Encode.length i
  | Label _ | Section _ -> 0
  | Blob b -> Bytes.length b
  | Zeros n -> n
  | Strz s -> String.length s + 1
  | Quad _ -> 8
  | J _ -> 5
  | Jc _ -> 6
  | Calll _ -> 5
  | Call_sym _ -> 10 + 3 (* mov r11, imm64 ; call *r11 (0x41 prefix) *)
  | Jmp_sym _ -> 10 + 3
  | Mov_sym _ -> 10
  | Vcall_named _ -> 6
  | Align _ -> 0 (* variable; handled specially in layout *)

let assemble (items : item list) : program =
  (* Pass 1: compute per-section offsets for every item and the symbol
     table. *)
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
  let label_rel name sec here len =
    (* rel32 displacement from the end of the branch instruction *)
    let tsec, toff = find_label name in
    if tsec <> sec then err "cross-section branch to %S" name;
    toff - (here + len)
  in
  List.iter
    (fun (item, sec, here) ->
      match item with
      | Section _ | Label _ -> ()
      | Align n ->
        (* pad bytes were reserved during layout as zeros in data /
           nops are not needed in text because zeros decode as invalid;
           we fill text padding with nops for cleanliness *)
        let pad = (n - (here mod n)) mod n in
        if sec = `Text then
          for i = 0 to pad - 1 do
            Bytes.set text (here + i) '\x90'
          done
      | I insn -> put sec here (Encode.to_bytes insn)
      | Blob b -> put sec here b
      | Zeros _ -> ()
      | Strz s ->
        put sec here (Bytes.of_string s)
        (* trailing NUL already zero *)
      | Quad v ->
        let b = Bytes.create 8 in
        for i = 0 to 7 do
          Bytes.set b i (Char.chr ((v lsr (8 * i)) land 0xff))
        done;
        put sec here b
      | J name -> put sec here (Encode.to_bytes (Jmp_rel (label_rel name sec here 5)))
      | Jc (c, name) -> put sec here (Encode.to_bytes (Jcc (c, label_rel name sec here 6)))
      | Calll name -> put sec here (Encode.to_bytes (Call_rel (label_rel name sec here 5)))
      | Call_sym name ->
        put sec here (Encode.to_bytes (Mov_ri (R11, 0)));
        put sec (here + 10) (Encode.to_bytes (Call_reg R11));
        relocs := { reloc_section = sec; reloc_offset = here + 2; reloc_symbol = name } :: !relocs
      | Jmp_sym name ->
        put sec here (Encode.to_bytes (Mov_ri (R11, 0)));
        put sec (here + 10) (Encode.to_bytes (Jmp_reg R11));
        relocs := { reloc_section = sec; reloc_offset = here + 2; reloc_symbol = name } :: !relocs
      | Mov_sym (r, name) ->
        put sec here (Encode.to_bytes (Mov_ri (r, 0)));
        (* mov r, imm64 is always 2 bytes of prefix+opcode, then imm *)
        relocs := { reloc_section = sec; reloc_offset = here + 2; reloc_symbol = name } :: !relocs
      | Vcall_named name -> put sec here (Encode.to_bytes (Vcall (vcall_index name))))
    layout;
  (* the buffers are local and dead from here on *)
  {
    text = Bytes.unsafe_to_string text;
    data = Bytes.unsafe_to_string data;
    symbols = List.rev !symbols;
    relocs = List.rev !relocs;
    vcalls = !vcalls;
  }
