(** Two-pass assembler DSL: instructions, labels, raw data blobs (the
    "embedded data in code" of pitfall P3), external-symbol
    relocations (patched by the dynamic loader, like R_X86_64_64), and
    host-function escapes.  Sections: [`Text] (mapped r-x) and [`Data]
    (mapped rw-). *)

type section = [ `Text | `Data ]

type item =
  | I of Insn.t
  | Label of string  (** local label, also exported as a symbol *)
  | Blob of bytes
  | Zeros of int
  | Strz of string  (** NUL-terminated string *)
  | Quad of int  (** 8-byte little-endian literal *)
  | J of string  (** jmp to label (rel32) *)
  | Jc of Insn.cond * string
  | Calll of string  (** call to local label (rel32) *)
  | Call_sym of string  (** external call: mov r11, imm64(reloc); call *r11 *)
  | Jmp_sym of string
  | Mov_sym of Reg.t * string  (** reg := absolute address of symbol (reloc) *)
  | Vcall_named of string  (** host-function escape, indexed per image *)
  | Section of section
  | Align of int

type reloc = { reloc_section : section; reloc_offset : int; reloc_symbol : string }
(** An 8-byte absolute slot to patch with the symbol's address at load
    time. *)

type program = {
  text : string;  (** immutable once assembled: loaders map it copy-on-write *)
  data : string;
  symbols : (string * (section * int)) list;
  relocs : reloc list;
  vcalls : string list;  (** host-function names in local-index order *)
}

exception Asm_error of string

val item_size : item -> int
val assemble : item list -> program
