(** Sparse paged virtual memory with RWX permissions and protection
    keys (Intel MPK semantics).

    Pages are 4 KiB and carry a protection key; data accesses are
    checked against the accessing thread's PKRU register.  Instruction
    fetch is {e never} blocked by PKU — the property that makes
    PKU-based eXecute-Only Memory possible (and leaves pitfall P4a
    open).  [*_raw] accessors bypass checks (kernel view); checked
    accessors raise {!Fault}. *)

val page_size : int
val page_shift : int

type perm = { r : bool; w : bool; x : bool }

val perm_none : perm
val perm_r : perm
val perm_rw : perm
val perm_rx : perm
val perm_rwx : perm
val perm_x : perm

val perm_to_string : perm -> string
(** "rwx"-style rendering, as in /proc/PID/maps. *)

type access = [ `Read | `Write | `Exec ]

type fault = { fault_addr : int; access : access }

exception Fault of fault

type t
(** A sparse page table.  Abstract, together with its page records, so
    that every write goes through this module's accessors, which copy a
    shared ([cow]) page buffer first. *)

val committed_bytes : t -> int
(** The simulated kernel's commit count: 4 KiB per mapped page, whether
    or not the host has allocated the page's buffer yet. *)

val reserved_bytes : t -> int
(** Virtual reservations incl. MAP_NORESERVE mappings — the basis of
    the P4b memory measurement. *)

val create : unit -> t

val page_index : int -> int
val align_down : int -> int
val align_up : int -> int

val is_mapped : t -> int -> bool

val map : ?pkey:int -> t -> addr:int -> len:int -> perm:perm -> unit
(** Map (and commit) pages covering [addr, addr+len); [addr] must be
    page-aligned.  MAP_FIXED semantics on overlap: remapped pages read
    zeros again and are not counted twice.  New pages share one
    read-only zero page until their first write. *)

type segment
(** An immutable image section held as page buffers: built once from a
    string, then shared copy-on-write by every memory that maps it,
    in any domain.  All-zero pages are the shared zero page. *)

val segment_of_string : string -> segment

val map_segment : ?pkey:int -> t -> addr:int -> len:int -> perm:perm -> segment -> unit
(** {!map}, with page [i] of the range sharing the segment's [i]th page
    buffer (the zero page past its end) until its first write.  With
    [len] at least the string's length, reads and accounting are
    exactly those of {!map} followed by {!write_bytes_raw} of the
    string. *)

val reserve : t -> len:int -> unit
(** Virtual-only reservation (MAP_NORESERVE): accounted, not
    committed. *)

val unmap : t -> addr:int -> len:int -> unit

val set_perm : t -> addr:int -> len:int -> perm:perm -> unit
(** mprotect. *)

val set_pkey : t -> addr:int -> len:int -> pkey:int -> unit
(** pkey_mprotect. *)

val get_perm : t -> int -> perm option
val get_pkey : t -> int -> int option

(** {2 Raw (kernel-view) access} *)

val read_u8_raw : t -> int -> int
val write_u8_raw : t -> int -> int -> unit

val read_bytes_raw : t -> int -> int -> Bytes.t
(** Range copy, one page lookup and one blit per page.  A missing page
    raises {!Fault} at its first byte in the range. *)

val write_bytes_raw : t -> int -> Bytes.t -> unit
(** As {!read_bytes_raw}; on a fault, the pages before the missing one
    have already been written. *)

val read_u64_raw : t -> int -> int
val write_u64_raw : t -> int -> int -> unit

val read_u32_raw : t -> int -> int

val write_u32_raw : t -> int -> int -> unit
(** 4-aligned words live in one page buffer: the store is a single
    access, modelling AArch64's architecturally atomic aligned 32-bit
    code patch (no torn-write P5). *)

(** {2 PKRU-checked (user-view) access} *)

val pkru_access_disabled : int -> int -> bool
val pkru_write_disabled : int -> int -> bool
val check_read : t -> pkru:int -> int -> unit
val check_write : t -> pkru:int -> int -> unit

val check_exec : t -> int -> unit
(** Fetch check: execute permission only — PKU does not apply. *)

val read_u8 : t -> pkru:int -> int -> int
val write_u8 : t -> pkru:int -> int -> int -> unit
val read_u64 : t -> pkru:int -> int -> int
val write_u64 : t -> pkru:int -> int -> int -> unit
val fetch_u8 : t -> int -> int

val clone : t -> t
(** Copy for fork(): deep to every observer, made lazily — both sides
    share each page buffer until one of them first writes the page. *)

val read_cstr : ?max:int -> t -> int -> string
val write_cstr : t -> int -> string -> unit
