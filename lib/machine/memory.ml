(** Sparse paged virtual memory with RWX permissions and protection keys.

    Pages are 4 KiB.  Each page carries a protection key (pkey); data
    accesses are additionally checked against the accessing thread's
    PKRU register, mirroring Intel MPK semantics:

    - bit [2k] of PKRU (Access Disable) forbids all data access to
      pages tagged with key [k];
    - bit [2k+1] (Write Disable) forbids writes;
    - {b instruction fetch is never blocked by PKRU} — which is exactly
      why zpoline/lazypoline/K23 can build eXecute-Only Memory (XOM)
      out of PKU, and why NULL {e execution} is not stopped by it
      (pitfall P4a).

    The [*_raw] accessors bypass permission checks; they model kernel
    accesses (and tooling).  Checked accessors raise {!Fault}. *)

let page_size = 4096
let page_shift = 12

type perm = { r : bool; w : bool; x : bool }

let perm_none = { r = false; w = false; x = false }
let perm_r = { r = true; w = false; x = false }
let perm_rw = { r = true; w = true; x = false }
let perm_rx = { r = true; w = false; x = true }
let perm_rwx = { r = true; w = true; x = true }
let perm_x = { r = false; w = false; x = true }

let perm_to_string p =
  Printf.sprintf "%c%c%c" (if p.r then 'r' else '-') (if p.w then 'w' else '-')
    (if p.x then 'x' else '-')

type access = [ `Read | `Write | `Exec ]

type fault = { fault_addr : int; access : access }

exception Fault of fault

(* A [cow] page's buffer may be shared — with the zero page (fresh
   mappings), an image {!segment} or a [clone] (fork) — so every write
   path calls [own] first, which gives the page a private copy; reads
   never copy. *)
type page = { mutable bytes : Bytes.t; mutable cow : bool; mutable perm : perm; mutable pkey : int }

type t = {
  pages : (int, page) Hashtbl.t;
  mutable committed_bytes : int;
      (** the simulated kernel's commit count: every mapped page, whether
          or not the host has allocated its buffer yet *)
  mutable reserved_bytes : int;
      (** virtual reservations including MAP_NORESERVE-style mappings
          that never allocate pages (zpoline's full-address-space
          bitmap); the basis of the P4b memory-overhead measurement *)
  (* One-entry data-TLBs: the last (page_index, page) pair seen per
     access kind, so the hot word-access paths skip the hashtable.
     They cache only the index->page *binding* — permissions are
     re-read from the page record on every access (set_perm/set_pkey
     mutate in place), so only map/unmap, which replace or drop page
     records, must flush them. *)
  mutable tlb_r_idx : int;
  mutable tlb_r_pg : page;
  mutable tlb_w_idx : int;
  mutable tlb_w_pg : page;
  mutable tlb_raw_idx : int;
  mutable tlb_raw_pg : page;
}

(* Placeholder behind an empty TLB slot (idx = -1, never a real page
   index since addresses shift right logically). *)
let no_page = { bytes = Bytes.empty; cow = false; perm = perm_none; pkey = 0 }

(* The buffer behind every freshly mapped page.  Shared by all memories
   in all domains and never written: pages that point at it are [cow]. *)
let zero_page = Bytes.make page_size '\000'

(* Give [p] a private buffer before its first write. *)
let[@inline] own p =
  if p.cow then begin
    p.bytes <- Bytes.copy p.bytes;
    p.cow <- false
  end

let create () =
  {
    pages = Hashtbl.create 1024;
    committed_bytes = 0;
    reserved_bytes = 0;
    tlb_r_idx = -1;
    tlb_r_pg = no_page;
    tlb_w_idx = -1;
    tlb_w_pg = no_page;
    tlb_raw_idx = -1;
    tlb_raw_pg = no_page;
  }

let committed_bytes t = t.committed_bytes
let reserved_bytes t = t.reserved_bytes

let tlb_flush t =
  t.tlb_r_idx <- -1;
  t.tlb_r_pg <- no_page;
  t.tlb_w_idx <- -1;
  t.tlb_w_pg <- no_page;
  t.tlb_raw_idx <- -1;
  t.tlb_raw_pg <- no_page

let page_index addr = addr lsr page_shift

let align_down addr = addr land lnot (page_size - 1)

let align_up addr = (addr + page_size - 1) land lnot (page_size - 1)

let is_mapped t addr = Hashtbl.mem t.pages (page_index addr)

let find_page t addr = Hashtbl.find_opt t.pages (page_index addr)

(* An image section as page buffers, built once and then only ever
   read: pages mapped from it are [cow], so a write copies first.  Its
   all-zero pages are {!zero_page} itself; the last page is padded with
   zeros. *)
type segment = Bytes.t array

let segment_of_string s =
  let len = String.length s in
  Array.init ((len + page_size - 1) / page_size) (fun i ->
      let off = i * page_size in
      let b = Bytes.make page_size '\000' in
      Bytes.blit_string s off b 0 (min page_size (len - off));
      if Bytes.equal b zero_page then zero_page else b)

(** [map_segment t ~addr ~len ~perm seg] maps (and commits) pages
    covering [addr, addr+len); [addr] must be page-aligned.  Page [i]
    shares [seg]'s [i]th buffer, or {!zero_page} past its end, until
    its first write.  Already-mapped pages in the range are remapped
    fresh (MAP_FIXED semantics) and are not counted again. *)
let map_segment ?(pkey = 0) t ~addr ~len ~perm (seg : segment) =
  if addr land (page_size - 1) <> 0 then invalid_arg "Memory.map: unaligned addr";
  if len <= 0 then invalid_arg "Memory.map: bad length";
  let npages = (align_up len) lsr page_shift in
  for i = 0 to npages - 1 do
    let idx = page_index addr + i in
    if not (Hashtbl.mem t.pages idx) then begin
      t.committed_bytes <- t.committed_bytes + page_size;
      t.reserved_bytes <- t.reserved_bytes + page_size
    end;
    let bytes = if i < Array.length seg then seg.(i) else zero_page in
    Hashtbl.replace t.pages idx { bytes; cow = true; perm; pkey }
  done;
  tlb_flush t

let map ?pkey t ~addr ~len ~perm = map_segment ?pkey t ~addr ~len ~perm [||]

(** Record a virtual-only reservation (MAP_NORESERVE): no pages are
    committed, but the reservation is accounted, so the P4b bench can
    compare zpoline's 2^48-bit bitmap against K23's hash set. *)
let reserve t ~len = t.reserved_bytes <- t.reserved_bytes + len

(* Only pages actually present are uncommitted/unreserved: unmapping
   an unmapped (or partially mapped) range is a no-op for the missing
   pages, as with munmap, rather than driving the counters negative. *)
let unmap t ~addr ~len =
  let npages = (align_up len) lsr page_shift in
  for i = 0 to npages - 1 do
    let idx = page_index addr + i in
    if Hashtbl.mem t.pages idx then begin
      Hashtbl.remove t.pages idx;
      t.committed_bytes <- t.committed_bytes - page_size;
      t.reserved_bytes <- t.reserved_bytes - page_size
    end
  done;
  tlb_flush t

(** mprotect: change permissions of every mapped page in range. *)
let set_perm t ~addr ~len ~perm =
  let npages = (align_up (len + (addr land (page_size - 1)))) lsr page_shift in
  for i = 0 to max 0 (npages - 1) do
    match Hashtbl.find_opt t.pages (page_index addr + i) with
    | Some p -> p.perm <- perm
    | None -> ()
  done

let set_pkey t ~addr ~len ~pkey =
  let npages = (align_up (len + (addr land (page_size - 1)))) lsr page_shift in
  for i = 0 to max 0 (npages - 1) do
    match Hashtbl.find_opt t.pages (page_index addr + i) with
    | Some p -> p.pkey <- pkey
    | None -> ()
  done

let get_perm t addr = Option.map (fun p -> p.perm) (find_page t addr)
let get_pkey t addr = Option.map (fun p -> p.pkey) (find_page t addr)

(* ------------------------------------------------------------------ *)
(* Raw (kernel-view) access                                            *)

let[@inline] lookup_raw t addr (access : access) =
  let idx = addr lsr page_shift in
  if t.tlb_raw_idx = idx then t.tlb_raw_pg
  else
    match Hashtbl.find_opt t.pages idx with
    | Some p ->
      t.tlb_raw_idx <- idx;
      t.tlb_raw_pg <- p;
      p
    | None -> raise (Fault { fault_addr = addr; access })

let read_u8_raw t addr =
  let p = lookup_raw t addr `Read in
  Char.code (Bytes.get p.bytes (addr land (page_size - 1)))

let write_u8_raw t addr v =
  let p = lookup_raw t addr `Write in
  own p;
  Bytes.set p.bytes (addr land (page_size - 1)) (Char.chr (v land 0xff))

(* Range copies look each page up once and blit the part of the range
   inside it.  A missing page faults at its first byte in the range,
   after the pages before it were copied: the byte loop's semantics. *)
let read_bytes_raw t addr len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let p = lookup_raw t a `Read in
    let off = a land (page_size - 1) in
    let n = min (len - !pos) (page_size - off) in
    Bytes.blit p.bytes off out !pos n;
    pos := !pos + n
  done;
  out

let write_bytes_raw t addr b =
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let p = lookup_raw t a `Write in
    own p;
    let off = a land (page_size - 1) in
    let n = min (len - !pos) (page_size - off) in
    Bytes.blit b !pos p.bytes off n;
    pos := !pos + n
  done

(* Word accesses that stay within one page read/write the page buffer
   directly; straddles fall back byte-by-byte (same per-byte fault
   addresses as before).  The int<->int64 conversions reproduce the
   byte-loop exactly on 63-bit ints: OCaml's [lsl]/[lsr] drop bit 63,
   so byte 7's top bit is stored as 0 and ignored on load. *)
let word_mask = 0x7fff_ffff_ffff_ffffL

let read_u64_raw t addr =
  let off = addr land (page_size - 1) in
  if off <= page_size - 8 then
    let p = lookup_raw t addr `Read in
    Int64.to_int (Bytes.get_int64_le p.bytes off)
  else
    let rec go i acc =
      if i = 8 then acc else go (i + 1) (acc lor (read_u8_raw t (addr + i) lsl (8 * i)))
    in
    go 0 0

let write_u64_raw t addr v =
  let off = addr land (page_size - 1) in
  if off <= page_size - 8 then
    let p = lookup_raw t addr `Write in
    own p;
    Bytes.set_int64_le p.bytes off (Int64.logand (Int64.of_int v) word_mask)
  else
    for i = 0 to 7 do
      write_u8_raw t (addr + i) ((v lsr (8 * i)) land 0xff)
    done

(* 4-aligned words never cross a page: one buffer access, modelling an
   architecturally atomic aligned 32-bit load/store (AArch64 patching). *)
let read_u32_raw t addr =
  if addr land 3 <> 0 then
    let rec go i acc =
      if i = 4 then acc else go (i + 1) (acc lor (read_u8_raw t (addr + i) lsl (8 * i)))
    in
    go 0 0
  else
    let p = lookup_raw t addr `Read in
    Int32.to_int (Bytes.get_int32_le p.bytes (addr land (page_size - 1))) land 0xffff_ffff

let write_u32_raw t addr v =
  if addr land 3 <> 0 then
    for i = 0 to 3 do
      write_u8_raw t (addr + i) ((v lsr (8 * i)) land 0xff)
    done
  else
    let p = lookup_raw t addr `Write in
    own p;
    Bytes.set_int32_le p.bytes (addr land (page_size - 1)) (Int32.of_int v)

(* ------------------------------------------------------------------ *)
(* PKRU-checked (user-view) access                                     *)

let pkru_access_disabled pkru pkey = pkru land (1 lsl (2 * pkey)) <> 0
let pkru_write_disabled pkru pkey = pkru land (1 lsl ((2 * pkey) + 1)) <> 0

(* The TLB caches only the index->page binding; the permission check
   itself runs on every access against the page's current perm/pkey
   and the caller's PKRU (mprotect and pkey_mprotect mutate the page
   record in place, wrpkru changes the register — neither may be
   cached away). *)
let[@inline] lookup_r t ~pkru addr =
  let idx = addr lsr page_shift in
  let p =
    if t.tlb_r_idx = idx then t.tlb_r_pg
    else
      match Hashtbl.find_opt t.pages idx with
      | Some p ->
        t.tlb_r_idx <- idx;
        t.tlb_r_pg <- p;
        p
      | None -> raise (Fault { fault_addr = addr; access = `Read })
  in
  if (not p.perm.r) || pkru_access_disabled pkru p.pkey then
    raise (Fault { fault_addr = addr; access = `Read });
  p

let[@inline] lookup_w t ~pkru addr =
  let idx = addr lsr page_shift in
  let p =
    if t.tlb_w_idx = idx then t.tlb_w_pg
    else
      match Hashtbl.find_opt t.pages idx with
      | Some p ->
        t.tlb_w_idx <- idx;
        t.tlb_w_pg <- p;
        p
      | None -> raise (Fault { fault_addr = addr; access = `Write })
  in
  if (not p.perm.w) || pkru_access_disabled pkru p.pkey || pkru_write_disabled pkru p.pkey then
    raise (Fault { fault_addr = addr; access = `Write });
  p

let check_read t ~pkru addr = ignore (lookup_r t ~pkru addr : page)

let check_write t ~pkru addr = ignore (lookup_w t ~pkru addr : page)

(** Instruction fetch check: exec permission only — PKU does not apply
    to fetches (the XOM / P4a story). *)
let check_exec t addr =
  match find_page t addr with
  | None -> raise (Fault { fault_addr = addr; access = `Exec })
  | Some p -> if not p.perm.x then raise (Fault { fault_addr = addr; access = `Exec })

let read_u8 t ~pkru addr =
  let p = lookup_r t ~pkru addr in
  Char.code (Bytes.get p.bytes (addr land (page_size - 1)))

let write_u8 t ~pkru addr v =
  let p = lookup_w t ~pkru addr in
  own p;
  Bytes.set p.bytes (addr land (page_size - 1)) (Char.chr (v land 0xff))

(* In-page words: one page lookup (usually a TLB hit) and one
   permission check cover all 8 bytes.  Page-straddling words keep the
   per-byte loop so the faulting byte's address is preserved. *)
let read_u64 t ~pkru addr =
  let off = addr land (page_size - 1) in
  if off <= page_size - 8 then
    let p = lookup_r t ~pkru addr in
    Int64.to_int (Bytes.get_int64_le p.bytes off)
  else begin
    for i = 0 to 7 do
      check_read t ~pkru (addr + i)
    done;
    read_u64_raw t addr
  end

let write_u64 t ~pkru addr v =
  let off = addr land (page_size - 1) in
  if off <= page_size - 8 then
    let p = lookup_w t ~pkru addr in
    own p;
    Bytes.set_int64_le p.bytes off (Int64.logand (Int64.of_int v) word_mask)
  else begin
    for i = 0 to 7 do
      check_write t ~pkru (addr + i)
    done;
    write_u64_raw t addr v
  end

let fetch_u8 t addr =
  check_exec t addr;
  read_u8_raw t addr

(* ------------------------------------------------------------------ *)

(** Copy for fork(): deep to every observer, but each page buffer is
    shared and both sides' records are marked [cow], so a page is copied
    only when one side first writes it. *)
let clone t =
  let pages = Hashtbl.copy t.pages in
  Hashtbl.filter_map_inplace
    (fun _ p ->
      p.cow <- true;
      Some { p with cow = true })
    pages;
  {
    pages;
    committed_bytes = t.committed_bytes;
    reserved_bytes = t.reserved_bytes;
    tlb_r_idx = -1;
    tlb_r_pg = no_page;
    tlb_w_idx = -1;
    tlb_w_pg = no_page;
    tlb_raw_idx = -1;
    tlb_raw_pg = no_page;
  }

(** C-string helpers (argv/envp live in simulated memory so that a
    ptrace-based tracer can inspect and rewrite them). *)
let read_cstr ?(max = 4096) t addr =
  let buf = Buffer.create 32 in
  let rec go i =
    if i >= max then Buffer.contents buf
    else
      let c = read_u8_raw t (addr + i) in
      if c = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr c);
        go (i + 1)
      end
  in
  go 0

let write_cstr t addr s =
  String.iteri (fun i c -> write_u8_raw t (addr + i) (Char.code c)) s;
  write_u8_raw t (addr + String.length s) 0
