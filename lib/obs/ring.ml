(** Ring buffer event sink: bounded overwrite-oldest, or unbounded.

    The default ktrace sink keeps the most recent [capacity] entries
    and counts what it evicted.  Overwriting (rather than blocking or
    growing past the bound) makes the memory bound explicit — the same
    design as the kernel's own trace ring and rr's event buffers.

    The array starts small and doubles on demand up to the bound, so a
    run that records a few hundred events never allocates the full
    capacity; overwrite-oldest starts only once the array has reached
    it.  The recorder (lib/replay) needs the complete stream — a
    recording with silently-dropped events can never replay — so
    [create_unbounded] sets no bound: the array keeps doubling,
    [dropped] stays 0 by construction and every push is retained. *)

type 'a t = {
  mutable buf : 'a option array;
  limit : int;  (** the bounded capacity, or [max_int] when unbounded *)
  mutable next : int;  (** slot the next push writes *)
  mutable len : int;  (** live entries, <= Array.length buf *)
  mutable dropped : int;  (** entries overwritten since creation/clear *)
}

let default_initial = 1024

let make ~initial ~limit = { buf = Array.make initial None; limit; next = 0; len = 0; dropped = 0 }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  make ~initial:(min capacity default_initial) ~limit:capacity

let create_unbounded ?(initial = default_initial) () =
  if initial <= 0 then invalid_arg "Ring.create_unbounded: initial must be positive";
  make ~initial ~limit:max_int

let bounded r = r.limit <> max_int

let capacity r = if bounded r then r.limit else Array.length r.buf
let length r = r.len
let dropped r = r.dropped

(* Double the array (up to the bound), unrolling the circular window
   so the oldest entry lands at index 0 (after a grow, [next] never
   wraps until the next grow, since len = old size < new size). *)
let grow r =
  let cap = Array.length r.buf in
  let nbuf = Array.make (if cap > r.limit - cap then r.limit else cap * 2) None in
  let start = (r.next - r.len + cap) mod cap in
  for i = 0 to r.len - 1 do
    nbuf.(i) <- r.buf.((start + i) mod cap)
  done;
  r.buf <- nbuf;
  r.next <- r.len

let push r x =
  if r.len = Array.length r.buf then
    if r.len < r.limit then grow r else r.dropped <- r.dropped + 1;
  let cap = Array.length r.buf in
  if r.len < cap then r.len <- r.len + 1;
  r.buf.(r.next) <- Some x;
  r.next <- (r.next + 1) mod cap

let clear r =
  Array.fill r.buf 0 (Array.length r.buf) None;
  r.next <- 0;
  r.len <- 0;
  r.dropped <- 0

(** Oldest-first snapshot of the live entries. *)
let to_list r =
  let cap = Array.length r.buf in
  let start = (r.next - r.len + cap) mod cap in
  List.init r.len (fun i ->
      match r.buf.((start + i) mod cap) with
      | Some x -> x
      | None -> invalid_arg "Ring.to_list: corrupt ring")

(** Oldest-first fold without materialising a list: walks the circular
    array in place (once per-request latency events run through the
    ring at campaign scale, a [to_list] per fold would allocate the
    whole window on every summary pass). *)
let fold f acc r =
  let cap = Array.length r.buf in
  let start = (r.next - r.len + cap) mod cap in
  let acc = ref acc in
  for i = 0 to r.len - 1 do
    match r.buf.((start + i) mod cap) with
    | Some x -> acc := f !acc x
    | None -> invalid_arg "Ring.fold: corrupt ring"
  done;
  !acc

let iter f r = fold (fun () x -> f x) () r
