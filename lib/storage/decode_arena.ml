(* A reusable scratch area for the zero-copy page paths.

   The classic decode loop ([Heap.iter_page]) allocates a fresh
   [Bytes.sub] per record plus a [(value, offset)] pair per field.  The
   arena path instead copies the pinned page image once into a reused
   scratch buffer and records the live-record spans in reused int arrays.
   The scans then [walk] each record, which records each field's offset
   without decoding anything, so a reader pays only for the fields it
   reads, and a sent row is a copy of its fields' bytes.

   An arena is single-domain scratch: each scan cursor owns one and
   reuses it across every page it reads.  [load] must run while the
   page is pinned; after it returns the arena holds a private snapshot,
   so [walk] and [fields] need no pin and are immune to concurrent page
   mutation (matching [Heap.iter_page]'s snapshot-then-decode
   contract). *)

type t = {
  mutable scratch : bytes;  (* page image copy; reused, grown as needed *)
  mutable slots : int array;  (* live slot numbers, ascending *)
  mutable offs : int array;  (* span offsets into [scratch] *)
  mutable lens : int array;  (* span lengths *)
  mutable n : int;  (* live spans recorded by the last [load] *)
  cur : Codec.Cursor.t;
  mutable field_offs : int array;  (* every walked record's field offsets, flat *)
  mutable field_base : int array;  (* record k's first field in [field_offs] *)
  mutable field_count : int array;  (* record k's field count *)
  view : Codec.Fields.t;  (* re-pointed by [fields] *)
}

let create () =
  let scratch = Bytes.create 4096 and field_offs = Array.make 256 0 in
  let view = Codec.Fields.create () in
  view.buf <- scratch;
  view.offs <- field_offs;
  {
    scratch;
    slots = Array.make 64 0;
    offs = Array.make 64 0;
    lens = Array.make 64 0;
    n = 0;
    cur = Codec.Cursor.create ();
    field_offs;
    field_base = Array.make 64 0;
    field_count = Array.make 64 0;
    view;
  }

let grow a cap = Array.init cap (fun i -> if i < Array.length a then a.(i) else 0)

let grow_spans t =
  let cap = 2 * Array.length t.slots in
  t.slots <- grow t.slots cap;
  t.offs <- grow t.offs cap;
  t.lens <- grow t.lens cap;
  t.field_base <- grow t.field_base cap;
  t.field_count <- grow t.field_count cap

let load t page =
  let size = Page.page_size page in
  if Bytes.length t.scratch < size then begin
    t.scratch <- Bytes.create size;
    t.view.buf <- t.scratch
  end;
  Bytes.blit (Page.bytes page) 0 t.scratch 0 size;
  t.n <- 0;
  Page.iter_live_spans page (fun slot ~off ~len ->
      if t.n >= Array.length t.slots then grow_spans t;
      t.slots.(t.n) <- slot;
      t.offs.(t.n) <- off;
      t.lens.(t.n) <- len;
      t.n <- t.n + 1)

let length t = t.n

let slot t k = t.slots.(k)

let walk t k =
  let at = if k = 0 then 0 else t.field_base.(k - 1) + t.field_count.(k - 1) in
  let len = t.lens.(k) in
  if at + len > Array.length t.field_offs then begin
    t.field_offs <- grow t.field_offs (max (at + len) (2 * Array.length t.field_offs));
    t.view.offs <- t.field_offs
  end;
  Codec.Cursor.set t.cur t.scratch ~pos:t.offs.(k) ~len;
  t.field_count.(k) <- Codec.Cursor.walk t.cur t.field_offs ~at;
  t.field_base.(k) <- at

(* [load] and [walk] keep the view's buffer and offset table current;
   re-pointing it at a record is two int writes. *)
let fields t k =
  let v = t.view in
  v.Codec.Fields.base <- t.field_base.(k);
  v.count <- t.field_count.(k);
  v

let filter t pred bits =
  if Bytes.length bits < t.n then invalid_arg "Decode_arena.filter: bitmap too short";
  let v = t.view in
  for k = 0 to t.n - 1 do
    v.Codec.Fields.base <- t.field_base.(k);
    v.count <- t.field_count.(k);
    Bytes.set bits k (if pred v then '\001' else '\000')
  done
