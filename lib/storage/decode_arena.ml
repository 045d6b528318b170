(* A reusable scratch area for the zero-copy page decode path.

   The classic decode loop ([Heap.iter_page]) allocates a fresh
   [Bytes.sub] per record plus a [(value, offset)] pair per field.  The
   arena path instead copies the pinned page image once into a reused
   scratch buffer, records the live-record spans in reused int arrays,
   and then decodes each record in place with a {!Codec.Cursor} — so per
   entry the only allocations left are the decoded values themselves.

   An arena is single-domain scratch: each scan cursor owns one and
   reuses it across every page it decodes.  [load] must run while the
   page is pinned; after it returns the arena holds a private snapshot,
   so [iter] needs no pin and is immune to concurrent page mutation
   (matching [Heap.iter_page]'s snapshot-then-decode contract). *)

type t = {
  mutable scratch : bytes;  (* page image copy; reused, grown as needed *)
  mutable slots : int array;  (* live slot numbers, ascending *)
  mutable offs : int array;  (* span offsets into [scratch] *)
  mutable lens : int array;  (* span lengths *)
  mutable n : int;  (* live spans recorded by the last [load] *)
  cur : Codec.Cursor.t;
}

let create () =
  {
    scratch = Bytes.create 4096;
    slots = Array.make 64 0;
    offs = Array.make 64 0;
    lens = Array.make 64 0;
    n = 0;
    cur = Codec.Cursor.create ();
  }

let grow_spans t =
  let cap = 2 * Array.length t.slots in
  let copy a = Array.init cap (fun i -> if i < Array.length a then a.(i) else 0) in
  t.slots <- copy t.slots;
  t.offs <- copy t.offs;
  t.lens <- copy t.lens

let load t page =
  let size = Page.page_size page in
  if Bytes.length t.scratch < size then t.scratch <- Bytes.create size;
  Bytes.blit (Page.bytes page) 0 t.scratch 0 size;
  t.n <- 0;
  Page.iter_live_spans page (fun slot ~off ~len ->
      if t.n >= Array.length t.slots then grow_spans t;
      t.slots.(t.n) <- slot;
      t.offs.(t.n) <- off;
      t.lens.(t.n) <- len;
      t.n <- t.n + 1)

let iter t f =
  for k = 0 to t.n - 1 do
    Codec.Cursor.set t.cur t.scratch ~pos:t.offs.(k) ~len:t.lens.(k);
    let tuple = Codec.Cursor.tuple t.cur in
    if not (Codec.Cursor.at_end t.cur) then
      failwith "Tuple.decode_exactly: trailing bytes";
    f t.slots.(k) tuple
  done
