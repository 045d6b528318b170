(* [spans] tracks the byte spans modified since the last
   {!reset_dirty_ranges} as a short sorted run of disjoint [lo, hi)
   pairs, [nspans] of them, flat in a preallocated int array
   ([spans.(2i)], [spans.(2i+1)]) that {!touch} edits in place: every
   mutation funnels through the primitives below, so a page adopted from
   a store image differs from that image only inside the tracked spans.
   The buffer pool exploits this to write back sub-page ranges instead of
   whole pages.

   [live] (bytes of live records) and [holes] (empty directory entries)
   are a cache of what a walk of the slot directory would count: computed
   once when the page is created or adopted and kept current by every
   primitive that changes the directory, so the free-space questions the
   heap asks after each mutation cost O(1). *)
type t = {
  data : bytes;
  size : int;
  spans : int array;
  mutable nspans : int;
  mutable live : int;
  mutable holes : int;
}

let min_page_size = 64
let max_page_size = 32768

let header_size = 4
let slot_entry_size = 4

(* Cap the spans so tracking stays O(1) per mutation; on overflow the two
   closest spans are merged (over-approximation is always safe).  The
   array has room for one span over the cap, briefly, before that merge. *)
let max_tracked_ranges = 4

let new_spans () = Array.make (2 * (max_tracked_ranges + 1)) 0

(* Move spans [from..nspans-1] to start at index [into]. *)
let shift_spans t ~from ~into =
  let r = t.spans in
  Array.blit r (2 * from) r (2 * into) (2 * (t.nspans - from));
  t.nspans <- t.nspans + into - from

let touch t off len =
  if len > 0 then begin
    let r = t.spans and lo = off and hi = off + len in
    (* Spans [i, j) overlap or abut [lo, hi) and fold into one. *)
    let i = ref 0 in
    while !i < t.nspans && r.((2 * !i) + 1) < lo do
      incr i
    done;
    let j = ref !i and mlo = ref lo and mhi = ref hi in
    while !j < t.nspans && r.(2 * !j) <= !mhi do
      mlo := min !mlo r.(2 * !j);
      mhi := max !mhi r.((2 * !j) + 1);
      incr j
    done;
    shift_spans t ~from:!j ~into:(!i + 1);
    r.(2 * !i) <- !mlo;
    r.((2 * !i) + 1) <- !mhi;
    if t.nspans > max_tracked_ranges then begin
      (* Merge the pair separated by the smallest gap. *)
      let besti = ref 0 and best = ref max_int in
      for k = 0 to t.nspans - 2 do
        let gap = r.(2 * (k + 1)) - r.((2 * k) + 1) in
        if gap < !best then begin
          best := gap;
          besti := k
        end
      done;
      let k = !besti in
      r.((2 * k) + 1) <- max r.((2 * k) + 1) r.((2 * k) + 3);
      shift_spans t ~from:(k + 2) ~into:(k + 1)
    end
  end

let dirty_ranges t =
  List.init t.nspans (fun i -> (t.spans.(2 * i), t.spans.((2 * i) + 1) - t.spans.(2 * i)))

let dirty_bytes t =
  let acc = ref 0 in
  for i = 0 to t.nspans - 1 do
    acc := !acc + t.spans.((2 * i) + 1) - t.spans.(2 * i)
  done;
  !acc

let reset_dirty_ranges t = t.nspans <- 0

let get_u16 b off = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

let set_u16 b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff))

let nslots t = get_u16 t.data 0
let free_ptr t = get_u16 t.data 2

let set_nslots t v =
  set_u16 t.data 0 v;
  touch t 0 2

let set_free_ptr t v =
  set_u16 t.data 2 v;
  touch t 2 2

let slot_off i = header_size + (slot_entry_size * i)
let slot_offset t i = get_u16 t.data (slot_off i)
let slot_length t i = get_u16 t.data (slot_off i + 2)

let set_slot t i ~off ~len =
  set_u16 t.data (slot_off i) off;
  set_u16 t.data (slot_off i + 2) len;
  touch t (slot_off i) slot_entry_size

let create ~page_size =
  if page_size < min_page_size || page_size > max_page_size then
    invalid_arg "Page.create: bad page size";
  let t =
    { data = Bytes.make page_size '\000'; size = page_size; spans = new_spans (); nspans = 0;
      live = 0; holes = 0 }
  in
  set_nslots t 0;
  set_free_ptr t page_size;
  t

let page_size t = t.size

let of_bytes data =
  let t =
    { data; size = Bytes.length data; spans = new_spans (); nspans = 0; live = 0; holes = 0 }
  in
  if t.size < min_page_size || t.size > max_page_size then
    failwith "Page.of_bytes: bad page size";
  (* A freshly-allocated page arrives zeroed: normalize it to a valid empty
     page (free_ptr = page end). *)
  if nslots t = 0 && free_ptr t = 0 then set_free_ptr t t.size;
  let n = nslots t in
  if header_size + (slot_entry_size * n) > free_ptr t || free_ptr t > t.size then
    failwith "Page.of_bytes: corrupt header";
  for i = 0 to n - 1 do
    if slot_offset t i <> 0 then t.live <- t.live + slot_length t i
    else t.holes <- t.holes + 1
  done;
  t

let bytes t = t.data

let slot_is_live t i = i >= 0 && i < nslots t && slot_offset t i <> 0

let live_records t = nslots t - t.holes

let dir_end t = header_size + (slot_entry_size * nslots t)

let live_bytes t = t.live

let first_empty_slot t =
  if t.holes = 0 then None
  else begin
    let n = nslots t in
    let rec go i = if i >= n then None else if slot_offset t i = 0 then Some i else go (i + 1) in
    go 0
  end

let free_space_for_insert t =
  let need_dir = if t.holes > 0 then 0 else slot_entry_size in
  max 0 (t.size - dir_end t - t.live - need_dir)

let compact t =
  (* Copy live records, highest offset first, back to the end of the page. *)
  let live =
    let acc = ref [] in
    for i = 0 to nslots t - 1 do
      if slot_offset t i <> 0 then acc := (i, slot_offset t i, slot_length t i) :: !acc
    done;
    List.sort (fun (_, o1, _) (_, o2, _) -> Int.compare o2 o1) !acc
  in
  let ptr = ref t.size in
  List.iter
    (fun (i, off, len) ->
      let record = Bytes.sub t.data off len in
      ptr := !ptr - len;
      Bytes.blit record 0 t.data !ptr len;
      set_slot t i ~off:!ptr ~len)
    live;
  touch t !ptr (t.size - !ptr);
  set_free_ptr t !ptr

let contiguous_free t = free_ptr t - dir_end t

let insert t record =
  let len = Bytes.length record in
  if len = 0 then invalid_arg "Page.insert: empty record";
  if len > t.size - header_size - slot_entry_size then
    invalid_arg "Page.insert: record larger than page capacity";
  let slot, dir_need =
    match first_empty_slot t with
    | Some i -> (i, 0)
    | None -> (nslots t, slot_entry_size)
  in
  if slot > 0xffff then None
  else if t.size - dir_end t - t.live - dir_need < len then None
  else begin
    if contiguous_free t - dir_need < len then compact t;
    if dir_need > 0 then set_nslots t (nslots t + 1) else t.holes <- t.holes - 1;
    let off = free_ptr t - len in
    Bytes.blit record 0 t.data off len;
    touch t off len;
    set_free_ptr t off;
    set_slot t slot ~off ~len;
    t.live <- t.live + len;
    Some slot
  end

let insert_at t slot record =
  let len = Bytes.length record in
  if len = 0 then invalid_arg "Page.insert_at: empty record";
  if slot < 0 || slot > 0xffff then invalid_arg "Page.insert_at: bad slot";
  if slot_is_live t slot then false
  else begin
    let extra_slots = max 0 (slot + 1 - nslots t) in
    let dir_need = slot_entry_size * extra_slots in
    if t.size - dir_end t - t.live - dir_need < len then false
    else begin
      if contiguous_free t - dir_need < len then compact t;
      if extra_slots > 0 then begin
        (* New directory entries must be zeroed (empty); all but [slot]
           itself stay holes. *)
        for i = nslots t to slot do
          set_slot t i ~off:0 ~len:0
        done;
        set_nslots t (slot + 1);
        t.holes <- t.holes + extra_slots - 1
      end
      else t.holes <- t.holes - 1;
      let off = free_ptr t - len in
      Bytes.blit record 0 t.data off len;
      touch t off len;
      set_free_ptr t off;
      set_slot t slot ~off ~len;
      t.live <- t.live + len;
      true
    end
  end

let read t i =
  if slot_is_live t i then Some (Bytes.sub t.data (slot_offset t i) (slot_length t i))
  else None

let delete t i =
  if slot_is_live t i then begin
    t.live <- t.live - slot_length t i;
    t.holes <- t.holes + 1;
    set_slot t i ~off:0 ~len:0;
    true
  end
  else false

let update t i record =
  if not (slot_is_live t i) then false
  else begin
    let len = Bytes.length record in
    if len = 0 then invalid_arg "Page.update: empty record";
    let old_len = slot_length t i in
    if len <= old_len then begin
      (* Rewrite in place; the record shrinks at its original offset, and
         a record of the same length keeps its directory entry as is. *)
      let off = slot_offset t i in
      Bytes.blit record 0 t.data off len;
      touch t off len;
      if len < old_len then set_slot t i ~off ~len;
      t.live <- t.live + len - old_len;
      true
    end
    else begin
      let slack = t.size - dir_end t - t.live in
      if slack < len - old_len then false
      else begin
        set_slot t i ~off:0 ~len:0;
        if contiguous_free t < len then compact t;
        let off = free_ptr t - len in
        Bytes.blit record 0 t.data off len;
        touch t off len;
        set_free_ptr t off;
        set_slot t i ~off ~len;
        t.live <- t.live + len - old_len;
        true
      end
    end
  end

let overwrite_tail t i src =
  if not (slot_is_live t i) then false
  else begin
    let k = Bytes.length src and len = slot_length t i in
    if k > len then false
    else begin
      let off = slot_offset t i + len - k in
      Bytes.blit src 0 t.data off k;
      touch t off k;
      true
    end
  end

let iter_live t f =
  for i = 0 to nslots t - 1 do
    match read t i with Some r -> f i r | None -> ()
  done

let fold_live t ~init ~f =
  let acc = ref init in
  iter_live t (fun i r -> acc := f !acc i r);
  !acc

let iter_live_spans t f =
  for i = 0 to nslots t - 1 do
    let off = slot_offset t i in
    if off <> 0 then f i ~off ~len:(slot_length t i)
  done

let validate t =
  let n = nslots t in
  let fp = free_ptr t in
  if header_size + (slot_entry_size * n) > fp then Error "directory overlaps records"
  else if fp > t.size then Error "free_ptr out of bounds"
  else begin
    let spans = ref [] in
    let bad = ref None in
    for i = 0 to n - 1 do
      let off = slot_offset t i and len = slot_length t i in
      if off <> 0 then begin
        if off < fp || off + len > t.size then
          bad := Some (Printf.sprintf "slot %d out of record area" i)
        else spans := (off, len) :: !spans
      end
    done;
    (match !bad with
    | Some _ -> ()
    | None ->
      let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) !spans in
      let rec overlap = function
        | (o1, l1) :: ((o2, _) :: _ as rest) ->
          if o1 + l1 > o2 then bad := Some "overlapping records" else overlap rest
        | _ -> ()
      in
      overlap sorted);
    match !bad with None -> Ok () | Some e -> Error e
  end
