exception Tuple_error of string

type t = {
  schema : Schema.t;
  pool : Buffer_pool.t;
  free_bytes : (int, int) Hashtbl.t;  (* data page -> insertable bytes *)
  reserve : int;  (* headroom kept per page for in-place record growth *)
  mutable count : int;
  mutable insert_hint : int;
      (* where first-fit starts: the page the last insert landed on, or
         lower if a delete freed space below it *)
}

let schema t = t.schema
let pool t = t.pool
let count t = t.count

let data_pages t = max 0 (Page_store.page_count (Buffer_pool.store t.pool) - 1)

let note_free t page_no free = Hashtbl.replace t.free_bytes page_no free

let noted_free t ~page = Hashtbl.find_opt t.free_bytes page

let scan_existing t =
  let store = Buffer_pool.store t.pool in
  for p = 1 to Page_store.page_count store - 1 do
    Buffer_pool.with_page t.pool p (fun page ->
        t.count <- t.count + Page.live_records page;
        note_free t p (Page.free_space_for_insert page);
        (`Clean, ()))
  done

let on_pool ?(fill_factor = 0.9) pool schema =
  if fill_factor <= 0.0 || fill_factor > 1.0 then
    invalid_arg "Heap.on_pool: fill factor must be in (0, 1]";
  let store = Buffer_pool.store pool in
  if Page_store.page_count store = 0 then
    ignore (Page_store.allocate store : int);
  let reserve =
    int_of_float ((1.0 -. fill_factor) *. float_of_int (Page_store.page_size store))
  in
  let t =
    { schema; pool; free_bytes = Hashtbl.create 64; reserve; count = 0; insert_hint = 1 }
  in
  scan_existing t;
  t

let create ?(page_size = 4096) ?(frames = 128) ?fill_factor schema =
  let store = Page_store.in_memory ~page_size () in
  on_pool ?fill_factor (Buffer_pool.create ~frames store) schema

let encode_checked t tuple =
  (match Schema.validate_tuple t.schema tuple with
  | Ok () -> ()
  | Error e -> raise (Tuple_error e));
  let record = Codec.tuple_bytes tuple in
  let store = Buffer_pool.store t.pool in
  if Bytes.length record > Page_store.page_size store - 16 then
    raise (Tuple_error "tuple too large for a page");
  record

let insert t tuple =
  let record = encode_checked t tuple in
  let store = Buffer_pool.store t.pool in
  let need = Bytes.length record in
  let try_page p =
    match Hashtbl.find_opt t.free_bytes p with
    | Some free when free >= need + t.reserve ->
      Buffer_pool.with_page t.pool p (fun page ->
          match Page.insert page record with
          | Some slot ->
            note_free t p (Page.free_space_for_insert page);
            (`Dirty, Some (Addr.make ~page:p ~slot))
          | None ->
            note_free t p (Page.free_space_for_insert page);
            (`Clean, None))
    | _ -> None
  in
  let rec find p =
    if p >= Page_store.page_count store then None
    else
      match try_page p with
      | Some addr -> Some addr
      | None -> find (p + 1)
  in
  let addr =
    match find (max 1 t.insert_hint) with
    | Some addr ->
      t.insert_hint <- Addr.page addr;
      addr
    | None ->
      let p = Buffer_pool.allocate_page t.pool in
      t.insert_hint <- p;
      Buffer_pool.with_page t.pool p (fun page ->
          (* A fresh page arrives zeroed, which decodes as an empty page. *)
          match Page.insert page record with
          | Some slot ->
            note_free t p (Page.free_space_for_insert page);
            (`Dirty, Addr.make ~page:p ~slot)
          | None -> raise (Tuple_error "tuple does not fit in an empty page"))
  in
  t.count <- t.count + 1;
  addr

let insert_at t addr tuple =
  let record = encode_checked t tuple in
  let store = Buffer_pool.store t.pool in
  let p = Addr.page addr in
  if p < 1 then invalid_arg "Heap.insert_at: bad page";
  while Page_store.page_count store <= p do
    ignore (Buffer_pool.allocate_page t.pool : int)
  done;
  let ok =
    Buffer_pool.with_page t.pool p (fun page ->
        if Page.insert_at page (Addr.slot addr) record then begin
          note_free t p (Page.free_space_for_insert page);
          (`Dirty, true)
        end
        else (`Clean, false))
  in
  if not ok then raise (Tuple_error "Heap.insert_at: slot live or page full");
  t.count <- t.count + 1

let with_entry t addr f =
  let store = Buffer_pool.store t.pool in
  let p = Addr.page addr in
  if p < 1 || p >= Page_store.page_count store then None
  else
    Buffer_pool.with_page t.pool p (fun page ->
        if Page.slot_is_live page (Addr.slot addr) then f p page (Addr.slot addr)
        else (`Clean, None))

let get t addr =
  match
    with_entry t addr (fun _ page slot ->
        match Page.read page slot with
        | Some record -> (`Clean, Some (Codec.tuple_of_bytes record))
        | None -> (`Clean, None))
  with
  | Some tuple -> Some tuple
  | None -> None

let mem t addr = get t addr <> None

let read_record t addr =
  Option.join
    (with_entry t addr (fun _ page slot -> (`Clean, Some (Page.read page slot))))

let update t addr tuple =
  let record = encode_checked t tuple in
  match
    with_entry t addr (fun p page slot ->
        if Page.update page slot record then begin
          note_free t p (Page.free_space_for_insert page);
          (`Dirty, Some ())
        end
        else raise (Tuple_error "updated tuple does not fit in its page"))
  with
  | Some () -> ()
  | None -> raise Not_found

let patch_tail t addr src =
  match
    with_entry t addr (fun _ page slot ->
        if Page.overwrite_tail page slot src then (`Dirty, Some ())
        else invalid_arg "Heap.patch_tail: record shorter than the patch")
  with
  | Some () -> ()
  | None -> raise Not_found

let delete t addr =
  match
    with_entry t addr (fun p page slot ->
        ignore (Page.delete page slot : bool);
        note_free t p (Page.free_space_for_insert page);
        (`Dirty, Some ()))
  with
  | Some () ->
    t.count <- t.count - 1;
    if Addr.page addr < t.insert_hint then t.insert_hint <- Addr.page addr
  | None -> raise Not_found

let iter_page t ~page:p f =
  let store = Buffer_pool.store t.pool in
  if p < 1 || p >= Page_store.page_count store then
    invalid_arg "Heap.iter_page: no such data page";
  (* Snapshot the live slots first so the callback may mutate the page
     (the combined fix-up/refresh scan updates the entry it visits). *)
  let slots =
    Buffer_pool.with_page t.pool p (fun page ->
        (`Clean, Page.fold_live page ~init:[] ~f:(fun acc slot record -> (slot, record) :: acc)))
  in
  List.iter
    (fun (slot, record) -> f (Addr.make ~page:p ~slot) (Codec.tuple_of_bytes record))
    (List.rev slots)

let load_page t ~arena ~page:p f =
  let store = Buffer_pool.store t.pool in
  if p < 1 || p >= Page_store.page_count store then
    invalid_arg "Heap.load_page: no such data page";
  Buffer_pool.with_page t.pool p (fun page ->
      Decode_arena.load arena page;
      ((if f page then `Dirty else `Clean), ()))

let iter t f =
  let store = Buffer_pool.store t.pool in
  for p = 1 to Page_store.page_count store - 1 do
    iter_page t ~page:p f
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun addr tuple -> acc := f !acc addr tuple);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc addr tuple -> (addr, tuple) :: acc))

let first_addr t =
  let exception Found of Addr.t in
  try
    iter t (fun addr _ -> raise (Found addr));
    None
  with Found a -> Some a

let last_addr t =
  fold t ~init:None ~f:(fun _ addr _ -> Some addr)

let flush t = Buffer_pool.flush_all t.pool

let validate t =
  let store = Buffer_pool.store t.pool in
  let problem = ref None in
  (try
     for p = 1 to Page_store.page_count store - 1 do
       Buffer_pool.with_page t.pool p (fun page ->
           (match Page.validate page with
           | Ok () ->
             Page.iter_live page (fun slot record ->
                 match Codec.tuple_of_bytes record with
                 | (_ : Tuple.t) -> ()
                 | exception Failure e ->
                   problem := Some (Printf.sprintf "page %d slot %d: %s" p slot e))
           | Error e -> problem := Some (Printf.sprintf "page %d: %s" p e));
           (`Clean, ()))
     done
   with Failure e -> problem := Some e);
  match !problem with None -> Ok () | Some e -> Error e
