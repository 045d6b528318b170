(* Tests for snapdiff_storage: value/tuple codecs, schemas, slotted pages,
   page stores, buffer pool, heap tables. *)

open Snapdiff_storage

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let value = Alcotest.testable Value.pp Value.equal
let tuple = Alcotest.testable Tuple.pp Tuple.equal

(* ------------------------------------------------------------------ *)
(* Values *)

let sample_values =
  [
    Value.Null;
    Value.Int 0L;
    Value.Int Int64.max_int;
    Value.Int Int64.min_int;
    Value.Int (-42L);
    Value.Float 3.14159;
    Value.Float (-0.0);
    Value.Float infinity;
    Value.Str "";
    Value.Str "hello world";
    Value.Str (String.make 1000 'x');
    Value.Bool true;
    Value.Bool false;
  ]

let test_value_roundtrip () =
  List.iter
    (fun v ->
      let b = Codec.tuple_bytes [| v |] in
      checki "tuple_size exact" (Bytes.length b) (Codec.tuple_size [| v |]);
      let c = Codec.Cursor.over b in
      checki "one field" 1 (Codec.Cursor.u16 c);
      Alcotest.check value "roundtrip" v (Codec.Cursor.value c);
      checkb "consumed all" true (Codec.Cursor.at_end c))
    sample_values

let test_value_decode_garbage () =
  let value_of s = Codec.Cursor.value (Codec.Cursor.over (Bytes.of_string s)) in
  Alcotest.check_raises "bad tag" (Failure "Codec: bad tag") (fun () ->
      ignore (value_of "\255"));
  Alcotest.check_raises "truncated" (Failure "Codec: truncated") (fun () ->
      ignore (value_of "\001\000"))

let test_value_compare_order () =
  checkb "null first" true (Value.compare Value.Null (Value.Int 0L) < 0);
  checkb "int order" true (Value.compare (Value.Int 1L) (Value.Int 2L) < 0);
  checkb "str order" true (Value.compare (Value.Str "a") (Value.Str "b") < 0);
  checki "equal" 0 (Value.compare (Value.Bool true) (Value.Bool true))

let test_value_types () =
  checkb "null has every type" true (Value.has_type Value.Null Value.Tint);
  checkb "int is int" true (Value.has_type (Value.Int 1L) Value.Tint);
  checkb "int is not string" false (Value.has_type (Value.Int 1L) Value.Tstring)

(* ------------------------------------------------------------------ *)
(* Schemas *)

let emp_schema =
  Schema.make
    [ Schema.col ~nullable:false "name" Value.Tstring; Schema.col "salary" Value.Tint ]

let test_schema_lookup () =
  checki "arity" 2 (Schema.arity emp_schema);
  Alcotest.(check (option int)) "name idx" (Some 0) (Schema.index_of emp_schema "name");
  Alcotest.(check (option int)) "case-insensitive" (Some 1) (Schema.index_of emp_schema "SALARY");
  Alcotest.(check (option int)) "missing" None (Schema.index_of emp_schema "age")

let test_schema_duplicate_rejected () =
  Alcotest.check_raises "dup" (Invalid_argument "Schema.make: duplicate column \"A\"")
    (fun () -> ignore (Schema.make [ Schema.col "a" Value.Tint; Schema.col "A" Value.Tint ]))

let test_schema_extend_project () =
  let ext = Schema.extend emp_schema [ Schema.col "__timestamp" Value.Tint ] in
  checki "extended arity" 3 (Schema.arity ext);
  checkb "hidden detected" true (Schema.is_hidden (Schema.column ext 2));
  checki "visible" 2 (List.length (Schema.visible_columns ext));
  let proj = Schema.project ext [ "salary" ] in
  checki "projected arity" 1 (Schema.arity proj)

let test_schema_validate_tuple () =
  let ok = Schema.validate_tuple emp_schema [| Value.str "Bruce"; Value.int 15 |] in
  checkb "valid" true (ok = Ok ());
  checkb "null in not-null" true
    (Schema.validate_tuple emp_schema [| Value.Null; Value.int 1 |] <> Ok ());
  checkb "wrong type" true
    (Schema.validate_tuple emp_schema [| Value.str "x"; Value.str "y" |] <> Ok ());
  checkb "wrong arity" true (Schema.validate_tuple emp_schema [| Value.str "x" |] <> Ok ())

(* ------------------------------------------------------------------ *)
(* Tuples *)

let test_tuple_roundtrip () =
  let t = Tuple.make [ Value.str "Bruce"; Value.int 15; Value.Null; Value.Bool false ] in
  let b = Codec.tuple_bytes t in
  Alcotest.check tuple "roundtrip" t (Codec.tuple_of_bytes b);
  checki "size exact" (Tuple.encoded_size t) (Bytes.length b)

let test_tuple_ops () =
  let t = Tuple.make [ Value.str "a"; Value.int 1 |> fun v -> v ] in
  let t2 = Tuple.set t 1 (Value.int 2) in
  Alcotest.check value "set" (Value.int 2) (Tuple.get t2 1);
  Alcotest.check value "original untouched" (Value.int 1) (Tuple.get t 1);
  Alcotest.check value "by name" (Value.str "a") (Tuple.get_by_name emp_schema t "name");
  let p = Tuple.project emp_schema t [ "salary"; "name" ] in
  Alcotest.check tuple "project reorders" (Tuple.make [ Value.int 1; Value.str "a" ]) p

let test_tuple_compare () =
  let a = Tuple.make [ Value.int 1; Value.str "x" ] in
  let b = Tuple.make [ Value.int 1; Value.str "y" ] in
  checkb "lex" true (Tuple.compare a b < 0);
  checkb "prefix shorter" true (Tuple.compare (Tuple.make [ Value.int 1 ]) a < 0)

(* ------------------------------------------------------------------ *)
(* Pages *)

let record s = Bytes.of_string s

let test_page_insert_read () =
  let p = Page.create ~page_size:256 in
  let s0 = Option.get (Page.insert p (record "alpha")) in
  let s1 = Option.get (Page.insert p (record "beta")) in
  checki "slots sequential" 0 s0;
  checki "slots sequential" 1 s1;
  checks "read back" "alpha" (Bytes.to_string (Option.get (Page.read p 0)));
  checks "read back" "beta" (Bytes.to_string (Option.get (Page.read p 1)));
  checkb "missing slot" true (Page.read p 2 = None);
  checkb "validate" true (Page.validate p = Ok ())

let test_page_delete_and_slot_reuse () =
  let p = Page.create ~page_size:256 in
  ignore (Page.insert p (record "a"));
  ignore (Page.insert p (record "b"));
  ignore (Page.insert p (record "c"));
  checkb "delete live" true (Page.delete p 1);
  checkb "delete dead" false (Page.delete p 1);
  checkb "slot dead" false (Page.slot_is_live p 1);
  checki "live count" 2 (Page.live_records p);
  (* The lowest empty slot is reused. *)
  checki "reuse slot 1" 1 (Option.get (Page.insert p (record "B2")));
  checks "new content" "B2" (Bytes.to_string (Option.get (Page.read p 1)))

let test_page_fill_and_compact () =
  let p = Page.create ~page_size:128 in
  (* Fill the page with small records until refusal. *)
  let inserted = ref 0 in
  (try
     while true do
       match Page.insert p (record "0123456789") with
       | Some _ -> incr inserted
       | None -> raise Exit
     done
   with Exit -> ());
  checkb "held several" true (!inserted >= 5);
  checkb "full refuses" true (Page.insert p (record "0123456789") = None);
  (* Delete two, then a record of double size must fit via compaction. *)
  checkb "del 0" true (Page.delete p 0);
  checkb "del 2" true (Page.delete p 2);
  checkb "compacted insert fits" true (Page.insert p (record "01234567890123456789") <> None);
  checkb "validate after compaction" true (Page.validate p = Ok ())

let test_page_update_in_place_and_grow () =
  let p = Page.create ~page_size:256 in
  let s = Option.get (Page.insert p (record "short")) in
  checkb "shrink" true (Page.update p s (record "sh"));
  checks "shrunk" "sh" (Bytes.to_string (Option.get (Page.read p s)));
  checkb "grow" true (Page.update p s (record (String.make 50 'z')));
  checks "grown" (String.make 50 'z') (Bytes.to_string (Option.get (Page.read p s)));
  checkb "update dead slot" false (Page.update p 99 (record "x"));
  checkb "validate" true (Page.validate p = Ok ())

let test_page_update_too_big_fails_cleanly () =
  let p = Page.create ~page_size:128 in
  let s = Option.get (Page.insert p (record "aaaa")) in
  ignore (Page.insert p (record (String.make 80 'b')));
  checkb "no room to grow" false (Page.update p s (record (String.make 60 'c')));
  checks "original intact" "aaaa" (Bytes.to_string (Option.get (Page.read p s)))

let test_page_insert_at () =
  let p = Page.create ~page_size:256 in
  checkb "place at 3" true (Page.insert_at p 3 (record "three"));
  checki "directory grew" 4 (Page.nslots p);
  checkb "slots 0-2 empty" true (not (Page.slot_is_live p 0));
  checkb "occupied refused" false (Page.insert_at p 3 (record "again"));
  checkb "fill another" true (Page.insert_at p 0 (record "zero"));
  checks "read 3" "three" (Bytes.to_string (Option.get (Page.read p 3)));
  checkb "validate" true (Page.validate p = Ok ())

let test_page_of_bytes_roundtrip () =
  let p = Page.create ~page_size:256 in
  ignore (Page.insert p (record "persist me"));
  let q = Page.of_bytes (Bytes.copy (Page.bytes p)) in
  checks "round trip" "persist me" (Bytes.to_string (Option.get (Page.read q 0)))

let test_page_zeroed_is_empty () =
  let q = Page.of_bytes (Bytes.make 256 '\000') in
  checki "no slots" 0 (Page.nslots q);
  checkb "can insert" true (Page.insert q (record "x") <> None)

let test_page_iter_order () =
  let p = Page.create ~page_size:512 in
  for i = 0 to 9 do
    ignore (Page.insert p (record (string_of_int i)))
  done;
  ignore (Page.delete p 4);
  let seen = Page.fold_live p ~init:[] ~f:(fun acc slot _ -> slot :: acc) in
  Alcotest.(check (list int)) "ascending slots" [ 0; 1; 2; 3; 5; 6; 7; 8; 9 ] (List.rev seen)

(* ------------------------------------------------------------------ *)
(* Page stores *)

let test_mem_store_basics () =
  let s = Page_store.in_memory ~page_size:256 () in
  checki "empty" 0 (Page_store.page_count s);
  let p0 = Page_store.allocate s in
  checki "first page" 0 p0;
  let img = Bytes.make 256 'A' in
  Page_store.write s p0 img;
  checks "read back" (Bytes.to_string img) (Bytes.to_string (Page_store.read s p0));
  (* Stores copy on write: mutating the caller's buffer must not leak in. *)
  Bytes.fill img 0 256 'B';
  checks "isolated" (String.make 256 'A') (Bytes.to_string (Page_store.read s p0));
  Alcotest.check_raises "bad page" (Page_store.Bad_page 7) (fun () ->
      ignore (Page_store.read s 7))

let with_tmp_file f =
  let path = Filename.temp_file "snapdiff_test" ".db" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_file_store_persists () =
  with_tmp_file (fun path ->
      let s = Page_store.open_file ~page_size:256 path in
      let p = Page_store.allocate s in
      Page_store.write s p (Bytes.make 256 'Z');
      Page_store.sync s;
      Page_store.close s;
      let s2 = Page_store.open_file path in
      checki "page size recovered" 256 (Page_store.page_size s2);
      checki "page count recovered" 1 (Page_store.page_count s2);
      checks "data recovered" (String.make 256 'Z') (Bytes.to_string (Page_store.read s2 p));
      Page_store.close s2)

let test_file_store_rejects_mismatch () =
  with_tmp_file (fun path ->
      let s = Page_store.open_file ~page_size:256 path in
      Page_store.close s;
      Alcotest.check_raises "mismatch" (Failure "Page_store.open_file: page size mismatch")
        (fun () -> ignore (Page_store.open_file ~page_size:512 path)))

(* ------------------------------------------------------------------ *)
(* Buffer pool *)

let test_buffer_pool_caching () =
  let s = Page_store.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~frames:2 s in
  let p0 = Buffer_pool.allocate_page bp in
  let p1 = Buffer_pool.allocate_page bp in
  let p2 = Buffer_pool.allocate_page bp in
  let touch n =
    Buffer_pool.with_page bp n (fun page ->
        ignore (Page.nslots page);
        (`Clean, ()))
  in
  touch p0;
  touch p0;
  let st = Buffer_pool.stats bp in
  checki "one miss" 1 st.Buffer_pool.misses;
  checki "one hit" 1 st.Buffer_pool.hits;
  touch p1;
  touch p2;
  (* Capacity 2: loading p2 must evict someone. *)
  checkb "evicted" true ((Buffer_pool.stats bp).Buffer_pool.evictions >= 1)

let test_buffer_pool_writeback () =
  let s = Page_store.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~frames:4 s in
  let p0 = Buffer_pool.allocate_page bp in
  Buffer_pool.with_page bp p0 (fun page ->
      ignore (Page.insert page (Bytes.of_string "dirty data"));
      (`Dirty, ()));
  (* Not yet written back. *)
  let raw = Page_store.read s p0 in
  checkb "store still clean" true (Page.read (Page.of_bytes raw) 0 = None);
  Buffer_pool.flush_all bp;
  let raw = Page_store.read s p0 in
  checks "flushed" "dirty data" (Bytes.to_string (Option.get (Page.read (Page.of_bytes raw) 0)))

let test_buffer_pool_eviction_preserves_data () =
  let s = Page_store.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~frames:2 s in
  let pages = List.init 6 (fun _ -> Buffer_pool.allocate_page bp) in
  List.iteri
    (fun i p ->
      Buffer_pool.with_page bp p (fun page ->
          ignore (Page.insert page (Bytes.of_string (Printf.sprintf "page %d" i)));
          (`Dirty, ())))
    pages;
  List.iteri
    (fun i p ->
      Buffer_pool.with_page bp p (fun page ->
          checks "data survived eviction"
            (Printf.sprintf "page %d" i)
            (Bytes.to_string (Option.get (Page.read page 0)));
          (`Clean, ())))
    pages

let test_buffer_pool_invalidate () =
  let s = Page_store.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~frames:4 s in
  let p0 = Buffer_pool.allocate_page bp in
  Buffer_pool.with_page bp p0 (fun page ->
      ignore (Page.insert page (Bytes.of_string "x"));
      (`Dirty, ()));
  Buffer_pool.invalidate bp;
  Buffer_pool.with_page bp p0 (fun page ->
      checkb "flushed then dropped: data still there" true (Page.read page 0 <> None);
      (`Clean, ()))

(* A page number outside the store is rejected before the pool touches
   any frame: a full pool with dirty frames neither evicts nor writes
   back, and the failed access counts as neither hit nor miss. *)
let test_buffer_pool_bad_page_evicts_nothing () =
  let s = Page_store.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~frames:2 s in
  let p0 = Buffer_pool.allocate_page bp in
  let p1 = Buffer_pool.allocate_page bp in
  List.iter
    (fun p ->
      Buffer_pool.with_page bp p (fun page ->
          ignore (Page.insert page (Bytes.of_string "dirty"));
          (`Dirty, ())))
    [ p0; p1 ];
  let st0 = Buffer_pool.stats bp in
  List.iter
    (fun bad ->
      Alcotest.check_raises "bad page" (Page_store.Bad_page bad) (fun () ->
          Buffer_pool.with_page bp bad (fun _ -> (`Clean, ()))))
    [ 99; -1 ];
  let st1 = Buffer_pool.stats bp in
  checki "evictions unchanged" st0.Buffer_pool.evictions st1.Buffer_pool.evictions;
  checki "writebacks unchanged" st0.Buffer_pool.writebacks st1.Buffer_pool.writebacks;
  checki "misses unchanged" st0.Buffer_pool.misses st1.Buffer_pool.misses;
  checki "hits unchanged" st0.Buffer_pool.hits st1.Buffer_pool.hits;
  List.iter
    (fun p ->
      Buffer_pool.with_page bp p (fun page ->
          checkb "dirty frame still resident" true (Page.read page 0 <> None);
          (`Clean, ())))
    [ p0; p1 ];
  checki "both frames hit afterwards" (st0.Buffer_pool.hits + 2)
    (Buffer_pool.stats bp).Buffer_pool.hits

(* Exact LRU on a 3-frame pool: each access's hit/miss is scripted, so a
   miss on a page shows it was the previous victim.  Comments give the
   resident pages oldest first ( * = pinned). *)
let test_buffer_pool_exact_lru () =
  let s = Page_store.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~frames:3 ~policy:Buffer_pool.Lru s in
  for _ = 0 to 5 do
    ignore (Buffer_pool.allocate_page bp : int)
  done;
  let access n expect =
    let st0 = Buffer_pool.stats bp in
    Buffer_pool.with_page bp n (fun _ -> (`Clean, ()));
    let missed = (Buffer_pool.stats bp).Buffer_pool.misses > st0.Buffer_pool.misses in
    checkb (Printf.sprintf "page %d %s" n (if expect = `Miss then "misses" else "hits"))
      (expect = `Miss) missed
  in
  access 0 `Miss;  (* 0 *)
  access 1 `Miss;  (* 0 1 *)
  access 2 `Miss;  (* 0 1 2 *)
  access 0 `Hit;  (* 1 2 0 *)
  access 3 `Miss;  (* victim 1: 2 0 3 *)
  access 1 `Miss;  (* victim 2: 0 3 1 *)
  access 2 `Miss;  (* victim 0: 3 1 2 *)
  access 3 `Hit;  (* 1 2 3 *)
  access 0 `Miss;  (* victim 1: 2 3 0 *)
  Buffer_pool.with_page bp 0 (fun _ ->
      (* 2 3 0* *)
      access 2 `Hit;  (* 3 0* 2 *)
      access 3 `Hit;  (* 0* 2 3: the LRU frame is pinned *)
      access 4 `Miss;  (* victim 2, the next-oldest: 0* 3 4 *)
      access 2 `Miss;  (* victim 3: 0* 4 2 *)
      access 4 `Hit;  (* 0* 2 4 *)
      (`Clean, ()));
  access 5 `Miss;  (* unpinned 0 is oldest again, victim 0: 2 4 5 *)
  access 0 `Miss;  (* victim 2: 4 5 0 *)
  access 4 `Hit;
  access 5 `Hit;
  checki "evictions" 8 (Buffer_pool.stats bp).Buffer_pool.evictions

(* ------------------------------------------------------------------ *)
(* Heap *)

let mk_emp name salary = Tuple.make [ Value.str name; Value.int salary ]

let test_heap_insert_get () =
  let h = Heap.create ~page_size:256 emp_schema in
  let a = Heap.insert h (mk_emp "Bruce" 15) in
  let b = Heap.insert h (mk_emp "Laura" 6) in
  checkb "distinct addrs" true (not (Addr.equal a b));
  Alcotest.check (Alcotest.option tuple) "get a" (Some (mk_emp "Bruce" 15)) (Heap.get h a);
  Alcotest.check (Alcotest.option tuple) "get b" (Some (mk_emp "Laura" 6)) (Heap.get h b);
  checki "count" 2 (Heap.count h);
  checkb "validate" true (Heap.validate h = Ok ())

let test_heap_rejects_bad_tuple () =
  let h = Heap.create emp_schema in
  Alcotest.check_raises "type error" (Heap.Tuple_error "column salary expects INT, got 'oops'")
    (fun () -> ignore (Heap.insert h (Tuple.make [ Value.str "x"; Value.str "oops" ])))

let test_heap_update_delete () =
  let h = Heap.create ~page_size:256 emp_schema in
  let a = Heap.insert h (mk_emp "Hamid" 9) in
  Heap.update h a (mk_emp "Hamid" 15);
  Alcotest.check (Alcotest.option tuple) "updated" (Some (mk_emp "Hamid" 15)) (Heap.get h a);
  Heap.delete h a;
  checkb "gone" true (Heap.get h a = None);
  checki "count" 0 (Heap.count h);
  Alcotest.check_raises "double delete" Not_found (fun () -> Heap.delete h a);
  Alcotest.check_raises "update missing" Not_found (fun () -> Heap.update h a (mk_emp "x" 1))

let test_heap_scan_order () =
  let h = Heap.create ~page_size:128 emp_schema in
  (* Enough tuples to span several pages. *)
  let addrs = List.init 40 (fun i -> Heap.insert h (mk_emp (Printf.sprintf "e%02d" i) i)) in
  checkb "multiple pages" true (Heap.data_pages h > 1);
  let scanned = List.map fst (Heap.to_list h) in
  checki "all scanned" 40 (List.length scanned);
  let sorted = List.sort Addr.compare scanned in
  checkb "address order" true (scanned = sorted);
  checkb "same set" true (List.sort Addr.compare addrs = sorted)

let test_heap_address_reuse () =
  let h = Heap.create ~page_size:128 emp_schema in
  let addrs = List.init 20 (fun i -> Heap.insert h (mk_emp (Printf.sprintf "e%02d" i) i)) in
  let victim = List.nth addrs 3 in
  Heap.delete h victim;
  let fresh = Heap.insert h (mk_emp "reuser" 99) in
  checkb "lowest empty address reused" true (Addr.equal fresh victim)

let test_heap_insert_at () =
  let h = Heap.create ~page_size:256 emp_schema in
  let addr = Addr.make ~page:3 ~slot:2 in
  Heap.insert_at h addr (mk_emp "placed" 1);
  Alcotest.check (Alcotest.option tuple) "get placed" (Some (mk_emp "placed" 1)) (Heap.get h addr);
  checki "count" 1 (Heap.count h);
  Alcotest.check_raises "occupied" (Heap.Tuple_error "Heap.insert_at: slot live or page full")
    (fun () -> Heap.insert_at h addr (mk_emp "again" 2));
  (* Scan still works with the gap pages. *)
  checki "scan finds it" 1 (List.length (Heap.to_list h))

let test_heap_update_during_iter () =
  let h = Heap.create ~page_size:256 emp_schema in
  let _ = List.init 10 (fun i -> Heap.insert h (mk_emp (Printf.sprintf "e%d" i) i)) in
  (* Give everyone a raise mid-scan (what the fix-up pass does). *)
  Heap.iter h (fun addr t ->
      let salary = match Tuple.get t 1 with Value.Int s -> Int64.to_int s | _ -> 0 in
      Heap.update h addr (Tuple.set t 1 (Value.int (salary + 100))));
  Heap.iter h (fun _ t ->
      match Tuple.get t 1 with
      | Value.Int s -> checkb "raised" true (Int64.to_int s >= 100)
      | _ -> Alcotest.fail "bad salary")

let test_heap_first_last () =
  let h = Heap.create ~page_size:256 emp_schema in
  checkb "empty first" true (Heap.first_addr h = None);
  let a = Heap.insert h (mk_emp "a" 1) in
  let b = Heap.insert h (mk_emp "b" 2) in
  Alcotest.(check (option int)) "first" (Some a) (Heap.first_addr h);
  Alcotest.(check (option int)) "last" (Some b) (Heap.last_addr h)

let test_heap_large_population () =
  let h = Heap.create ~page_size:1024 ~frames:8 emp_schema in
  let n = 2000 in
  for i = 0 to n - 1 do
    ignore (Heap.insert h (mk_emp (Printf.sprintf "emp%04d" i) (i mod 100)))
  done;
  checki "count" n (Heap.count h);
  checki "scan" n (List.length (Heap.to_list h));
  checkb "validate" true (Heap.validate h = Ok ());
  (* Delete every third, count again. *)
  let deleted = ref 0 in
  List.iteri
    (fun i (addr, _) ->
      if i mod 3 = 0 then begin
        Heap.delete h addr;
        incr deleted
      end)
    (Heap.to_list h);
  checki "count after deletes" (n - !deleted) (Heap.count h)

let test_heap_persists_through_pool () =
  with_tmp_file (fun path ->
      let store = Page_store.open_file ~page_size:512 path in
      let pool = Buffer_pool.create ~frames:4 store in
      let h = Heap.on_pool pool emp_schema in
      let a = Heap.insert h (mk_emp "durable" 7) in
      Heap.flush h;
      Page_store.close store;
      let store2 = Page_store.open_file path in
      let pool2 = Buffer_pool.create ~frames:4 store2 in
      let h2 = Heap.on_pool pool2 emp_schema in
      checki "count recovered" 1 (Heap.count h2);
      Alcotest.check (Alcotest.option tuple) "tuple recovered" (Some (mk_emp "durable" 7))
        (Heap.get h2 a);
      Page_store.close store2)

(* Review regression: a sub-page writeback must count as ONE page write,
   however many dirty ranges carry it, so [writes_performed] stays
   comparable between whole-page and ranged write-back configurations. *)
let test_write_ranges_count_one_page_write () =
  let s = Page_store.in_memory ~page_size:256 () in
  let n = Page_store.allocate s in
  let w0 = Page_store.writes_performed s in
  let page = Bytes.make 256 'x' in
  Page_store.write_ranges s n page [ (0, 10); (50, 20); (100, 0) ];
  checki "one page write for three ranges" (w0 + 1) (Page_store.writes_performed s);
  checki "two non-empty range writes" 2 (Page_store.range_writes_performed s);
  checki "bytes = sum of ranges" 30 (Page_store.bytes_written s);
  Page_store.write_ranges s n page [];
  Page_store.write_ranges s n page [ (0, 0) ];
  checki "empty writebacks count nothing" (w0 + 1) (Page_store.writes_performed s);
  Page_store.write_range s n page ~off:200 ~len:8;
  checki "write_range is one write" (w0 + 2) (Page_store.writes_performed s);
  Page_store.write s n page;
  checki "whole-page write is one write" (w0 + 3) (Page_store.writes_performed s);
  Alcotest.check_raises "range out of bounds"
    (Invalid_argument "Page_store.write_range: range out of bounds") (fun () ->
      Page_store.write_ranges s n page [ (250, 10) ])

let test_addr_packing () =
  let a = Addr.make ~page:5 ~slot:7 in
  checki "page" 5 (Addr.page a);
  checki "slot" 7 (Addr.slot a);
  checkb "order by page then slot" true
    (Addr.compare (Addr.make ~page:1 ~slot:9) (Addr.make ~page:2 ~slot:0) < 0);
  checkb "zero below all" true (Addr.compare Addr.zero (Addr.make ~page:1 ~slot:0) < 0);
  Alcotest.check_raises "page 0 reserved" (Invalid_argument "Addr.make: page must be >= 1")
    (fun () -> ignore (Addr.make ~page:0 ~slot:0))

let suite =
  [
    Alcotest.test_case "write_ranges counts one page write" `Quick
      test_write_ranges_count_one_page_write;
    Alcotest.test_case "value roundtrip" `Quick test_value_roundtrip;
    Alcotest.test_case "value decode garbage" `Quick test_value_decode_garbage;
    Alcotest.test_case "value compare" `Quick test_value_compare_order;
    Alcotest.test_case "value types" `Quick test_value_types;
    Alcotest.test_case "schema lookup" `Quick test_schema_lookup;
    Alcotest.test_case "schema dup rejected" `Quick test_schema_duplicate_rejected;
    Alcotest.test_case "schema extend/project" `Quick test_schema_extend_project;
    Alcotest.test_case "schema validate tuple" `Quick test_schema_validate_tuple;
    Alcotest.test_case "tuple roundtrip" `Quick test_tuple_roundtrip;
    Alcotest.test_case "tuple ops" `Quick test_tuple_ops;
    Alcotest.test_case "tuple compare" `Quick test_tuple_compare;
    Alcotest.test_case "page insert/read" `Quick test_page_insert_read;
    Alcotest.test_case "page delete + slot reuse" `Quick test_page_delete_and_slot_reuse;
    Alcotest.test_case "page fill + compact" `Quick test_page_fill_and_compact;
    Alcotest.test_case "page update" `Quick test_page_update_in_place_and_grow;
    Alcotest.test_case "page update too big" `Quick test_page_update_too_big_fails_cleanly;
    Alcotest.test_case "page insert_at" `Quick test_page_insert_at;
    Alcotest.test_case "page of_bytes" `Quick test_page_of_bytes_roundtrip;
    Alcotest.test_case "page zeroed" `Quick test_page_zeroed_is_empty;
    Alcotest.test_case "page iter order" `Quick test_page_iter_order;
    Alcotest.test_case "mem store" `Quick test_mem_store_basics;
    Alcotest.test_case "file store persists" `Quick test_file_store_persists;
    Alcotest.test_case "file store mismatch" `Quick test_file_store_rejects_mismatch;
    Alcotest.test_case "buffer pool caching" `Quick test_buffer_pool_caching;
    Alcotest.test_case "buffer pool writeback" `Quick test_buffer_pool_writeback;
    Alcotest.test_case "buffer pool eviction" `Quick test_buffer_pool_eviction_preserves_data;
    Alcotest.test_case "buffer pool invalidate" `Quick test_buffer_pool_invalidate;
    Alcotest.test_case "buffer pool: bad page evicts nothing" `Quick
      test_buffer_pool_bad_page_evicts_nothing;
    Alcotest.test_case "buffer pool: exact LRU victims" `Quick test_buffer_pool_exact_lru;
    Alcotest.test_case "heap insert/get" `Quick test_heap_insert_get;
    Alcotest.test_case "heap rejects bad tuple" `Quick test_heap_rejects_bad_tuple;
    Alcotest.test_case "heap update/delete" `Quick test_heap_update_delete;
    Alcotest.test_case "heap scan order" `Quick test_heap_scan_order;
    Alcotest.test_case "heap address reuse" `Quick test_heap_address_reuse;
    Alcotest.test_case "heap insert_at" `Quick test_heap_insert_at;
    Alcotest.test_case "heap update during iter" `Quick test_heap_update_during_iter;
    Alcotest.test_case "heap first/last" `Quick test_heap_first_last;
    Alcotest.test_case "heap large population" `Quick test_heap_large_population;
    Alcotest.test_case "heap persistence" `Quick test_heap_persists_through_pool;
    Alcotest.test_case "addr packing" `Quick test_addr_packing;
  ]

(* Appended: second-chance eviction policy. *)
let test_buffer_pool_second_chance () =
  let s = Page_store.in_memory ~page_size:256 () in
  let bp = Buffer_pool.create ~frames:2 ~policy:Buffer_pool.Second_chance s in
  let pages = List.init 6 (fun _ -> Buffer_pool.allocate_page bp) in
  List.iteri
    (fun i p ->
      Buffer_pool.with_page bp p (fun page ->
          ignore (Page.insert page (Bytes.of_string (Printf.sprintf "sc %d" i)));
          (`Dirty, ())))
    pages;
  (* Everything still readable after evictions under the clock sweep. *)
  List.iteri
    (fun i p ->
      Buffer_pool.with_page bp p (fun page ->
          checks "second-chance preserved data"
            (Printf.sprintf "sc %d" i)
            (Bytes.to_string (Option.get (Page.read page 0)));
          (`Clean, ())))
    pages;
  checkb "evictions happened" true ((Buffer_pool.stats bp).Buffer_pool.evictions >= 4);
  Buffer_pool.invalidate bp;
  Buffer_pool.with_page bp (List.hd pages) (fun page ->
      checkb "usable after invalidate" true (Page.read page 0 <> None);
      (`Clean, ()))

let test_heap_on_second_chance_pool () =
  let store = Page_store.in_memory ~page_size:512 () in
  let pool = Buffer_pool.create ~frames:3 ~policy:Buffer_pool.Second_chance store in
  let h = Heap.on_pool pool emp_schema in
  let n = 300 in
  for i = 0 to n - 1 do
    ignore (Heap.insert h (mk_emp (Printf.sprintf "emp%03d" i) i) : Addr.t)
  done;
  checki "count" n (Heap.count h);
  checkb "validate" true (Heap.validate h = Ok ());
  checki "scan" n (List.length (Heap.to_list h))

let suite =
  suite
  @ [
      Alcotest.test_case "buffer pool second chance" `Quick test_buffer_pool_second_chance;
      Alcotest.test_case "heap on second-chance pool" `Quick test_heap_on_second_chance_pool;
    ]

let test_page_insert_at_full () =
  let p = Page.create ~page_size:128 in
  ignore (Page.insert p (Bytes.make 100 'a'));
  (* No room for another 100-byte record at slot 5. *)
  checkb "full refused" false (Page.insert_at p 5 (Bytes.make 100 'b'));
  checkb "page unharmed" true (Page.validate p = Ok ())

let suite = suite @ [ Alcotest.test_case "page insert_at full" `Quick test_page_insert_at_full ]

(* Eviction-policy parity: the policy decides which frame to reclaim, never
   what a page contains, so LRU and second-chance pools must produce
   byte-identical refresh streams on the same workload — and both must
   report accounting that adds up. *)
let test_eviction_policy_refresh_parity () =
  let module Core = Snapdiff_core in
  let run policy =
    let store = Page_store.in_memory ~page_size:256 () in
    let pool = Buffer_pool.create ~frames:3 ~policy store in
    let clock = Snapdiff_txn.Clock.create () in
    let base = Core.Base_table.on_pool ~name:"emp" ~clock pool emp_schema in
    let snap =
      Core.Snapshot_table.create ~name:"s" ~schema:emp_schema ()
    in
    let cache = Core.Differential.Prune_cache.create () in
    let salary t =
      match Tuple.get t 1 with Value.Int s -> Int64.to_int s | _ -> -1
    in
    let streams = ref [] in
    let refresh () =
      let out = ref [] in
      ignore
        (Core.Differential.refresh ~prune:cache ~base
           ~snaptime:(Core.Snapshot_table.snaptime snap)
           ~restrict:(Core.Annotations.user_pred (fun t -> salary t mod 3 = 0))
           ~xmit:(fun m -> out := m :: !out)
           ()
          : Core.Differential.report);
      let ms = List.rev !out in
      List.iter (Core.Snapshot_table.apply snap) ms;
      streams :=
        List.map (fun m -> Bytes.to_string (Core.Refresh_msg.encode m)) ms :: !streams
    in
    let addrs = ref [] in
    for i = 0 to 59 do
      addrs := Core.Base_table.insert base (mk_emp (Printf.sprintf "e%02d" i) i) :: !addrs
    done;
    let addrs = Array.of_list (List.rev !addrs) in
    refresh ();
    for round = 1 to 4 do
      Core.Base_table.update base addrs.((round * 7) mod 60) (mk_emp "upd" (round * 3));
      Core.Base_table.delete base addrs.((round * 13) mod 60);
      let a = Core.Base_table.insert base (mk_emp (Printf.sprintf "n%d" round) round) in
      addrs.((round * 13) mod 60) <- a;
      refresh ()
    done;
    (List.rev !streams, Buffer_pool.stats pool, Core.Snapshot_table.contents snap)
  in
  let s_lru, st_lru, c_lru = run Buffer_pool.Lru in
  let s_sc, st_sc, c_sc = run Buffer_pool.Second_chance in
  checkb "refresh streams identical across policies" true (s_lru = s_sc);
  checkb "final snapshots identical" true (c_lru = c_sc);
  List.iter
    (fun (name, st) ->
      checkb (name ^ ": accesses = hits + misses") true
        (st.Buffer_pool.hits >= 0 && st.Buffer_pool.misses > 0);
      checkb (name ^ ": evictions under 3 frames") true (st.Buffer_pool.evictions > 0);
      checkb (name ^ ": evictions cannot outnumber misses") true
        (st.Buffer_pool.evictions <= st.Buffer_pool.misses);
      checkb (name ^ ": writebacks bounded by evictions + flushes") true
        (st.Buffer_pool.writebacks >= 0))
    [ ("lru", st_lru); ("second-chance", st_sc) ]

let suite =
  suite
  @ [
      Alcotest.test_case "LRU and second-chance refresh parity" `Quick
        test_eviction_policy_refresh_parity;
    ]

(* Sub-page dirty-range tracking: the invariant is that a page differs
   from its last-adopted image ONLY inside the tracked ranges — so
   blitting just those ranges onto the old image must reproduce the page
   exactly, whatever sequence of mutations ran. *)
let test_page_dirty_ranges_exact () =
  let p = Page.create ~page_size:512 in
  let a0 = Option.get (Page.insert p (Bytes.of_string "alpha")) in
  let a1 = Option.get (Page.insert p (Bytes.of_string "beta")) in
  let a2 = Option.get (Page.insert p (Bytes.of_string "gamma")) in
  (* Adopt the current image as the "on disk" state. *)
  let disk = Bytes.copy (Page.bytes p) in
  Page.reset_dirty_ranges p;
  checki "clean after reset" 0 (Page.dirty_bytes p);
  (* Mutate: in-place update, growing update, delete, insert, compact. *)
  checkb "upd" true (Page.update p a1 (Bytes.of_string "BETA"));
  checkb "grow" true (Page.update p a0 (Bytes.of_string "a much longer record"));
  ignore (Page.delete p a2 : bool);
  ignore (Page.insert p (Bytes.of_string "delta") : int option);
  Page.compact p;
  let ranges = Page.dirty_ranges p in
  checkb "something tracked" true (ranges <> []);
  checkb "at most 4 spans" true (List.length ranges <= 4);
  checkb "ranges bounded by the page" true (Page.dirty_bytes p <= Page.page_size p);
  (* Replay only the dirty ranges onto the old image. *)
  let now = Page.bytes p in
  List.iter (fun (off, len) -> Bytes.blit now off disk off len) ranges;
  checkb "dirty ranges reproduce the page exactly" true (Bytes.equal disk now);
  checkb "page still valid" true (Page.validate p = Ok ())

(* Range-aware write-back: a small in-place change to a big page writes
   only the dirty spans to the store, and the store image still matches
   the frame byte-for-byte. *)
let test_range_aware_writeback () =
  let store = Page_store.in_memory ~page_size:2048 () in
  let pool = Buffer_pool.create ~frames:4 store in
  let n = Buffer_pool.allocate_page pool in
  let slot =
    Buffer_pool.with_page pool n (fun page ->
        let s = Option.get (Page.insert page (Bytes.make 64 'x')) in
        ignore (Page.insert page (Bytes.make 64 'y') : int option);
        (`Dirty, s))
  in
  Buffer_pool.flush_all pool;  (* first flush: page mostly fresh *)
  let st0 = Buffer_pool.stats pool in
  (* Now a tiny in-place mutation: only its spans should be written. *)
  Buffer_pool.with_page pool n (fun page ->
      checkb "in-place" true (Page.update page slot (Bytes.make 64 'z'));
      (`Dirty, ()));
  checki "one dirty page" 1 (List.length (Buffer_pool.dirty_pages pool));
  let written = Buffer_pool.writeback_page pool n in
  let st1 = Buffer_pool.stats pool in
  checkb "wrote something" true (written > 0);
  checkb "wrote less than the page" true (written < 2048);
  checkb "saved bytes accounted" true
    (st1.Buffer_pool.writeback_bytes_saved > st0.Buffer_pool.writeback_bytes_saved);
  checki "written = writeback_bytes delta" written
    (st1.Buffer_pool.writeback_bytes - st0.Buffer_pool.writeback_bytes);
  (* The store image equals the frame image. *)
  let img = Page_store.read store n in
  Buffer_pool.with_page pool n (fun page ->
      checkb "store = frame after range write" true (Bytes.equal img (Page.bytes page));
      (`Clean, ()));
  checki "nothing left dirty" 0 (List.length (Buffer_pool.dirty_pages pool))

let suite =
  suite
  @ [
      Alcotest.test_case "page dirty ranges exact" `Quick test_page_dirty_ranges_exact;
      Alcotest.test_case "range-aware writeback" `Quick test_range_aware_writeback;
    ]

(* ------------------------------------------------------------------ *)
(* Codec boundaries and the cursor reader: extreme values roundtrip
   through the in-place writers and the cursor, every strict prefix of
   every encoding raises, and random tuples read back as written. *)

let test_codec_boundary_values () =
  let b = Bytes.create 27 in
  let off = Codec.write_u32 b 0 0xFFFF_FFFF in
  Bytes.set_int64_le b off Int64.min_int;
  Bytes.set_int64_le b (off + 8) (-1L);
  let off = Codec.write_string b (off + 16) "" in
  Bytes.set_uint16_le b off 0xFFFF;
  checki "writers filled the buffer exactly" (Bytes.length b) (Codec.write_u8 b (off + 2) 0xFF);
  let c = Codec.Cursor.over b in
  checki "cursor u32 max" 0xFFFF_FFFF (Codec.Cursor.u32 c);
  checkb "cursor i64 min" true (Codec.Cursor.i64 c = Int64.min_int);
  checkb "cursor i64 -1" true (Codec.Cursor.i64 c = -1L);
  checks "cursor empty string" "" (Codec.Cursor.string c);
  checki "cursor u16 max" 0xFFFF (Codec.Cursor.u16 c);
  checki "cursor u8 max" 0xFF (Codec.Cursor.u8 c);
  checkb "cursor at_end" true (Codec.Cursor.at_end c)

let test_codec_truncation_raises () =
  let written size write =
    let b = Bytes.create size in
    checki "writer filled its size" size (write b);
    b
  in
  let cases =
    [ ("u8", written 1 (fun b -> Codec.write_u8 b 0 0xAB), fun c -> ignore (Codec.Cursor.u8 c : int));
      ( "u16",
        written 2 (fun b -> Bytes.set_uint16_le b 0 0xBEEF; 2),
        fun c -> ignore (Codec.Cursor.u16 c : int) );
      ( "u32",
        written 4 (fun b -> Codec.write_u32 b 0 0xFFFF_FFFF),
        fun c -> ignore (Codec.Cursor.u32 c : int) );
      ( "i64",
        written 8 (fun b -> Bytes.set_int64_le b 0 (-1L); 8),
        fun c -> ignore (Codec.Cursor.i64 c : int64) );
      ("int", written 8 (fun b -> Codec.write_int b 0 (-7)), fun c -> ignore (Codec.Cursor.int c : int));
      ( "string",
        written (Codec.string_size "xyz") (fun b -> Codec.write_string b 0 "xyz"),
        fun c -> ignore (Codec.Cursor.string c : string) );
      ( "tuple",
        Codec.tuple_bytes (Tuple.make [ Value.int (-5); Value.str "s"; Value.Null ]),
        fun c -> ignore (Codec.Cursor.tuple c : Tuple.t) );
    ]
  in
  List.iter
    (fun (name, b, read_cur) ->
      let full = Bytes.length b in
      let c = Codec.Cursor.create () in
      Codec.Cursor.set c b ~pos:0 ~len:full;
      read_cur c;
      checkb (name ^ ": full read consumes the window") true (Codec.Cursor.at_end c);
      for cut = 0 to full - 1 do
        (* The cursor window edge is the truncation boundary even when the
           underlying buffer holds the remaining bytes. *)
        Codec.Cursor.set c b ~pos:0 ~len:cut;
        match read_cur c with
        | () -> Alcotest.failf "%s: cursor accepted a %d/%d-byte window" name cut full
        | exception Failure _ -> ()
      done)
    cases

let cursor_value_gen =
  QCheck2.Gen.(
    oneof
      [ pure Value.Null;
        map (fun i -> Value.Int (Int64.of_int i)) int;
        map (fun f -> Value.Float f) float;
        map (fun s -> Value.Str s) (string_size (int_range 0 40));
        map (fun b -> Value.Bool b) bool ])

let prop_cursor_reads_written_tuple =
  QCheck2.Test.make ~name:"cursor decode = written tuple" ~count:300
    QCheck2.Gen.(list_size (int_range 0 8) cursor_value_gen)
    (fun vs ->
      let t = Tuple.make vs in
      let b = Bytes.create (Codec.tuple_size t + 3) in
      let stop = Codec.write_tuple b 3 t in
      let c = Codec.Cursor.create () in
      Codec.Cursor.set c b ~pos:3 ~len:(Bytes.length b - 3);
      let t_cur = Codec.Cursor.tuple c in
      stop = Bytes.length b
      && Tuple.equal t t_cur
      && Codec.Cursor.pos c = stop
      && Codec.Cursor.at_end c)

let suite =
  suite
  @ [
      Alcotest.test_case "codec boundary values" `Quick test_codec_boundary_values;
      Alcotest.test_case "codec truncation raises per reader" `Quick
        test_codec_truncation_raises;
      QCheck_alcotest.to_alcotest prop_cursor_reads_written_tuple;
    ]

(* ------------------------------------------------------------------ *)
(* Domain safety of the striped buffer pool *)

(* Two domains through one tiny pool: domain A holds a pin while domain B
   faults every other page through the remaining frame.  The pinned frame
   must never be evicted (its image is stable across B's churn), B must
   always read back the bytes each page was stamped with, and the hit/miss
   counters must account for exactly one pin per access. *)
let test_pool_two_domain_stress () =
  let npages = 12 and rounds = 50 in
  let store = Page_store.in_memory ~page_size:256 () in
  let pool = Buffer_pool.create ~frames:2 store in
  let pages = Array.init npages (fun _ -> Buffer_pool.allocate_page pool) in
  let stamp i = Bytes.make 16 (Char.chr (65 + (i mod 26))) in
  Array.iteri
    (fun i n ->
      Buffer_pool.with_page pool n (fun page ->
          (match Page.insert page (stamp i) with
          | Some _ -> ()
          | None -> Alcotest.fail "stamp insert failed");
          (`Dirty, ())))
    pages;
  Buffer_pool.flush_all pool;
  let st0 = Buffer_pool.stats pool in
  let a_pinned = Atomic.make false and b_done = Atomic.make false in
  let pinner =
    Domain.spawn (fun () ->
        Buffer_pool.with_page pool pages.(0) (fun page ->
            let before = Page.read page 0 in
            Atomic.set a_pinned true;
            while not (Atomic.get b_done) do
              Domain.cpu_relax ()
            done;
            (`Clean, (before, Page.read page 0))))
  in
  while not (Atomic.get a_pinned) do
    Domain.cpu_relax ()
  done;
  for _ = 1 to rounds do
    for i = 1 to npages - 1 do
      Buffer_pool.with_page pool pages.(i) (fun page ->
          (match Page.read page 0 with
          | Some b when Bytes.equal b (stamp i) -> ()
          | Some _ -> Alcotest.fail "page image corrupted under churn"
          | None -> Alcotest.fail "stamped record vanished under churn");
          (`Clean, ()))
    done
  done;
  Atomic.set b_done true;
  let before, after = Domain.join pinner in
  checkb "pinned frame never evicted: image stable" true
    (before <> None && before = after);
  let st1 = Buffer_pool.stats pool in
  checki "hits + misses = accesses"
    (1 + (rounds * (npages - 1)))
    (st1.Buffer_pool.hits - st0.Buffer_pool.hits
    + (st1.Buffer_pool.misses - st0.Buffer_pool.misses));
  checkb "churn actually evicted" true (st1.Buffer_pool.evictions > st0.Buffer_pool.evictions);
  (* Two domains churn disjoint page sets through a pool smaller than
     either set, each visiting its own pages in a random order and
     re-stamping every page it visits.  A domain often revisits a page
     that is still resident, so one domain's unlocked victim scans race
     the other domain's real hits.  Every stamp must survive eviction (a
     recycled frame buffer must never leak another page's bytes, and a
     frame pinned after the scan chose it must not be evicted), and every
     access is exactly one hit or one miss. *)
  let per_domain = 10 and frames = 6 and visits = 4000 in
  let store = Page_store.in_memory ~page_size:256 () in
  let pool = Buffer_pool.create ~frames store in
  let sets =
    Array.init 2 (fun _ -> Array.init per_domain (fun _ -> Buffer_pool.allocate_page pool))
  in
  let stamp d i r = Bytes.of_string (Printf.sprintf "d%d p%02d r%04d" d i r) in
  Array.iteri
    (fun d set ->
      Array.iteri
        (fun i n ->
          Buffer_pool.with_page pool n (fun page ->
              ignore (Page.insert page (stamp d i 0) : int option);
              (`Dirty, ())))
        set)
    sets;
  let st0 = Buffer_pool.stats pool in
  let churn d () =
    let set = sets.(d) and last = Array.make per_domain 0 in
    let rng = Random.State.make [| d |] in
    for _ = 1 to visits do
      let i = Random.State.int rng per_domain in
      Buffer_pool.with_page pool set.(i) (fun page ->
          (match Page.read page 0 with
          | Some b when Bytes.equal b (stamp d i last.(i)) -> ()
          | Some b -> Alcotest.failf "page %d of domain %d holds %S" i d (Bytes.to_string b)
          | None -> Alcotest.failf "stamp of page %d of domain %d vanished" i d);
          last.(i) <- last.(i) + 1;
          if not (Page.update page 0 (stamp d i last.(i))) then Alcotest.fail "restamp failed";
          (`Dirty, ()))
    done;
    last
  in
  let other = Domain.spawn (churn 1) in
  let last0 = churn 0 () in
  let last1 = Domain.join other in
  let st1 = Buffer_pool.stats pool in
  checki "two domains: hits + misses = accesses" (2 * visits)
    (st1.Buffer_pool.hits - st0.Buffer_pool.hits
    + (st1.Buffer_pool.misses - st0.Buffer_pool.misses));
  checkb "two domains: resident pages hit" true (st1.Buffer_pool.hits > st0.Buffer_pool.hits);
  checkb "two domains: churn evicted" true
    (st1.Buffer_pool.evictions - st0.Buffer_pool.evictions > visits / 2);
  Buffer_pool.flush_all pool;
  Array.iteri
    (fun d last ->
      Array.iteri
        (fun i n ->
          checks "final stamp reached the store"
            (Bytes.to_string (stamp d i last.(i)))
            (Bytes.to_string (Option.get (Page.read (Page.of_bytes (Page_store.read store n)) 0))))
        sets.(d))
    [| last0; last1 |]

(* ------------------------------------------------------------------ *)
(* Decode arena: the differential scan's only decoder must yield exactly
   what the allocate-per-record [Heap.iter_page] yields. *)

module Gen = QCheck2.Gen

type heap_op = H_ins of string * int | H_upd of int * string * int | H_del of int

let heap_name_gen = Gen.string_size ~gen:Gen.printable (Gen.int_range 0 24)

let heap_op_gen =
  Gen.frequency
    [ (5, Gen.map2 (fun n s -> H_ins (n, s)) heap_name_gen (Gen.int_range 0 99));
      (3, Gen.map3 (fun i n s -> H_upd (i, n, s)) Gen.nat heap_name_gen (Gen.int_range 0 99));
      (2, Gen.map (fun i -> H_del i) Gen.nat) ]

let print_heap_case (page_size, script) =
  let op = function
    | H_ins (n, s) -> Printf.sprintf "Ins(%S,%d)" n s
    | H_upd (i, n, s) -> Printf.sprintf "Upd(%d,%S,%d)" i n s
    | H_del i -> Printf.sprintf "Del %d" i
  in
  Printf.sprintf "page_size=%d script=[%s]" page_size
    (String.concat "; " (List.map op script))

let nth_live h i =
  match Heap.to_list h with
  | [] -> None
  | live -> Some (fst (List.nth live (i mod List.length live)))

(* Replays [script], then tops the table up to 100 rows: first-fit
   insertion fills the lowest pages first, so a 4 KiB page ends up with
   more than the arena's initial 64 span slots. *)
let heap_of_script ~page_size script =
  let h = Heap.create ~page_size emp_schema in
  List.iter
    (fun op ->
      match op with
      | H_ins (n, s) -> ignore (Heap.insert h (mk_emp n s) : Addr.t)
      | H_upd (i, n, s) -> (
        match nth_live h i with
        | Some a -> ( try Heap.update h a (mk_emp n s) with Heap.Tuple_error _ -> ())
        | None -> ())
      | H_del i -> ( match nth_live h i with Some a -> Heap.delete h a | None -> ()))
    script;
  let k = ref 0 in
  while Heap.count h < 100 do
    incr k;
    ignore (Heap.insert h (mk_emp (Printf.sprintf "top%d" !k) !k) : Addr.t)
  done;
  h

(* Every page's (addr, tuple) sequence through [iter]. *)
let pages_via iter h =
  List.init (Heap.data_pages h) (fun i ->
      let acc = ref [] in
      iter h ~page:(i + 1) (fun a t -> acc := (a, t) :: !acc);
      List.rev !acc)

let plain_iter h ~page f = Heap.iter_page h ~page f

(* One arena reused across every page, as a scan cursor reuses its own:
   each slot's record loaded, walked and read through [Decode_arena.fields]. *)
let arena_iter () =
  let arena = Decode_arena.create () in
  fun h ~page f ->
    Heap.load_page h ~arena ~page (fun _ -> false);
    for k = 0 to Decode_arena.length arena - 1 do
      Decode_arena.walk arena k;
      let fields = Decode_arena.fields arena k in
      f (Addr.make ~page ~slot:(Decode_arena.slot arena k))
        (Codec.Fields.tuple fields ~n:(Codec.Fields.count fields))
    done

let prop_arena_matches_plain =
  QCheck2.Test.make ~name:"arena page decode = plain page decode" ~count:100
    ~print:print_heap_case
    Gen.(pair (oneofl [ 256; 4096 ]) (list_size (int_range 0 150) heap_op_gen))
    (fun (page_size, script) ->
      let h = heap_of_script ~page_size script in
      let plain = pages_via plain_iter h in
      let arena = pages_via (arena_iter ()) h in
      let same page_a page_b =
        List.length page_a = List.length page_b
        && List.for_all2
             (fun (a, t) (b, u) -> Addr.equal a b && Tuple.equal t u)
             page_a page_b
      in
      if not (List.length plain = List.length arena && List.for_all2 same plain arena)
      then QCheck2.Test.fail_report "arena sequence <> plain sequence";
      if page_size = 4096
         && not (List.exists (fun p -> List.length p > 64) plain)
      then QCheck2.Test.fail_report "no 4 KiB page exceeded 64 live slots";
      true)

let raises_failure f =
  match f () with () -> false | exception Failure _ -> true

(* A record with trailing or missing bytes fails the decode the same way
   on both paths, whichever record of the page it is. *)
let test_arena_corrupt_record_raises () =
  List.iter
    (fun page_size ->
      List.iter
        (fun (what, corrupt) ->
          let h = heap_of_script ~page_size [] in
          let victim = List.nth (List.map fst (Heap.to_list h)) 3 in
          let page = Addr.page victim in
          Buffer_pool.with_page (Heap.pool h) page (fun p ->
              match Page.read p (Addr.slot victim) with
              | Some b ->
                checkb "rewrite victim" true (Page.update p (Addr.slot victim) (corrupt b));
                (`Dirty, ())
              | None -> Alcotest.fail "victim not live");
          let label path = Printf.sprintf "%s raises Failure (%s, %d B pages)" path what page_size in
          checkb (label "plain") true
            (raises_failure (fun () -> plain_iter h ~page (fun _ _ -> ())));
          checkb (label "arena") true
            (raises_failure (fun () -> (arena_iter ()) h ~page (fun _ _ -> ()))))
        [ ("trailing bytes", fun b -> Bytes.cat b (Bytes.of_string "\000\000"));
          ("truncated", fun b -> Bytes.sub b 0 (Bytes.length b - 1)) ])
    [ 256; 4096 ]

(* The arena exists to cut per-entry allocation: over the same pages it
   must allocate fewer minor-heap words per decoded entry than the plain
   path. *)
let test_arena_allocates_less () =
  let h = Heap.create ~page_size:4096 emp_schema in
  for i = 0 to 1999 do
    ignore (Heap.insert h (mk_emp (Printf.sprintf "emp%04d" i) i) : Addr.t)
  done;
  let words_per_entry iter =
    let n = ref 0 in
    let scan () =
      for page = 1 to Heap.data_pages h do
        iter h ~page (fun _ _ -> incr n)
      done
    in
    scan ();
    n := 0;
    let w0 = Gc.minor_words () in
    scan ();
    (Gc.minor_words () -. w0) /. float_of_int !n
  in
  let plain = words_per_entry plain_iter in
  let arena = words_per_entry (arena_iter ()) in
  checkb
    (Printf.sprintf "arena %.1f words/entry < plain %.1f" arena plain)
    true (arena < plain)

(* ------------------------------------------------------------------ *)
(* The buffer pool against a plain page -> bytes model.  Frames recycle
   their victim's page buffer, so a stale byte from the previous tenant
   reaching a faulted-in page would show as a whole-image mismatch. *)

type pool_op =
  | P_read of int
  | P_write of int * int * char  (* page, record length, fill *)
  | P_pin of int * pool_op list  (* hold the page pinned across the body *)

let pool_pages = 8

(* Pins nest at most [frames - 1] deep, so a free frame always exists. *)
let pool_ops_gen ~frames =
  let page = Gen.int_range 0 (pool_pages - 1) in
  let rec ops depth = Gen.list_size (Gen.int_range 0 (if depth = 0 then 60 else 4)) (op depth)
  and op depth =
    Gen.frequency
      ([ (4, Gen.map (fun n -> P_read n) page);
         (3, Gen.map3 (fun n len c -> P_write (n, len, c)) page (Gen.int_range 1 40)
               (Gen.char_range 'a' 'z')) ]
      @ if depth < frames - 1 then
          [ (1, Gen.map2 (fun n body -> P_pin (n, body)) page (ops (depth + 1))) ]
        else [])
  in
  ops 0

let pool_case_gen =
  Gen.(
    oneofl [ Buffer_pool.Lru; Buffer_pool.Second_chance ] >>= fun policy ->
    int_range 1 4 >>= fun frames ->
    bool >>= fun file_backed ->
    map (fun script -> (policy, frames, file_backed, script)) (pool_ops_gen ~frames))

let print_pool_case (policy, frames, file_backed, script) =
  let rec op = function
    | P_read n -> Printf.sprintf "R%d" n
    | P_write (n, len, c) -> Printf.sprintf "W%d:%d%c" n len c
    | P_pin (n, body) -> Printf.sprintf "Pin%d[%s]" n (String.concat " " (List.map op body))
  in
  Printf.sprintf "%s frames=%d %s [%s]"
    (match policy with Buffer_pool.Lru -> "lru" | Buffer_pool.Second_chance -> "second-chance")
    frames (if file_backed then "file" else "mem")
    (String.concat " " (List.map op script))

let run_pool_case store (policy, frames, _, script) =
  let page_size = Page_store.page_size store in
  let model =
    Array.init pool_pages (fun n ->
        let page = Page.create ~page_size in
        ignore (Page.insert page (Bytes.of_string (Printf.sprintf "page %d" n)) : int option);
        let n' = Page_store.allocate store in
        Page_store.write store n' (Page.bytes page);
        Page.bytes page)
  in
  let pool = Buffer_pool.create ~frames ~policy store in
  let accesses = ref 0 in
  let check_image what n page =
    if not (Bytes.equal (Page.bytes page) model.(n)) then
      QCheck2.Test.fail_reportf "%s of page %d differs from the model" what n
  in
  let rec run op =
    incr accesses;
    match op with
    | P_read n ->
      Buffer_pool.with_page pool n (fun page -> check_image "read" n page; (`Clean, ()))
    | P_write (n, len, c) ->
      let record = Bytes.make len c in
      Buffer_pool.with_page pool n (fun page ->
          check_image "pre-write image" n page;
          let applied = Page.update page 0 record in
          if Page.update (Page.of_bytes model.(n)) 0 record <> applied then
            QCheck2.Test.fail_reportf "update of page %d disagrees with the model" n;
          ((if applied then `Dirty else `Clean), ()))
    | P_pin (n, body) ->
      Buffer_pool.with_page pool n (fun page ->
          check_image "pinned read" n page;
          List.iter run body;
          check_image "image after pinned body" n page;
          (`Clean, ()))
  in
  let st0 = Buffer_pool.stats pool in
  List.iter run script;
  let st1 = Buffer_pool.stats pool in
  if st1.Buffer_pool.hits - st0.Buffer_pool.hits + (st1.Buffer_pool.misses - st0.Buffer_pool.misses)
     <> !accesses
  then QCheck2.Test.fail_report "hits + misses <> accesses";
  Buffer_pool.flush_all pool;
  Array.iteri
    (fun n image ->
      if not (Bytes.equal (Page_store.read store n) image) then
        QCheck2.Test.fail_reportf "store page %d differs from the model after flush_all" n)
    model;
  true

let prop_pool_matches_model =
  QCheck2.Test.make ~name:"buffer pool = page model (reads, writes, nested pins)" ~count:300
    ~print:print_pool_case pool_case_gen (fun ((_, _, file_backed, _) as case) ->
      if file_backed then
        with_tmp_file (fun path ->
            let store = Page_store.open_file ~page_size:256 path in
            Fun.protect ~finally:(fun () -> Page_store.close store) (fun () ->
                run_pool_case store case))
      else run_pool_case (Page_store.in_memory ~page_size:256 ()) case)

(* Once the pool is full a miss reuses the victim's page buffer: the
   major heap must grow by less than one page per miss, with clean and
   with dirty (written-back) victims alike. *)
let test_pool_miss_allocates_no_page () =
  let page_size = 4096 in
  let store = Page_store.in_memory ~page_size () in
  let pool = Buffer_pool.create ~frames:16 store in
  let npages = 64 in
  for _ = 1 to npages do
    ignore (Buffer_pool.allocate_page pool : int)
  done;
  let sweep status =
    for i = 0 to (4 * npages) - 1 do
      Buffer_pool.with_page pool (i mod npages) (fun _ -> (status, ()))
    done
  in
  sweep `Clean;
  List.iter
    (fun (what, status) ->
      let m0 = (Buffer_pool.stats pool).Buffer_pool.misses in
      let _, _, w0 = Gc.counters () in
      sweep status;
      let _, _, w1 = Gc.counters () in
      let misses = (Buffer_pool.stats pool).Buffer_pool.misses - m0 in
      let per_miss = (w1 -. w0) /. float_of_int misses in
      let page_words = float_of_int (page_size / (Sys.word_size / 8)) in
      checkb
        (Printf.sprintf "%s victims: %.1f major words/miss < %.0f" what per_miss page_words)
        true (misses > 0 && per_miss < page_words))
    [ ("clean", `Clean); ("dirty", `Dirty) ]

let suite =
  suite
  @ [
      Alcotest.test_case "buffer pool: two-domain stress" `Quick
        test_pool_two_domain_stress;
      QCheck_alcotest.to_alcotest prop_arena_matches_plain;
      Alcotest.test_case "arena: corrupt record raises on both paths" `Quick
        test_arena_corrupt_record_raises;
      Alcotest.test_case "arena: fewer minor words per entry" `Quick
        test_arena_allocates_less;
      QCheck_alcotest.to_alcotest prop_pool_matches_model;
      Alcotest.test_case "buffer pool: a miss allocates no page buffer" `Quick
        test_pool_miss_allocates_no_page;
    ]

(* ------------------------------------------------------------------ *)
(* In-place tail patches and the insertion hint *)

(* [Page.overwrite_tail] rewrites a record's last bytes where they lie:
   same offset and length, and on a clean page exactly those bytes become
   dirty.  It refuses a dead slot or a patch longer than the record. *)
let test_page_overwrite_tail () =
  let p = Page.create ~page_size:256 in
  let s0 = Option.get (Page.insert p (Bytes.of_string "0123456789")) in
  let s1 = Option.get (Page.insert p (Bytes.of_string "abcdefghij")) in
  Page.reset_dirty_ranges p;
  checkb "patched" true (Page.overwrite_tail p s0 (Bytes.of_string "XYZ"));
  checks "tail replaced, head kept" "0123456XYZ"
    (Bytes.to_string (Option.get (Page.read p s0)));
  checks "neighbour untouched" "abcdefghij" (Bytes.to_string (Option.get (Page.read p s1)));
  let off = 256 - 10 in
  checkb "dirty = the 3 patched bytes" true (Page.dirty_ranges p = [ (off + 7, 3) ]);
  checkb "longer than the record" false (Page.overwrite_tail p s1 (Bytes.make 11 'q'));
  ignore (Page.delete p s1 : bool);
  checkb "dead slot" false (Page.overwrite_tail p s1 (Bytes.of_string "q"));
  checkb "page still valid" true (Page.validate p = Ok ())

(* Fixed-size rows populated in order fill page 1, then page 2, ...:
   exactly [k] rows per page, [k] fixed by the first page — the layout
   lowest-first-fit gives, now reached without probing every full page
   per insert.  Space freed on an early page is reused by the next
   insert, lowest page first. *)
let test_heap_insert_hint () =
  let h = Heap.create ~page_size:512 ~frames:8 emp_schema in
  let addrs = Array.init 200 (fun i -> Heap.insert h (mk_emp (Printf.sprintf "r%03d" i) i)) in
  let k = Array.fold_left (fun n a -> if Addr.page a = 1 then n + 1 else n) 0 addrs in
  checkb "several rows per page" true (k > 1);
  Array.iteri
    (fun i a -> checki (Printf.sprintf "row %d lands on page %d" i (1 + (i / k))) (1 + (i / k))
        (Addr.page a))
    addrs;
  let victim1 = addrs.(k + 1) and victim0 = addrs.(1) in
  Heap.delete h victim1;
  Heap.delete h victim0;
  let again0 = Heap.insert h (mk_emp "n000" 0) in
  let again1 = Heap.insert h (mk_emp "n001" 1) in
  checkb "page-1 hole reused first" true (Addr.equal again0 victim0);
  checkb "page-2 hole reused next" true (Addr.equal again1 victim1);
  let next = Heap.insert h (mk_emp "n002" 2) in
  checki "then back to the last page" (1 + (199 / k) + if 200 mod k = 0 then 1 else 0)
    (Addr.page next)

(* The dirty-span policy against a list-based reference: insert the
   span, fold every span it overlaps or abuts, and past four spans merge
   the pair with the smallest gap (the leftmost such pair on a tie).
   Tail patches of fixed-size records packed back to back touch known
   spans, adjacent records abut, and more than four records force the
   merge. *)
let reference_touch ranges (lo, hi) =
  let rec ins = function
    | [] -> [ (lo, hi) ]
    | (a, b) :: rest ->
      if hi < a then (lo, hi) :: (a, b) :: rest
      else if b < lo then (a, b) :: ins rest
      else absorb (min a lo) (max b hi) rest
  and absorb lo hi = function
    | (a, b) :: rest when a <= hi -> absorb lo (max b hi) rest
    | rest -> (lo, hi) :: rest
  in
  let rs = ins ranges in
  if List.length rs <= 4 then rs
  else begin
    let rec gaps i = function
      | (_, b) :: ((c, _) :: _ as rest) -> (c - b, i) :: gaps (i + 1) rest
      | _ -> []
    in
    let _, besti = List.fold_left min (max_int, 0) (gaps 0 rs) in
    let rec merge i = function
      | (a, b) :: (_, d) :: rest when i = 0 -> (a, max b d) :: rest
      | x :: rest -> x :: merge (i - 1) rest
      | [] -> []
    in
    merge besti rs
  end

let prop_page_dirty_spans_reference =
  let page_size = 1024 and len = 16 and records = 40 in
  QCheck2.Test.make ~name:"page dirty ranges = the list-based span policy" ~count:300
    QCheck2.Gen.(list_size (int_range 0 40) (pair (int_range 0 (records - 1)) (int_range 1 len)))
    (fun patches ->
      let p = Page.create ~page_size in
      for i = 0 to records - 1 do
        ignore (Page.insert p (Bytes.make len (Char.chr (65 + (i mod 26)))) : int option)
      done;
      Page.reset_dirty_ranges p;
      let model = ref [] in
      List.for_all
        (fun (slot, k) ->
          ignore (Page.overwrite_tail p slot (Bytes.make k 'z') : bool);
          (* Slot [i] holds [page_size - (i+1)*len, page_size - i*len). *)
          let hi = page_size - (slot * len) in
          model := reference_touch !model (hi - k, hi);
          Page.dirty_ranges p = List.map (fun (a, b) -> (a, b - a)) !model)
        patches)

let suite =
  suite
  @ [
      Alcotest.test_case "page overwrite_tail in place" `Quick test_page_overwrite_tail;
      Alcotest.test_case "heap insert hint keeps first-fit layout" `Quick test_heap_insert_hint;
      QCheck_alcotest.to_alcotest prop_page_dirty_spans_reference;
    ]

(* ------------------------------------------------------------------ *)
(* Cached page accounting *)

(* The page's live-byte and empty-slot counts are a cache kept current by
   each mutation; these walk the directory from scratch instead. *)
let recount_live p =
  let n = ref 0 in
  Page.iter_live_spans p (fun _ ~off:_ ~len -> n := !n + len);
  !n

let recount_first_empty p =
  let rec go i =
    if i >= Page.nslots p then None else if Page.slot_is_live p i then go (i + 1) else Some i
  in
  go 0

let recount_free p =
  let dir_end = 4 + (4 * Page.nslots p) in
  let need_dir = if recount_first_empty p = None then 4 else 0 in
  max 0 (Page.page_size p - dir_end - recount_live p - need_dir)

type page_op =
  | Pg_insert of int  (* record length *)
  | Pg_insert_at of int * int  (* slot, length *)
  | Pg_update of int * int  (* live-slot index, length change *)
  | Pg_delete of int  (* live-slot index *)
  | Pg_compact

let page_op_gen =
  QCheck2.Gen.(
    frequency
      [ (4, map (fun n -> Pg_insert n) (int_range 1 48));
        (2, map2 (fun s n -> Pg_insert_at (s, n)) (int_range 0 24) (int_range 1 32));
        (* Shrink, same length (weighted up), and grow — growth past the
           contiguous gap forces a compaction inside the update. *)
        (4, map2 (fun i d -> Pg_update (i, d)) (int_range 0 50)
              (frequency [ (2, pure 0); (1, int_range (-20) (-1)); (2, int_range 1 60) ]));
        (3, map (fun i -> Pg_delete i) (int_range 0 50));
        (1, pure Pg_compact) ])

let print_page_op = function
  | Pg_insert n -> Printf.sprintf "insert %d" n
  | Pg_insert_at (s, n) -> Printf.sprintf "insert_at %d %d" s n
  | Pg_update (i, d) -> Printf.sprintf "update #%d %+d" i d
  | Pg_delete i -> Printf.sprintf "delete #%d" i
  | Pg_compact -> "compact"

let prop_page_accounting_matches_recount =
  QCheck2.Test.make ~name:"page: cached live bytes / free space / first hole = a recount"
    ~count:300
    ~print:QCheck2.Print.(list print_page_op)
    QCheck2.Gen.(list_size (int_range 1 80) page_op_gen)
    (fun ops ->
      let p = Page.create ~page_size:256 in
      let model = Hashtbl.create 16 in  (* slot -> record *)
      let fill = ref 0 in
      let fresh len =
        incr fill;
        Bytes.make len (Char.chr (Char.code 'a' + (!fill mod 26)))
      in
      let live_slot i =
        let slots = List.sort compare (Hashtbl.fold (fun s _ acc -> s :: acc) model []) in
        match slots with [] -> None | _ -> Some (List.nth slots (i mod List.length slots))
      in
      let check what =
        let q = Page.of_bytes (Bytes.copy (Page.bytes p)) in
        let expect name got want =
          if got <> want then
            QCheck2.Test.fail_reportf "after %s: %s = %d, recount %d" what name got want
        in
        expect "live_records" (Page.live_records p) (Hashtbl.length model);
        expect "live_bytes" (Page.live_bytes p) (recount_live p);
        expect "free_space_for_insert" (Page.free_space_for_insert p) (recount_free p);
        expect "first_empty_slot"
          (Option.value ~default:(-1) (Page.first_empty_slot p))
          (Option.value ~default:(-1) (recount_first_empty p));
        expect "adopted live_bytes" (Page.live_bytes q) (recount_live p);
        expect "adopted free_space_for_insert" (Page.free_space_for_insert q) (recount_free p);
        expect "adopted first_empty_slot"
          (Option.value ~default:(-1) (Page.first_empty_slot q))
          (Option.value ~default:(-1) (recount_first_empty p));
        if Page.validate p <> Ok () then QCheck2.Test.fail_reportf "after %s: invalid page" what;
        Hashtbl.iter
          (fun s r ->
            if Page.read p s <> Some r then
              QCheck2.Test.fail_reportf "after %s: slot %d lost its record" what s)
          model
      in
      List.iter
        (fun op ->
          (match op with
          | Pg_insert n -> (
            let r = fresh n in
            match Page.insert p r with Some s -> Hashtbl.replace model s r | None -> ())
          | Pg_insert_at (s, n) ->
            let r = fresh n in
            if Page.insert_at p s r then Hashtbl.replace model s r
          | Pg_update (i, d) -> (
            match live_slot i with
            | None -> ()
            | Some s ->
              let r = fresh (max 1 (Bytes.length (Hashtbl.find model s) + d)) in
              if Page.update p s r then Hashtbl.replace model s r)
          | Pg_delete i -> (
            match live_slot i with
            | None -> ()
            | Some s ->
              ignore (Page.delete p s : bool);
              Hashtbl.remove model s)
          | Pg_compact -> Page.compact p);
          check (print_page_op op))
        ops;
      true)

(* The heap's per-page free-bytes table — what first-fit insertion
   consults — equals a recount of every data page after random inserts,
   updates (shrinking and growing), deletes and re-inserts at a freed
   address. *)
type heap_hist_op = H_insert of int | H_update of int * int | H_delete of int | H_insert_at of int

let prop_heap_free_table_matches_recount =
  QCheck2.Test.make ~name:"heap: per-page free-bytes table = a recount" ~count:150
    QCheck2.Gen.(
      list_size (int_range 1 120)
        (frequency
           [ (4, map (fun n -> H_insert n) (int_range 0 40));
             (3, map2 (fun i n -> H_update (i, n)) (int_range 0 500) (int_range 0 60));
             (2, map (fun i -> H_delete i) (int_range 0 500));
             (1, map (fun i -> H_insert_at i) (int_range 0 500)) ]))
    (fun ops ->
      let h = Heap.create ~page_size:256 ~frames:3 emp_schema in
      let live = ref [||] and freed = ref [] in
      let refresh_live () = live := Array.of_list (List.map fst (Heap.to_list h)) in
      let pick i = if !live = [||] then None else Some !live.(i mod Array.length !live) in
      List.iteri
        (fun k op ->
          (match op with
          | H_insert n -> ignore (Heap.insert h (mk_emp (String.make n 'i') k) : Addr.t)
          | H_update (i, n) -> (
            match pick i with
            | None -> ()
            | Some a -> (
              try Heap.update h a (mk_emp (String.make n 'u') k)
              with Heap.Tuple_error _ -> ()))
          | H_delete i -> (
            match pick i with
            | None -> ()
            | Some a ->
              Heap.delete h a;
              freed := a :: !freed)
          | H_insert_at i -> (
            match !freed with
            | [] -> ()
            | fs ->
              let a = List.nth fs (i mod List.length fs) in
              freed := List.filter (fun b -> not (Addr.equal a b)) fs;
              (try Heap.insert_at h a (mk_emp "back" k) with Heap.Tuple_error _ -> ())));
          refresh_live ())
        ops;
      for p = 1 to Heap.data_pages h do
        let image =
          Buffer_pool.with_page (Heap.pool h) p (fun page ->
              (`Clean, Bytes.copy (Page.bytes page)))
        in
        let want = Page.free_space_for_insert (Page.of_bytes image) in
        let want_walk = recount_free (Page.of_bytes image) in
        if want <> want_walk then QCheck2.Test.fail_reportf "page %d: adopted page miscounts" p;
        match Heap.noted_free h ~page:p with
        | Some got when got = want -> ()
        | Some got -> QCheck2.Test.fail_reportf "page %d: table says %d, recount %d" p got want
        | None -> QCheck2.Test.fail_reportf "page %d: missing from the table" p
      done;
      true)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_page_accounting_matches_recount;
      QCheck_alcotest.to_alcotest prop_heap_free_table_matches_recount;
    ]
