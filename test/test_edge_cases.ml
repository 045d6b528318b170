(* Nasty corners: empty tables, total deletion, boundary addresses,
   adversarial bytes into the codecs, degenerate restrictions. *)

open Snapdiff_storage
open Snapdiff_txn
open Snapdiff_core
module Expr = Snapdiff_expr.Expr
module Gen = QCheck2.Gen

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let emp_schema =
  Schema.make
    [ Schema.col ~nullable:false "name" Value.Tstring;
      Schema.col ~nullable:false "salary" Value.Tint ]

let emp name salary = Tuple.make [ Value.str name; Value.int salary ]

let salary t = match Tuple.get t 1 with Value.Int s -> Int64.to_int s | _ -> -1

(* ------------------------------------------------------------------ *)
(* Empty and emptied base tables, all methods. *)

let refresh_diff base snap restrict =
  let msgs = ref [] in
  ignore
    (Differential.refresh ~base ~snaptime:(Snapshot_table.snaptime snap) ~restrict:(Annotations.user_pred restrict)
       ~xmit:(fun m -> msgs := m :: !msgs)
       ()
      : Differential.report);
  List.iter (Snapshot_table.apply snap) (List.rev !msgs);
  List.length (List.filter Refresh_msg.is_data !msgs)

let test_empty_base_table () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  let snap = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
  let data = refresh_diff base snap (fun _ -> true) in
  (* Empty scan: LastQual = 0, unconditional Tail {0} clears everything. *)
  checki "one tail message" 1 data;
  checki "snapshot empty" 0 (Snapshot_table.count snap);
  checkb "snaptime advanced" true (Snapshot_table.snaptime snap > Clock.never)

let test_fully_emptied_table () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  let addrs = List.init 10 (fun i -> Base_table.insert base (emp (string_of_int i) i)) in
  let snap = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
  ignore (refresh_diff base snap (fun _ -> true) : int);
  checki "populated" 10 (Snapshot_table.count snap);
  (* Delete EVERYTHING; the tail message alone must clear the snapshot. *)
  List.iter (Base_table.delete base) addrs;
  let data = refresh_diff base snap (fun _ -> true) in
  checki "just the tail" 1 data;
  checki "snapshot cleared" 0 (Snapshot_table.count snap)

let test_single_entry_lifecycle () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  let snap = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
  ignore (refresh_diff base snap (fun _ -> true) : int);
  let a = Base_table.insert base (emp "only" 1) in
  ignore (refresh_diff base snap (fun _ -> true) : int);
  checki "one row" 1 (Snapshot_table.count snap);
  Base_table.delete base a;
  ignore (refresh_diff base snap (fun _ -> true) : int);
  checki "gone" 0 (Snapshot_table.count snap)

let test_degenerate_restrictions () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  for i = 0 to 9 do
    ignore (Base_table.insert base (emp (string_of_int i) i) : Addr.t)
  done;
  let none = Snapshot_table.create ~name:"none" ~schema:emp_schema () in
  let all = Snapshot_table.create ~name:"all" ~schema:emp_schema () in
  ignore (refresh_diff base none (fun _ -> false) : int);
  ignore (refresh_diff base all (fun _ -> true) : int);
  checki "nothing qualifies" 0 (Snapshot_table.count none);
  checki "everything qualifies" 10 (Snapshot_table.count all);
  (* Updates under the empty restriction never produce entry messages. *)
  Base_table.update base (fst (List.hd (Base_table.to_user_list base))) (emp "u" 99);
  let data = refresh_diff base none (fun _ -> false) in
  checki "only the tail under FALSE restriction" 1 data

(* ------------------------------------------------------------------ *)
(* Address and page boundaries. *)

let test_addr_slot_boundary () =
  let a = Addr.make ~page:7 ~slot:Addr.max_slot in
  checki "slot preserved" Addr.max_slot (Addr.slot a);
  checki "page preserved" 7 (Addr.page a);
  Alcotest.check_raises "slot overflow" (Invalid_argument "Addr.make: bad slot") (fun () ->
      ignore (Addr.make ~page:1 ~slot:(Addr.max_slot + 1)))

let test_page_single_giant_record () =
  let p = Page.create ~page_size:256 in
  (* Largest record that can ever fit: page minus header minus one slot. *)
  let max_len = 256 - 4 - 4 in
  let slot = Page.insert p (Bytes.make max_len 'x') in
  checkb "fits exactly" true (slot <> None);
  checkb "nothing else fits" true (Page.insert p (Bytes.of_string "y") = None);
  Alcotest.check_raises "oversized rejected"
    (Invalid_argument "Page.insert: record larger than page capacity") (fun () ->
      ignore (Page.insert (Page.create ~page_size:256) (Bytes.make (max_len + 1) 'x')))

let test_heap_tuple_too_large () =
  let h = Heap.create ~page_size:256 emp_schema in
  Alcotest.check_raises "tuple too large" (Heap.Tuple_error "tuple too large for a page")
    (fun () -> ignore (Heap.insert h (emp (String.make 500 'n') 1) : Addr.t))

(* ------------------------------------------------------------------ *)
(* Codec fuzz: adversarial bytes must raise Failure, never crash or loop. *)

let prop_value_decode_total =
  QCheck2.Test.make ~name:"value decode total on garbage" ~count:500
    Gen.(string_size (int_range 0 64))
    (fun s ->
      match Codec.Cursor.value (Codec.Cursor.over (Bytes.of_string s)) with
      | (_ : Value.t) -> true
      | exception Failure _ -> true)

let prop_msg_decode_total =
  QCheck2.Test.make ~name:"refresh msg decode total on garbage" ~count:500
    Gen.(string_size (int_range 0 64))
    (fun s ->
      match Refresh_msg.decode (Bytes.of_string s) with
      | (_ : Refresh_msg.t) -> true
      | exception Failure _ -> true)

let prop_wal_decode_total =
  QCheck2.Test.make ~name:"wal record decode total on garbage" ~count:500
    Gen.(string_size (int_range 0 64))
    (fun s ->
      match Snapdiff_wal.Record.read (Codec.Cursor.over (Bytes.of_string s)) with
      | (_ : Snapdiff_wal.Record.t) -> true
      | exception Failure _ -> true)

(* Snapshot apply must tolerate pathological-but-wellformed messages. *)
let test_snapshot_apply_pathological () =
  let s = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
  Snapshot_table.apply s (Refresh_msg.Region { lo = 10; hi = 5 });  (* inverted: no-op *)
  Snapshot_table.apply s (Refresh_msg.Tail { last_qual = 0 });  (* empty: no-op *)
  Snapshot_table.apply s
    (Refresh_msg.Entry { addr = 1; prev_qual = 1; row = Row.of_tuple (emp "x" 1) });
  (* prev_qual = addr: empty delete range, plain upsert. *)
  checki "one entry" 1 (Snapshot_table.count s);
  Snapshot_table.apply s (Refresh_msg.Snaptime 0);
  checkb "valid" true (Snapshot_table.validate s = Ok ());
  (* Arity mismatch is rejected loudly. *)
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Snapshot_table: tuple dimensions do not match snapshot schema")
    (fun () ->
      Snapshot_table.apply s
        (Refresh_msg.Upsert { addr = 2; row = Row.of_tuple (Tuple.make [ Value.int 1 ]) }));
  (* So is a row whose column types do not match, and nothing is stored. *)
  checkb "bad column type" true
    (match
       Snapshot_table.apply s
         (Refresh_msg.Upsert { addr = 2;
             row = Row.of_tuple (Tuple.make [ Value.int 1; Value.str "x" ]) })
     with
    | () -> false
    | exception Invalid_argument _ -> Snapshot_table.get s 2 = None)

(* The Figure 4 merge at its edges.  An [Entry] whose gap is empty
   ([prev_qual = addr - 1]) deletes nothing, not even its neighbours; a
   gap of one address deletes exactly the row there; a [Tail] still
   truncates everything past [last_qual], the row at [max_int] included. *)
let test_drop_range_edges () =
  let s = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
  let up addr = Snapshot_table.apply s (Refresh_msg.Upsert { addr; row = Row.of_tuple (emp "r" addr) }) in
  let entry addr prev_qual =
    Snapshot_table.apply s
      (Refresh_msg.Entry { addr; prev_qual; row = Row.of_tuple (emp "e" addr) })
  in
  let addrs () = List.map fst (Snapshot_table.contents s) in
  List.iter up [ 3; 4; 5; 6; 7 ];
  entry 5 4;
  checkb "empty gap keeps both neighbours" true (addrs () = [ 3; 4; 5; 6; 7 ]);
  checkb "empty gap still stores the row" true (Snapshot_table.get s 5 = Some (emp "e" 5));
  entry 7 5;
  checkb "a gap of one deletes exactly that row" true (addrs () = [ 3; 4; 5; 7 ]);
  entry 8 3;
  checkb "a wider gap deletes every row in it" true (addrs () = [ 3; 8 ]);
  up 20;
  up max_int;
  Snapshot_table.apply s (Refresh_msg.Tail { last_qual = 8 });
  checkb "Tail truncates past last_qual" true (addrs () = [ 3; 8 ]);
  Snapshot_table.apply s (Refresh_msg.Tail { last_qual = 8 });
  checkb "Tail over nothing is a no-op" true (addrs () = [ 3; 8 ]);
  Snapshot_table.apply s (Refresh_msg.Tail { last_qual = 0 });
  checkb "Tail 0 empties the table" true (addrs () = []);
  checkb "valid" true (Snapshot_table.validate s = Ok ())

(* After a framed refresh every row the image holds is the row that was
   sent, byte for byte: NULLs, -0.0, NaN and the int64 extremes included. *)
let test_stored_rows_are_sent_bytes () =
  let schema =
    Schema.make
      [ Schema.col "i" Value.Tint; Schema.col "f" Value.Tfloat; Schema.col "s" Value.Tstring;
        Schema.col "b" Value.Tbool ]
  in
  let rows =
    List.mapi
      (fun k t -> ((k * 3) + 1, Row.of_tuple (Array.of_list t)))
      Value.
        [ [ Null; Float (-0.0); Str ""; Bool false ];
          [ Int Int64.min_int; Float Float.nan; Null; Bool true ];
          [ Int Int64.max_int; Null; Str "x"; Null ];
          [ Int 0L; Float infinity; Str (String.make 300 'y'); Bool true ] ]
  in
  let snap = Snapshot_table.create ~name:"s" ~schema () in
  Snapshot_table.create_index snap ~column:"f";
  let deliver b = Snapshot_table.apply_bytes snap b (Bytes.length b) in
  let entries =
    List.mapi
      (fun k (addr, row) ->
        Refresh_msg.Entry { addr; prev_qual = (if k = 0 then 0 else fst (List.nth rows (k - 1))); row })
      rows
  in
  deliver (Refresh_msg.encode_framed ~epoch:0 ~seq:0 entries);
  deliver (Refresh_msg.encode_framed ~epoch:0 ~seq:1 [ Refresh_msg.Snaptime 5 ]);
  checki "the epoch committed" 0 (Snapshot_table.last_committed_epoch snap);
  let rt = Option.get (Snapshot_table.read_txn snap) in
  let img = Snapshot_table.txn_image rt in
  checki "every row held" (List.length rows) (Snapdiff_mvcc.Version_store.count img);
  List.iter
    (fun (addr, sent) ->
      match Snapdiff_mvcc.Version_store.find img addr with
      | Some held -> checkb (Printf.sprintf "row %d is the sent bytes" addr) true (Row.equal held sent)
      | None -> Alcotest.failf "row %d missing" addr)
    rows;
  List.iter
    (fun (addr, sent) ->
      match Snapshot_table.txn_get rt addr with
      | Some t -> checkb (Printf.sprintf "row %d decodes to the sent values" addr) true
                    (Row.equal (Row.of_tuple t) sent)
      | None -> Alcotest.failf "row %d not read" addr)
    rows;
  Snapshot_table.release_txn rt;
  checkb "index on the float column valid" true (Snapshot_table.validate snap = Ok ())

(* Refreshing with a FUTURE snaptime (clock anomaly) must not send data. *)
let test_future_snaptime () =
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  ignore (Base_table.insert base (emp "a" 1) : Addr.t);
  ignore (Fixup.run base ~fixup_time:(Clock.tick clock) : Fixup.stats);
  let count = ref 0 in
  ignore
    (Differential.refresh ~base ~snaptime:1_000_000
       ~restrict:(Annotations.user_pred (fun _ -> true))
       ~xmit:(fun m ->
         if Refresh_msg.is_data m then incr count)
       ()
      : Differential.report);
  checki "only the tail" 1 !count

let test_mixed_restriction_boundaries () =
  (* Entries sitting exactly on the threshold. *)
  let clock = Clock.create () in
  let base = Base_table.create ~name:"emp" ~clock emp_schema in
  ignore (Base_table.insert base (emp "under" 9) : Addr.t);
  ignore (Base_table.insert base (emp "exact" 10) : Addr.t);
  ignore (Base_table.insert base (emp "over" 11) : Addr.t);
  let snap = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
  ignore (refresh_diff base snap (fun t -> salary t < 10) : int);
  Alcotest.(check (list string)) "strictly below" [ "'under'" ]
    (List.map (fun t -> Value.to_string (Tuple.get t 0)) (Snapshot_table.tuples snap))

let suite =
  [
    Alcotest.test_case "empty base table" `Quick test_empty_base_table;
    Alcotest.test_case "fully emptied table" `Quick test_fully_emptied_table;
    Alcotest.test_case "single entry lifecycle" `Quick test_single_entry_lifecycle;
    Alcotest.test_case "degenerate restrictions" `Quick test_degenerate_restrictions;
    Alcotest.test_case "addr slot boundary" `Quick test_addr_slot_boundary;
    Alcotest.test_case "page giant record" `Quick test_page_single_giant_record;
    Alcotest.test_case "heap tuple too large" `Quick test_heap_tuple_too_large;
    Alcotest.test_case "snapshot apply pathological" `Quick test_snapshot_apply_pathological;
    Alcotest.test_case "receiver: gap edges of the Figure 4 merge" `Quick test_drop_range_edges;
    Alcotest.test_case "receiver: stored rows are the sent bytes" `Quick
      test_stored_rows_are_sent_bytes;
    Alcotest.test_case "future snaptime" `Quick test_future_snaptime;
    Alcotest.test_case "restriction boundaries" `Quick test_mixed_restriction_boundaries;
    QCheck_alcotest.to_alcotest prop_value_decode_total;
    QCheck_alcotest.to_alcotest prop_msg_decode_total;
    QCheck_alcotest.to_alcotest prop_wal_decode_total;
  ]
