(* Tests for the B-tree index, including model-based property tests against
   the stdlib Map. *)

module IntBtree = Snapdiff_index.Btree.Make (Int)
module IntMap = Map.Make (Int)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let ok_validate t =
  match IntBtree.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "btree invariant broken: %s" e

let test_empty () =
  let t = IntBtree.create () in
  checkb "empty" true (IntBtree.is_empty t);
  checki "length" 0 (IntBtree.length t);
  checkb "find" true (IntBtree.find t 1 = None);
  checkb "remove" false (IntBtree.remove t 1);
  checkb "min" true (IntBtree.min_binding t = None);
  ok_validate t

let test_insert_find () =
  let t = IntBtree.create ~degree:2 () in
  for i = 1 to 100 do
    IntBtree.insert t (i * 37 mod 101) (string_of_int i)
  done;
  ok_validate t;
  checkb "find present" true (IntBtree.find t 37 <> None);
  checkb "find absent" true (IntBtree.find t 1000 = None)

let test_insert_replaces () =
  let t = IntBtree.create ~degree:2 () in
  IntBtree.insert t 5 "a";
  IntBtree.insert t 5 "b";
  checki "no duplicate" 1 (IntBtree.length t);
  Alcotest.(check (option string)) "replaced" (Some "b") (IntBtree.find t 5)

let test_iter_sorted () =
  let t = IntBtree.create ~degree:3 () in
  let keys = [ 42; 7; 99; 1; 55; 23; 88; 3; 64; 12 ] in
  List.iter (fun k -> IntBtree.insert t k (k * 2)) keys;
  let got = List.map fst (IntBtree.to_list t) in
  Alcotest.(check (list int)) "sorted" (List.sort compare keys) got

let test_min_max () =
  let t = IntBtree.create ~degree:2 () in
  List.iter (fun k -> IntBtree.insert t k ()) [ 5; 2; 9; 1; 7 ];
  Alcotest.(check (option (pair int unit))) "min" (Some (1, ())) (IntBtree.min_binding t);
  Alcotest.(check (option (pair int unit))) "max" (Some (9, ())) (IntBtree.max_binding t)

let test_remove_sequences () =
  let t = IntBtree.create ~degree:2 () in
  let n = 200 in
  for i = 0 to n - 1 do
    IntBtree.insert t i i
  done;
  ok_validate t;
  (* Remove evens ascending, then odds descending: exercises borrows and
     merges on both sides. *)
  for i = 0 to n - 1 do
    if i mod 2 = 0 then checkb "removed" true (IntBtree.remove t i)
  done;
  ok_validate t;
  let i = ref (n - 1) in
  while !i >= 0 do
    if !i mod 2 = 1 then checkb "removed" true (IntBtree.remove t !i);
    i := !i - 2
  done;
  checki "drained" 0 (IntBtree.length t);
  ok_validate t

let test_range_iteration () =
  let t = IntBtree.create ~degree:2 () in
  for i = 0 to 99 do
    IntBtree.insert t (i * 2) i  (* even keys 0..198 *)
  done;
  let range lo hi = IntBtree.keys_in_range t ?lo ?hi () in
  Alcotest.(check (list int)) "closed range" [ 10; 12; 14 ]
    (range (Some 10) (Some 15));
  Alcotest.(check (list int)) "open low" [ 0; 2; 4 ] (range None (Some 5));
  Alcotest.(check (list int)) "open high" [ 194; 196; 198 ] (range (Some 193) None);
  Alcotest.(check (list int)) "empty range" [] (range (Some 11) (Some 11));
  Alcotest.(check (list int)) "exact hit" [ 50 ] (range (Some 50) (Some 50));
  checki "full range" 100 (List.length (range None None))

let test_height_logarithmic () =
  let t = IntBtree.create ~degree:8 () in
  for i = 0 to 9_999 do
    IntBtree.insert t i ()
  done;
  checkb "shallow" true (IntBtree.height t <= 5);
  ok_validate t

let test_clear () =
  let t = IntBtree.create () in
  for i = 0 to 50 do
    IntBtree.insert t i ()
  done;
  IntBtree.clear t;
  checkb "empty" true (IntBtree.is_empty t);
  IntBtree.insert t 1 ();
  checki "reusable" 1 (IntBtree.length t)

(* Model-based property test: a random interleaving of inserts, removes and
   lookups behaves exactly like Map, and invariants hold throughout. *)
let prop_model =
  QCheck2.Test.make ~name:"btree matches Map model" ~count:200
    QCheck2.Gen.(
      pair (int_range 2 5)
        (list (pair (oneof [ pure `Add; pure `Del; pure `Find ]) (int_range 0 50))))
    (fun (degree, ops) ->
      let t = IntBtree.create ~degree () in
      let model = ref IntMap.empty in
      List.iter
        (fun (op, k) ->
          match op with
          | `Add ->
            IntBtree.insert t k (k * 3);
            model := IntMap.add k (k * 3) !model
          | `Del ->
            let removed = IntBtree.remove t k in
            let expected = IntMap.mem k !model in
            if removed <> expected then QCheck2.Test.fail_report "remove mismatch";
            model := IntMap.remove k !model
          | `Find ->
            if IntBtree.find t k <> IntMap.find_opt k !model then
              QCheck2.Test.fail_report "find mismatch")
        ops;
      (match IntBtree.validate t with
      | Ok () -> ()
      | Error e -> QCheck2.Test.fail_report e);
      IntBtree.to_list t = IntMap.bindings !model)

let prop_range =
  QCheck2.Test.make ~name:"btree range = filtered bindings" ~count:200
    QCheck2.Gen.(triple (list (int_range 0 100)) (int_range 0 100) (int_range 0 100))
    (fun (keys, a, b) ->
      let lo = min a b and hi = max a b in
      let t = IntBtree.create ~degree:2 () in
      List.iter (fun k -> IntBtree.insert t k ()) keys;
      let got = IntBtree.keys_in_range t ~lo ~hi () in
      let sorted = List.sort_uniq compare keys in
      let expected = List.filter (fun k -> k >= lo && k <= hi) sorted in
      (* Successor and predecessor probes at the same bounds. *)
      let succ = List.find_opt (fun k -> k >= lo) sorted in
      let pred = List.find_opt (fun k -> k <= hi) (List.rev sorted) in
      got = expected
      && Option.map fst (IntBtree.find_first t ~lo) = succ
      && Option.map fst (IntBtree.find_last t ~hi) = pred)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "insert/find" `Quick test_insert_find;
    Alcotest.test_case "insert replaces" `Quick test_insert_replaces;
    Alcotest.test_case "iter sorted" `Quick test_iter_sorted;
    Alcotest.test_case "min/max" `Quick test_min_max;
    Alcotest.test_case "remove sequences" `Quick test_remove_sequences;
    Alcotest.test_case "range iteration" `Quick test_range_iteration;
    Alcotest.test_case "height" `Quick test_height_logarithmic;
    Alcotest.test_case "clear" `Quick test_clear;
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_range;
  ]
