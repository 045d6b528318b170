(* Tests for the expression layer: typechecking, evaluation with
   three-valued logic, LIKE, compilation, selectivity. *)

open Snapdiff_storage
open Snapdiff_expr

let checkb = Alcotest.(check bool)

let schema =
  Schema.make
    [
      Schema.col ~nullable:false "name" Value.Tstring;
      Schema.col "salary" Value.Tint;
      Schema.col "rate" Value.Tfloat;
      Schema.col "active" Value.Tbool;
    ]

let row ?(name = "x") ?(salary = Value.int 10) ?(rate = Value.Float 1.5)
    ?(active = Value.Bool true) () =
  Tuple.make [ Value.str name; salary; rate; active ]

let sal_lt n = Expr.(col "salary" <. int n)

let test_typecheck_accepts () =
  let good =
    [
      sal_lt 10;
      Expr.(col "name" =. str "Bruce");
      Expr.(sal_lt 10 &&& (col "active" =. Const (Value.Bool true)));
      Expr.(Not (col "active"));
      Expr.(Is_null (col "salary"));
      Expr.(Between (col "salary", int 1, int 5));
      Expr.(In_list (col "salary", [ Value.int 1; Value.int 2 ]));
      Expr.(Like (col "name", "Br%"));
      Expr.(Cmp (Gt, Arith (Add, col "salary", int 5), int 10));
    ]
  in
  List.iter
    (fun e ->
      match Typecheck.check_predicate schema e with
      | Ok () -> ()
      | Error err -> Alcotest.failf "rejected %s: %a" (Expr.to_string e) Typecheck.pp_error err)
    good

let test_typecheck_rejects () =
  let bad =
    [
      Expr.(col "nosuch" <. int 1);
      Expr.(col "name" <. int 1);
      Expr.(col "salary");  (* not boolean *)
      Expr.(Like (col "salary", "%"));
      Expr.(And (col "active", col "salary" |> fun c -> Cmp (Eq, c, str "x")));
      Expr.(In_list (col "salary", [ Value.str "nope" ]));
      Expr.(Arith (Add, col "name", int 1));
    ]
  in
  List.iter
    (fun e ->
      match Typecheck.check_predicate schema e with
      | Ok () -> Alcotest.failf "accepted %s" (Expr.to_string e)
      | Error _ -> ())
    bad

let test_eval_comparisons () =
  let t = row ~salary:(Value.int 9) () in
  checkb "9 < 10" true (Eval.qualifies schema t (sal_lt 10));
  checkb "9 < 9" false (Eval.qualifies schema t (sal_lt 9));
  checkb "eq" true (Eval.qualifies schema t Expr.(col "salary" =. int 9));
  checkb "neq" true (Eval.qualifies schema t Expr.(col "salary" <>. int 8));
  checkb "ge" true (Eval.qualifies schema t Expr.(col "salary" >=. int 9))

let test_eval_null_semantics () =
  let t = row ~salary:Value.Null () in
  (* NULL comparisons are Unknown, which does not qualify... *)
  checkb "null < 10 unqualifies" false (Eval.qualifies schema t (sal_lt 10));
  checkb "null = null unqualifies" false
    (Eval.qualifies schema t Expr.(Cmp (Eq, col "salary", col "salary")));
  (* ...and NOT(Unknown) is still Unknown. *)
  checkb "not(null<10) unqualifies" false (Eval.qualifies schema t Expr.(Not (sal_lt 10)));
  checkb "is null" true (Eval.qualifies schema t Expr.(Is_null (col "salary")));
  (* Three-valued OR/AND shortcuts. *)
  checkb "unknown OR true = true" true
    (Eval.qualifies schema t Expr.(sal_lt 10 ||| Const (Value.Bool true)));
  checkb "unknown AND false = false (not error)" false
    (Eval.qualifies schema t Expr.(sal_lt 10 &&& Const (Value.Bool false)))

let test_eval_truth_table () =
  let t = row () in
  let u = Expr.(Cmp (Lt, Const Value.Null, int 1)) in
  let tt = Expr.(Const (Value.Bool true)) in
  let ff = Expr.(Const (Value.Bool false)) in
  let pred e = Eval.eval_pred schema t e in
  checkb "U and U" true (pred Expr.(And (u, u)) = Eval.Unknown);
  checkb "U or U" true (pred Expr.(Or (u, u)) = Eval.Unknown);
  checkb "U and T" true (pred Expr.(And (u, tt)) = Eval.Unknown);
  checkb "U or F" true (pred Expr.(Or (u, ff)) = Eval.Unknown);
  checkb "not U" true (pred Expr.(Not u) = Eval.Unknown)

let test_eval_arithmetic () =
  let t = row ~salary:(Value.int 7) () in
  let v e = Eval.eval schema t e in
  checkb "add" true (Value.equal (v Expr.(Arith (Add, col "salary", int 3))) (Value.int 10));
  checkb "mul" true (Value.equal (v Expr.(Arith (Mul, col "salary", int 2))) (Value.int 14));
  checkb "mod" true (Value.equal (v Expr.(Arith (Mod, col "salary", int 4))) (Value.int 3));
  checkb "mixed widens" true
    (match v Expr.(Arith (Add, col "salary", Const (Value.Float 0.5))) with
    | Value.Float f -> Float.abs (f -. 7.5) < 1e-9
    | _ -> false);
  checkb "neg" true (Value.equal (v Expr.(Neg (col "salary"))) (Value.Int (-7L)));
  Alcotest.check_raises "div by zero" (Eval.Eval_error "division by zero") (fun () ->
      ignore (v Expr.(Arith (Div, col "salary", int 0))))

let test_eval_like () =
  let m s p = Eval.qualifies schema (row ~name:s ()) Expr.(Like (col "name", p)) in
  checkb "exact" true (m "Bruce" "Bruce");
  checkb "prefix" true (m "Bruce" "Br%");
  checkb "suffix" true (m "Bruce" "%ce");
  checkb "contains" true (m "Bruce" "%ru%");
  checkb "underscore" true (m "Bruce" "Bruc_");
  checkb "underscore exact len" false (m "Bruce" "Bruce_");
  checkb "percent empty" true (m "" "%");
  checkb "no match" false (m "Bruce" "Mohan%");
  checkb "multi wildcard" true (m "abcxyzdef" "a%x_z%f")

let test_eval_in_between () =
  let t = row ~salary:(Value.int 5) () in
  checkb "in" true (Eval.qualifies schema t Expr.(In_list (col "salary", [ Value.int 3; Value.int 5 ])));
  checkb "not in" false (Eval.qualifies schema t Expr.(In_list (col "salary", [ Value.int 3 ])));
  checkb "between" true (Eval.qualifies schema t Expr.(Between (col "salary", int 5, int 9)));
  checkb "below" false (Eval.qualifies schema t Expr.(Between (col "salary", int 6, int 9)))

let test_compile_matches_eval () =
  let preds =
    [
      sal_lt 10;
      Expr.(col "name" =. str "e3");
      Expr.(sal_lt 8 ||| Like (col "name", "e1%"));
      Expr.(Not (col "active"));
      Expr.ttrue;
    ]
  in
  let rows =
    List.init 20 (fun i ->
        row ~name:(Printf.sprintf "e%d" i) ~salary:(Value.int i)
          ~active:(Value.Bool (i mod 2 = 0)) ())
  in
  List.iter
    (fun p ->
      let compiled = Eval.compile schema p in
      List.iter
        (fun r ->
          checkb "compiled = interpreted" (Eval.qualifies schema r p) (compiled r))
        rows)
    preds

let test_compile_unknown_column_fails_fast () =
  Alcotest.check_raises "unknown col" (Eval.Eval_error "unknown column nope") (fun () ->
      ignore (Eval.compile schema Expr.(col "nope" <. int 1) : Eval.compiled))

let test_expr_columns_and_pp () =
  let e = Expr.(sal_lt 10 &&& (col "name" =. str "x") ||| col "active") in
  Alcotest.(check (list string)) "columns" [ "salary"; "name"; "active" ] (Expr.columns e);
  let s = Expr.to_string (sal_lt 10) in
  Alcotest.(check string) "pp" "salary < 10" s

let test_selectivity_heuristic () =
  let h = Selectivity.heuristic in
  checkb "true = 1" true (h Expr.ttrue = 1.0);
  checkb "eq small" true (h Expr.(col "salary" =. int 1) < 0.2);
  checkb "and multiplies" true
    (h Expr.(sal_lt 10 &&& sal_lt 20) < h (sal_lt 10));
  checkb "or adds" true (h Expr.(sal_lt 10 ||| sal_lt 20) > h (sal_lt 10));
  checkb "bounded" true (h Expr.(Not (Not Expr.ttrue)) <= 1.0)

let test_selectivity_measured () =
  let heap = Heap.create ~page_size:1024 schema in
  for i = 0 to 99 do
    ignore (Heap.insert heap (row ~name:(Printf.sprintf "e%d" i) ~salary:(Value.int i) ()))
  done;
  Alcotest.(check (float 1e-9)) "exact fraction" 0.25 (Selectivity.measure heap (sal_lt 25));
  let sampled = Selectivity.measure ~sample:50 heap (sal_lt 25) in
  checkb "sampled plausible" true (sampled > 0.05 && sampled < 0.55);
  let empty = Heap.create schema in
  Alcotest.(check (float 1e-9)) "empty table" 0.0 (Selectivity.measure empty (sal_lt 25))


(* ------------------------------------------------------------------ *)
(* Record predicate = tuple evaluation *)

module Gen = QCheck2.Gen

let int_pool =
  [ 0L; 1L; -1L; 2L; 7L; 100L; Int64.max_int; Int64.min_int; Int64.(succ min_int);
    Int64.(pred max_int) ]

let float_pool = [ 0.0; -0.0; 1.0; 1.5; -2.5; 7.0; 1e300; infinity; neg_infinity; Float.nan ]

let string_pool = [ ""; "a"; "ab"; "ba"; "a%b"; "_"; "abc"; "%"; "aab" ]

let gen_value_of_ty ty =
  match ty with
  | Value.Tint ->
    Gen.map
      (fun i -> Value.Int i)
      (Gen.oneof [ Gen.oneofl int_pool; Gen.map Int64.of_int (Gen.int_range (-9) 9) ])
  | Value.Tfloat ->
    Gen.map
      (fun f -> Value.Float f)
      (Gen.oneof [ Gen.oneofl float_pool; Gen.map float_of_int (Gen.int_range (-9) 9) ])
  | Value.Tstring -> Gen.map (fun s -> Value.Str s) (Gen.oneofl string_pool)
  | Value.Tbool -> Gen.map (fun b -> Value.Bool b) Gen.bool

let gen_ty = Gen.oneofl [ Value.Tint; Value.Tfloat; Value.Tstring; Value.Tbool ]

let gen_any_value = Gen.(oneof [ return Value.Null; gen_ty >>= gen_value_of_ty ])

(* A schema of 1-5 columns over all four types, some nullable. *)
let gen_schema =
  Gen.(
    list_size (int_range 1 5) (pair gen_ty bool) >|= fun cols ->
    Schema.make
      (List.mapi (fun i (ty, nullable) -> Schema.col ~nullable (Printf.sprintf "c%d" i) ty) cols))

let gen_row schema =
  Gen.flatten_l
    (List.map
       (fun c ->
         if c.Schema.nullable then
           Gen.(frequency [ (1, return Value.Null); (4, gen_value_of_ty c.Schema.ty) ])
         else gen_value_of_ty c.Schema.ty)
       (Schema.columns schema))
  |> Gen.map Array.of_list

let gen_expr schema =
  let n = Schema.arity schema in
  let col = Gen.map (fun i -> Expr.Col (Printf.sprintf "c%d" i)) (Gen.int_bound (n - 1)) in
  let leaf = Gen.(oneof [ col; map (fun v -> Expr.Const v) gen_any_value ]) in
  let cmpop = Gen.oneofl Expr.[ Eq; Neq; Lt; Le; Gt; Ge ] in
  let binop = Gen.oneofl Expr.[ Add; Sub; Mul; Div; Mod ] in
  Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self size ->
           if size = 0 then leaf
           else
             let sub = self (size / 2) in
             frequency
               [ (2, leaf);
                 (3, map3 (fun op a b -> Expr.Cmp (op, a, b)) cmpop sub sub);
                 (1, map2 (fun a b -> Expr.And (a, b)) sub sub);
                 (1, map2 (fun a b -> Expr.Or (a, b)) sub sub);
                 (1, map (fun a -> Expr.Not a) sub);
                 (1, map (fun a -> Expr.Is_null a) sub);
                 (2, map3 (fun op a b -> Expr.Arith (op, a, b)) binop sub
                       (oneof [ sub; return (Expr.int 0) ]));
                 (1, map (fun a -> Expr.Neg a) sub);
                 (1, map2 (fun a p -> Expr.Like (a, p)) sub
                       (oneofl [ "a%"; "%b"; "_"; "a_c"; "%"; ""; "ab" ]));
                 (1, map2 (fun a vs -> Expr.In_list (a, vs)) sub
                       (list_size (int_range 0 3) gen_any_value));
                 (1, map3 (fun a lo hi -> Expr.Between (a, lo, hi)) sub sub sub) ]))

(* The specialised shape: an INT constant against a column, either side. *)
let gen_int_cmp schema =
  let n = Schema.arity schema in
  Gen.(
    map4
      (fun op i k flip ->
        let c = Expr.Col (Printf.sprintf "c%d" i) and k = Expr.Const (Value.Int k) in
        if flip then Expr.Cmp (op, k, c) else Expr.Cmp (op, c, k))
      (oneofl Expr.[ Eq; Neq; Lt; Le; Gt; Ge ])
      (int_bound (n - 1))
      (oneof [ oneofl int_pool; map Int64.of_int (int_range (-9) 9) ])
      bool)

let outcome f = match f () with b -> Ok b | exception Eval.Eval_error _ -> Error ()

(* On the stored encoding of a row — its columns, then two integer
   annotation fields the predicate must ignore — the record predicate
   answers what [Eval.qualifies] answers on the row, and raises
   [Eval_error] exactly when it does. *)
let prop_record_pred_matches_qualifies =
  QCheck2.Test.make ~name:"record predicate = Eval.qualifies" ~count:3000
    ~print:(fun (schema, row, e) ->
      Printf.sprintf "%s | %s | %s"
        (String.concat ", " (List.map (fun c -> Value.ty_name c.Schema.ty) (Schema.columns schema)))
        (Tuple.to_string row) (Expr.to_string e))
    Gen.(
      gen_schema >>= fun schema ->
      triple (return schema) (gen_row schema)
        (frequency [ (1, gen_int_cmp schema); (2, gen_expr schema) ]))
    (fun (schema, row, e) ->
      let stored = Array.append row [| Value.int 65537; Value.Int Int64.min_int |] in
      let f = Codec.Fields.of_record (Codec.tuple_bytes stored) in
      let pred = Eval.compile_record schema e in
      outcome (fun () -> pred f) = outcome (fun () -> Eval.qualifies schema row e))

let prop_fields_decode_each_value =
  QCheck2.Test.make ~name:"walked fields = decoded tuple" ~count:1000
    Gen.(gen_schema >>= gen_row)
    (fun row ->
      let b = Codec.tuple_bytes row in
      let f = Codec.Fields.of_record b in
      Codec.Fields.count f = Array.length row
      && Tuple.equal (Codec.Fields.tuple f ~n:(Array.length row)) (Codec.tuple_of_bytes b))

let suite =
  [
    Alcotest.test_case "typecheck accepts" `Quick test_typecheck_accepts;
    Alcotest.test_case "typecheck rejects" `Quick test_typecheck_rejects;
    Alcotest.test_case "eval comparisons" `Quick test_eval_comparisons;
    Alcotest.test_case "null semantics" `Quick test_eval_null_semantics;
    Alcotest.test_case "three-valued truth table" `Quick test_eval_truth_table;
    Alcotest.test_case "arithmetic" `Quick test_eval_arithmetic;
    Alcotest.test_case "LIKE" `Quick test_eval_like;
    Alcotest.test_case "IN/BETWEEN" `Quick test_eval_in_between;
    Alcotest.test_case "compile = eval" `Quick test_compile_matches_eval;
    Alcotest.test_case "compile fails fast" `Quick test_compile_unknown_column_fails_fast;
    Alcotest.test_case "columns + pp" `Quick test_expr_columns_and_pp;
    Alcotest.test_case "selectivity heuristic" `Quick test_selectivity_heuristic;
    Alcotest.test_case "selectivity measured" `Quick test_selectivity_measured;
    QCheck_alcotest.to_alcotest prop_record_pred_matches_qualifies;
    QCheck_alcotest.to_alcotest prop_fields_decode_each_value;
  ]
