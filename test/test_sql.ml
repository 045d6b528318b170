(* Tests for the SQL front end: lexer, parser, and the database engine
   (end-to-end snapshot lifecycle in SQL). *)

open Snapdiff_storage
open Snapdiff_sql
module Expr = Snapdiff_expr.Expr

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Lexer *)

let toks s = List.map fst (Lexer.tokenize s)

let test_lexer_basics () =
  checkb "keywords case-insensitive" true
    (toks "select Select SELECT" = [ Lexer.Keyword "SELECT"; Lexer.Keyword "SELECT";
                                     Lexer.Keyword "SELECT"; Lexer.Eof ]);
  checkb "idents keep case" true (toks "Emp" = [ Lexer.Ident "Emp"; Lexer.Eof ]);
  checkb "numbers" true
    (toks "42 3.5" = [ Lexer.Int_lit 42L; Lexer.Float_lit 3.5; Lexer.Eof ]);
  checkb "strings with escapes" true
    (toks "'it''s'" = [ Lexer.String_lit "it's"; Lexer.Eof ]);
  checkb "symbols" true
    (toks "<= <> != =" = [ Lexer.Symbol "<="; Lexer.Symbol "<>"; Lexer.Symbol "<>";
                           Lexer.Symbol "="; Lexer.Eof ]);
  checkb "comments skipped" true
    (toks "select -- hidden\n 1" = [ Lexer.Keyword "SELECT"; Lexer.Int_lit 1L; Lexer.Eof ])

let test_lexer_errors () =
  checkb "unterminated string" true
    (match Lexer.tokenize "'oops" with
    | exception Lexer.Lex_error _ -> true
    | _ -> false);
  checkb "bad char" true
    (match Lexer.tokenize "select @" with
    | exception Lexer.Lex_error _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_expressions () =
  let cases =
    [
      ("salary < 10", Expr.(col "salary" <. int 10));
      ("a = 'x' AND b > 2 OR c", Expr.(Or (And (Cmp (Eq, Col "a", Const (Value.Str "x")),
                                                Cmp (Gt, Col "b", Const (Value.int 2))),
                                          Col "c")));
      ("NOT a AND b", Expr.(And (Not (Col "a"), Col "b")));
      ("x IS NULL", Expr.(Is_null (Col "x")));
      ("x IS NOT NULL", Expr.(Not (Is_null (Col "x"))));
      ("x IN (1, 2, 3)", Expr.(In_list (Col "x", [ Value.int 1; Value.int 2; Value.int 3 ])));
      ("x NOT IN (1)", Expr.(Not (In_list (Col "x", [ Value.int 1 ]))));
      ("x BETWEEN 1 AND 5", Expr.(Between (Col "x", Const (Value.int 1), Const (Value.int 5))));
      ("name LIKE 'Br%'", Expr.(Like (Col "name", "Br%")));
      ("a + b * 2 < 10", Expr.(Cmp (Lt, Arith (Add, Col "a", Arith (Mul, Col "b", Const (Value.int 2))), Const (Value.int 10))));
      ("(a + b) * 2 = c", Expr.(Cmp (Eq, Arith (Mul, Arith (Add, Col "a", Col "b"), Const (Value.int 2)), Col "c")));
      ("-x < 0", Expr.(Cmp (Lt, Neg (Col "x"), Const (Value.int 0))));
    ]
  in
  List.iter
    (fun (input, want) ->
      let got = Parser.parse_expr input in
      if not (Expr.equal got want) then
        Alcotest.failf "%s parsed as %s" input (Expr.to_string got))
    cases

let test_parse_expr_pp_roundtrip () =
  (* Pretty-printed expressions re-parse to the same AST. *)
  let exprs =
    [
      Expr.(col "salary" <. int 10 &&& (col "name" =. str "x"));
      Expr.(col "a" ||| (col "b" &&& Not (col "c")));
      Expr.(Between (Col "x", Const (Value.int 1), Const (Value.int 5)));
      Expr.(In_list (Col "x", [ Value.str "a"; Value.str "b" ]));
      Expr.(Cmp (Ge, Arith (Sub, Col "a", Col "b"), Neg (Const (Value.int 3))));
      Expr.(Like (Col "name", "%x_y%"));
    ]
  in
  List.iter
    (fun e ->
      let printed = Expr.to_string e in
      let reparsed = Parser.parse_expr printed in
      if not (Expr.equal e reparsed) then
        Alcotest.failf "%s reparsed as %s" printed (Expr.to_string reparsed))
    exprs

let test_parse_statements () =
  let stmts =
    Parser.parse
      "CREATE TABLE emp (name STRING NOT NULL, salary INT);\n\
       INSERT INTO emp VALUES ('Bruce', 15), ('Laura', 6);\n\
       INSERT INTO emp (salary, name) VALUES (9, 'Mohan');\n\
       UPDATE emp SET salary = salary + 1 WHERE name = 'Laura';\n\
       DELETE FROM emp WHERE salary >= 15;\n\
       SELECT name, salary FROM emp WHERE salary < 10 ORDER BY salary DESC LIMIT 3;\n\
       CREATE SNAPSHOT lowpay AS SELECT name FROM emp WHERE salary < 10 REFRESH DIFFERENTIAL;\n\
       REFRESH SNAPSHOT lowpay;\n\
       SHOW SNAPSHOTS;\n\
       EXPLAIN SNAPSHOT lowpay;\n\
       DROP SNAPSHOT lowpay;\n\
       DROP TABLE emp"
  in
  checki "twelve statements" 12 (List.length stmts);
  (match List.nth stmts 0 with
  | Ast.Create_table { table = "emp"; columns } ->
    checki "two columns" 2 (List.length columns);
    checkb "not null honored" true (not (List.hd columns).Schema.nullable)
  | _ -> Alcotest.fail "create table");
  (match List.nth stmts 1 with
  | Ast.Insert { rows; _ } -> checki "two rows" 2 (List.length rows)
  | _ -> Alcotest.fail "insert");
  (match List.nth stmts 5 with
  | Ast.Select { order_by = Some { Ast.column = "salary"; descending = true }; limit = Some 3; _ } ->
    ()
  | _ -> Alcotest.fail "select modifiers");
  match List.nth stmts 6 with
  | Ast.Create_snapshot { method_ = Ast.Differential; columns = Ast.Items [ Ast.Col_item "name" ]; _ } -> ()
  | _ -> Alcotest.fail "create snapshot"

let test_parse_errors () =
  let bad =
    [
      "SELECT";
      "CREATE TABLE t";
      "INSERT INTO t VALUES (1";
      "UPDATE t WHERE x = 1";
      "CREATE SNAPSHOT s FROM t";
      "REFRESH t";
      "SELECT * FROM t GARBAGE";
    ]
  in
  List.iter
    (fun input ->
      match Parser.parse input with
      | exception Parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %S" input)
    bad

(* ------------------------------------------------------------------ *)
(* Database engine *)

let setup () =
  let db = Database.create () in
  let exec s =
    match Database.run db s with
    | r -> r
    | exception Database.Sql_error m -> Alcotest.failf "%s failed: %s" s m
  in
  ignore (exec "CREATE TABLE emp (name STRING NOT NULL, salary INT NOT NULL)");
  ignore
    (exec
       "INSERT INTO emp VALUES ('Bruce', 15), ('Hamid', 9), ('Jack', 6), ('Mohan', 9), \
        ('Paul', 8), ('Bob', 8)");
  (db, exec)

let rows_of = function
  | Database.Rows (_, rows) -> rows
  | _ -> Alcotest.fail "expected rows"

let test_db_select () =
  let _, exec = setup () in
  let rows = rows_of (exec "SELECT name FROM emp WHERE salary < 10 ORDER BY name") in
  Alcotest.(check (list string)) "names"
    [ "'Bob'"; "'Hamid'"; "'Jack'"; "'Mohan'"; "'Paul'" ]
    (List.map (fun r -> Value.to_string (Tuple.get r 0)) rows);
  checki "limit" 2 (List.length (rows_of (exec "SELECT * FROM emp LIMIT 2")));
  let top = rows_of (exec "SELECT name, salary FROM emp ORDER BY salary DESC LIMIT 1") in
  checkb "highest paid" true
    (match top with [ r ] -> Tuple.get r 0 = Value.str "Bruce" | _ -> false)

let test_db_update_delete () =
  let _, exec = setup () in
  (match exec "UPDATE emp SET salary = salary + 1 WHERE name = 'Jack'" with
  | Database.Affected 1 -> ()
  | _ -> Alcotest.fail "update count");
  let rows = rows_of (exec "SELECT salary FROM emp WHERE name = 'Jack'") in
  checkb "raised" true (match rows with [ r ] -> Tuple.get r 0 = Value.int 7 | _ -> false);
  (match exec "DELETE FROM emp WHERE salary >= 9" with
  | Database.Affected n -> checki "three deleted" 3 n
  | _ -> Alcotest.fail "delete count");
  checki "three left" 3 (List.length (rows_of (exec "SELECT * FROM emp")))

let test_db_snapshot_lifecycle () =
  let _, exec = setup () in
  (match exec "CREATE SNAPSHOT lowpay AS SELECT * FROM emp WHERE salary < 10 REFRESH DIFFERENTIAL" with
  | Database.Refreshed r ->
    checki "initial population" 5 r.Database.Manager.data_messages
  | _ -> Alcotest.fail "create snapshot");
  checki "queryable" 5 (List.length (rows_of (exec "SELECT * FROM lowpay")));
  ignore (exec "UPDATE emp SET salary = 20 WHERE name = 'Hamid'");
  ignore (exec "INSERT INTO emp VALUES ('Laura', 6)");
  (* Stale until refreshed. *)
  checki "stale" 5 (List.length (rows_of (exec "SELECT * FROM lowpay")));
  (match exec "REFRESH SNAPSHOT lowpay" with
  | Database.Refreshed r ->
    checkb "differential used" true (r.Database.Manager.method_used = Snapdiff_core.Manager.Used_differential)
  | _ -> Alcotest.fail "refresh");
  let names = rows_of (exec "SELECT name FROM lowpay ORDER BY name") in
  Alcotest.(check (list string)) "after refresh"
    [ "'Bob'"; "'Jack'"; "'Laura'"; "'Mohan'"; "'Paul'" ]
    (List.map (fun r -> Value.to_string (Tuple.get r 0)) names)

let test_db_snapshot_read_only () =
  let db, exec = setup () in
  ignore (exec "CREATE SNAPSHOT s AS SELECT * FROM emp");
  List.iter
    (fun stmt ->
      match Database.run db stmt with
      | exception Database.Sql_error m -> checkb "raises Sql_error" true (String.length m > 0)
      | _ -> Alcotest.failf "%s allowed on a snapshot" stmt)
    [
      "INSERT INTO s VALUES ('X', 1)";
      "UPDATE s SET salary = 1";
      "DELETE FROM s";
    ]

let test_db_projection_and_methods () =
  let _, exec = setup () in
  ignore (exec "CREATE SNAPSHOT names AS SELECT name FROM emp WHERE salary < 10 REFRESH IDEAL");
  let rows = rows_of (exec "SELECT * FROM names") in
  checkb "single column" true (List.for_all (fun r -> Array.length r = 1) rows);
  ignore (exec "UPDATE emp SET salary = 2 WHERE name = 'Bruce'");
  (match exec "REFRESH SNAPSHOT names" with
  | Database.Refreshed r ->
    checkb "ideal used" true (r.Database.Manager.method_used = Snapdiff_core.Manager.Used_ideal);
    checki "one message" 1 r.Database.Manager.data_messages
  | _ -> Alcotest.fail "refresh");
  checki "six now" 6 (List.length (rows_of (exec "SELECT * FROM names")));
  (* Log-based works because the database attaches a shared WAL. *)
  ignore (exec "CREATE SNAPSHOT viaLog AS SELECT * FROM emp REFRESH LOGBASED");
  ignore (exec "DELETE FROM emp WHERE name = 'Bob'");
  match exec "REFRESH SNAPSHOT viaLog" with
  | Database.Refreshed r ->
    checkb "log-based used" true
      (r.Database.Manager.method_used = Snapdiff_core.Manager.Used_log_based);
    checki "one remove" 1 r.Database.Manager.data_messages
  | _ -> Alcotest.fail "log refresh"

let test_db_show_and_explain () =
  let _, exec = setup () in
  ignore (exec "CREATE SNAPSHOT s AS SELECT * FROM emp WHERE salary < 10");
  (match exec "SHOW TABLES" with
  | Database.Info [ line ] -> checkb "emp listed" true (String.length line > 3)
  | _ -> Alcotest.fail "show tables");
  (match exec "SHOW SNAPSHOTS" with
  | Database.Info [ line ] ->
    checkb "restriction shown" true
      (let has_sub needle hay =
         let ln = String.length needle and lh = String.length hay in
         let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
         go 0
       in
       has_sub "salary < 10" line)
  | _ -> Alcotest.fail "show snapshots");
  match exec "EXPLAIN SNAPSHOT s" with
  | Database.Info lines -> checkb "several facts" true (List.length lines >= 6)
  | _ -> Alcotest.fail "explain"

let test_db_errors () =
  let db, exec = setup () in
  ignore (exec "CREATE SNAPSHOT s AS SELECT * FROM emp");
  let expect_error stmt =
    match Database.run db stmt with
    | exception Database.Sql_error _ -> ()
    | _ -> Alcotest.failf "%s should fail" stmt
  in
  expect_error "SELECT * FROM ghost";
  expect_error "CREATE TABLE emp (x INT)";
  expect_error "CREATE TABLE t2 (__timestamp INT)";
  expect_error "INSERT INTO emp VALUES (1, 'backwards')";
  expect_error "INSERT INTO emp VALUES ('too few')";
  expect_error "UPDATE emp SET salary = 'words'";
  expect_error "SELECT * FROM emp WHERE ghost < 1";
  expect_error "DROP TABLE emp";  (* snapshot s depends on it *)
  expect_error "CREATE SNAPSHOT s AS SELECT * FROM emp";
  ignore (exec "DROP SNAPSHOT s");
  (match Database.run db "DROP TABLE emp" with
  | Database.Dropped _ -> ()
  | _ -> Alcotest.fail "drop after dependents gone")

let test_db_script_and_render () =
  let db = Database.create () in
  let results =
    Database.run_script db
      "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2), (3); SELECT a FROM t WHERE a > 1"
  in
  checki "three statements" 3 (List.length results);
  let _, last = List.nth results 2 in
  let rendered = Database.render_result last in
  checkb "rendered rows" true (String.length rendered > 0);
  checkb "mentions count" true
    (let has_sub needle hay =
       let ln = String.length needle and lh = String.length hay in
       let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
       go 0
     in
     has_sub "2 row(s)" rendered)

let test_db_null_handling () =
  let db = Database.create () in
  let exec s = Database.run db s in
  ignore (exec "CREATE TABLE t (a INT, b STRING)");
  ignore (exec "INSERT INTO t VALUES (1, 'x'), (NULL, 'y'), (3, NULL)");
  (match exec "SELECT * FROM t WHERE a IS NULL" with
  | Database.Rows (_, rows) -> checki "one null" 1 (List.length rows)
  | _ -> Alcotest.fail "rows");
  match exec "SELECT * FROM t WHERE a < 5" with
  | Database.Rows (_, rows) -> checki "null unqualifies" 2 (List.length rows)
  | _ -> Alcotest.fail "rows"

(* ------------------------------------------------------------------ *)
(* Aggregates and GROUP BY *)

let setup_depts () =
  let db = Database.create () in
  let exec s =
    match Database.run db s with
    | r -> r
    | exception Database.Sql_error m -> Alcotest.failf "%s failed: %s" s m
  in
  ignore (exec "CREATE TABLE emp (name STRING NOT NULL, dept STRING NOT NULL, salary INT)");
  ignore
    (exec
       "INSERT INTO emp VALUES ('Bruce','db',15), ('Laura','db',6), ('Hamid','db',9), \
        ('Jack','os',6), ('Pat','os',NULL), ('Paul','net',8)");
  (db, exec)

let test_agg_global () =
  let _, exec = setup_depts () in
  (match exec "SELECT COUNT(*), COUNT(salary), SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp" with
  | Database.Rows (schema, [ row ]) ->
    Alcotest.(check (list string)) "output names"
      [ "count(*)"; "count(salary)"; "sum(salary)"; "avg(salary)"; "min(salary)"; "max(salary)" ]
      (List.map (fun (c : Schema.column) -> c.Schema.name) (Schema.columns schema));
    checkb "count(*) counts rows" true (Tuple.get row 0 = Value.int 6);
    checkb "count(col) skips NULL" true (Tuple.get row 1 = Value.int 5);
    checkb "sum" true (Tuple.get row 2 = Value.int 44);
    checkb "avg" true
      (match Tuple.get row 3 with Value.Float f -> Float.abs (f -. 8.8) < 1e-9 | _ -> false);
    checkb "min" true (Tuple.get row 4 = Value.int 6);
    checkb "max" true (Tuple.get row 5 = Value.int 15)
  | _ -> Alcotest.fail "one aggregate row expected");
  (* Aggregates over an empty selection: one row, SQL NULL semantics. *)
  match exec "SELECT COUNT(*), SUM(salary) FROM emp WHERE salary > 100" with
  | Database.Rows (_, [ row ]) ->
    checkb "count 0" true (Tuple.get row 0 = Value.int 0);
    checkb "sum NULL" true (Tuple.get row 1 = Value.Null)
  | _ -> Alcotest.fail "empty-group row expected"

let test_agg_group_by () =
  let _, exec = setup_depts () in
  match exec "SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept ORDER BY dept" with
  | Database.Rows (_, rows) ->
    let show r =
      Printf.sprintf "%s %s %s"
        (Value.to_string (Tuple.get r 0))
        (Value.to_string (Tuple.get r 1))
        (Value.to_string (Tuple.get r 2))
    in
    Alcotest.(check (list string)) "groups"
      [ "'db' 3 30"; "'net' 1 8"; "'os' 2 6" ]
      (List.map show rows)
  | _ -> Alcotest.fail "rows"

let test_agg_over_snapshot_and_join () =
  let db, exec = setup_depts () in
  ignore (exec "CREATE SNAPSHOT lowpay AS SELECT * FROM emp WHERE salary < 10");
  (match exec "SELECT COUNT(*) FROM lowpay" with
  | Database.Rows (_, [ row ]) -> checkb "snapshot aggregate" true (Tuple.get row 0 = Value.int 4)
  | _ -> Alcotest.fail "rows");
  ignore (exec "CREATE TABLE dept (dname STRING NOT NULL, floor INT NOT NULL)");
  ignore (exec "INSERT INTO dept VALUES ('db',3), ('os',2), ('net',1)");
  (match exec "SELECT floor, COUNT(*) FROM emp, dept WHERE dept = dname GROUP BY floor ORDER BY floor" with
  | Database.Rows (_, rows) -> checki "three floors" 3 (List.length rows)
  | _ -> Alcotest.fail "rows");
  ignore db

let test_agg_errors () =
  let db, _ = setup_depts () in
  let expect_error stmt =
    match Database.run db stmt with
    | exception Database.Sql_error _ -> ()
    | _ -> Alcotest.failf "%s should fail" stmt
  in
  expect_error "SELECT name, COUNT(*) FROM emp";  (* bare column without GROUP BY *)
  expect_error "SELECT name FROM emp GROUP BY dept";  (* name not grouped *)
  expect_error "SELECT * FROM emp GROUP BY dept";
  expect_error "SELECT SUM(name) FROM emp";  (* non-numeric *)
  expect_error "SELECT SUM(*) FROM emp";
  expect_error "CREATE SNAPSHOT s AS SELECT COUNT(*) FROM emp"

let suite =
  [
    Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
    Alcotest.test_case "agg global" `Quick test_agg_global;
    Alcotest.test_case "agg group by" `Quick test_agg_group_by;
    Alcotest.test_case "agg over snapshot/join" `Quick test_agg_over_snapshot_and_join;
    Alcotest.test_case "agg errors" `Quick test_agg_errors;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "parse expressions" `Quick test_parse_expressions;
    Alcotest.test_case "expr pp roundtrip" `Quick test_parse_expr_pp_roundtrip;
    Alcotest.test_case "parse statements" `Quick test_parse_statements;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "db select" `Quick test_db_select;
    Alcotest.test_case "db update/delete" `Quick test_db_update_delete;
    Alcotest.test_case "db snapshot lifecycle" `Quick test_db_snapshot_lifecycle;
    Alcotest.test_case "db snapshot read-only" `Quick test_db_snapshot_read_only;
    Alcotest.test_case "db projection + methods" `Quick test_db_projection_and_methods;
    Alcotest.test_case "db show/explain" `Quick test_db_show_and_explain;
    Alcotest.test_case "db errors" `Quick test_db_errors;
    Alcotest.test_case "db script + render" `Quick test_db_script_and_render;
    Alcotest.test_case "db null handling" `Quick test_db_null_handling;
  ]

(* Appended: ANALYZE + statistics-driven planning. *)
let test_analyze_feeds_planner () =
  let db = Database.create () in
  let exec s =
    match Database.run db s with
    | r -> r
    | exception Database.Sql_error m -> Alcotest.failf "%s failed: %s" s m
  in
  ignore (exec "CREATE TABLE big (id INT NOT NULL, v INT NOT NULL)");
  let rows =
    String.concat ", " (List.init 400 (fun i -> Printf.sprintf "(%d, %d)" i (i mod 100)))
  in
  ignore (exec (Printf.sprintf "INSERT INTO big VALUES %s" rows));
  (match exec "ANALYZE big" with
  | Database.Info [ line ] -> checkb "reported" true (String.length line > 0)
  | _ -> Alcotest.fail "analyze output");
  ignore (exec "CREATE SNAPSHOT quarter AS SELECT * FROM big WHERE v < 25 REFRESH AUTO");
  (* The planner's selectivity came from the histogram: close to 0.25. *)
  let q = Snapdiff_core.Manager.selectivity_estimate (Database.manager db) "quarter" in
  checkb (Printf.sprintf "histogram selectivity %.3f" q) true (Float.abs (q -. 0.25) < 0.05);
  (* ANALYZE with no argument covers every table. *)
  ignore (exec "CREATE TABLE other (a INT)");
  match exec "ANALYZE" with
  | Database.Info lines -> checki "both tables" 2 (List.length lines)
  | _ -> Alcotest.fail "analyze all"

let test_analyze_errors () =
  let db = Database.create () in
  match Database.run db "ANALYZE ghost" with
  | exception Database.Sql_error _ -> ()
  | _ -> Alcotest.fail "unknown table accepted"

let suite =
  suite
  @ [
      Alcotest.test_case "analyze feeds planner" `Quick test_analyze_feeds_planner;
      Alcotest.test_case "analyze errors" `Quick test_analyze_errors;
    ]

(* Appended: SQL time travel (SELECT ... AS OF) and the RETAIN clause. *)

module VS = Snapdiff_mvcc.Version_store
module Manager = Snapdiff_core.Manager
module Snapshot_table = Snapdiff_core.Snapshot_table

let test_parse_as_of_and_retain () =
  (match Parser.parse "SELECT * FROM s AS OF EPOCH 3" with
  | [ Ast.Select { as_of = Some (Ast.As_of_epoch 3); _ } ] -> ()
  | _ -> Alcotest.fail "AS OF EPOCH");
  (match Parser.parse "SELECT * FROM s AS OF TIMESTAMP 7 WHERE x < 2" with
  | [ Ast.Select { as_of = Some (Ast.As_of_time 7); where = Some _; _ } ] -> ()
  | _ -> Alcotest.fail "AS OF TIMESTAMP");
  (match Parser.parse "SELECT * FROM s AS OF 5" with
  | [ Ast.Select { as_of = Some (Ast.As_of_epoch 5); _ } ] -> ()
  | _ -> Alcotest.fail "a bare AS OF point defaults to an epoch");
  (match Parser.parse "CREATE SNAPSHOT k AS SELECT * FROM t REFRESH AUTO RETAIN 4" with
  | [ Ast.Create_snapshot { retain = Some 4; _ } ] -> ()
  | _ -> Alcotest.fail "RETAIN");
  (match Parser.parse "CREATE SNAPSHOT k AS SELECT * FROM t REFRESH AUTO" with
  | [ Ast.Create_snapshot { retain = None; _ } ] -> ()
  | _ -> Alcotest.fail "RETAIN defaults to None");
  (* pp round-trips through the parser *)
  List.iter
    (fun s ->
      let st = List.hd (Parser.parse s) in
      let printed = Format.asprintf "%a" Ast.pp_stmt st in
      checkb (s ^ " round-trips") true (Parser.parse printed = [ st ]))
    [ "SELECT * FROM s AS OF EPOCH 3"; "SELECT * FROM s AS OF TIMESTAMP 7";
      "CREATE SNAPSHOT k AS SELECT * FROM t WHERE x < 2 REFRESH FULL RETAIN 9" ];
  (* rejected forms *)
  List.iter
    (fun s ->
      match Parser.parse s with
      | exception Parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "%s should not parse" s)
    [ "CREATE SNAPSHOT k AS SELECT * FROM t AS OF EPOCH 1 REFRESH AUTO";
      "SELECT * FROM s AS OF"; "SELECT * FROM s AS OF EPOCH";
      "CREATE SNAPSHOT k AS SELECT * FROM t REFRESH AUTO RETAIN 0" ]

let test_db_as_of_time_travel () =
  let db = Database.create () in
  let exec s =
    match Database.run db s with
    | r -> r
    | exception Database.Sql_error m -> Alcotest.failf "%s failed: %s" s m
  in
  let render = Database.render_result in
  ignore (exec "CREATE TABLE emp (id INT NOT NULL, salary INT NOT NULL)");
  ignore (exec "INSERT INTO emp VALUES (1, 5), (2, 15), (3, 25), (4, 35)");
  ignore
    (exec
       "CREATE SNAPSHOT low AS SELECT * FROM emp WHERE salary < 30 REFRESH \
        DIFFERENTIAL RETAIN 3");
  let m = Database.manager db in
  let images = ref [] in
  let capture () =
    match Manager.snapshot_versions m "low" with
    | vi :: _ ->
      images := (vi.VS.vi_epoch, vi.VS.vi_snaptime, render (exec "SELECT * FROM low")) :: !images
    | [] -> Alcotest.fail "no live version"
  in
  capture ();
  ignore (exec "UPDATE emp SET salary = 8 WHERE id = 3");
  ignore (exec "REFRESH SNAPSHOT low");
  capture ();
  ignore (exec "DELETE FROM emp WHERE id = 1");
  ignore (exec "REFRESH SNAPSHOT low");
  capture ();
  checki "three distinct epochs captured" 3
    (List.length (List.sort_uniq compare (List.map (fun (e, _, _) -> e) !images)));
  List.iter
    (fun (e, ts, img) ->
      checkb (Printf.sprintf "AS OF EPOCH %d is byte-identical" e) true
        (render (exec (Printf.sprintf "SELECT * FROM low AS OF EPOCH %d" e)) = img);
      checkb (Printf.sprintf "AS OF TIMESTAMP %d resolves to epoch %d" ts e) true
        (render (exec (Printf.sprintf "SELECT * FROM low AS OF TIMESTAMP %d" ts)) = img);
      (* The oracle: the same epoch through a pinned MVCC read txn. *)
      let txn = Manager.read_txn_exn ~epoch:e m "low" in
      let oracle =
        Fun.protect
          ~finally:(fun () -> Snapshot_table.release_txn txn)
          (fun () ->
            List.rev
              (Snapshot_table.txn_fold txn ~init:[] ~f:(fun acc _ t -> t :: acc)))
      in
      match exec (Printf.sprintf "SELECT * FROM low AS OF EPOCH %d" e) with
      | Database.Rows (_, tuples) ->
        checkb (Printf.sprintf "epoch %d matches the read_txn oracle" e) true
          (tuples = oracle)
      | _ -> Alcotest.fail "AS OF did not return rows")
    !images;
  (* AS OF composes with WHERE and projection: at the oldest retained
     epoch (captured before the UPDATE), salaries 15 and 25 qualify. *)
  let oldest = List.fold_left (fun a (e, _, _) -> min a e) max_int !images in
  (match exec (Printf.sprintf "SELECT id FROM low AS OF EPOCH %d WHERE salary > 10" oldest) with
  | Database.Rows (schema, tuples) ->
    checki "one projected column" 1 (Schema.arity schema);
    checki "two pre-update qualifiers" 2 (List.length tuples)
  | _ -> Alcotest.fail "filtered AS OF");
  (* A fourth refresh rolls the oldest epoch out of the RETAIN 3 window. *)
  ignore (exec "UPDATE emp SET salary = 2 WHERE id = 2");
  ignore (exec "REFRESH SNAPSHOT low");
  match Database.run db (Printf.sprintf "SELECT * FROM low AS OF EPOCH %d" oldest) with
  | exception Database.Sql_error msg ->
    checkb "the miss names the epoch and the live range" true
      (let has needle =
         let n = String.length needle and l = String.length msg in
         let rec go i = i + n <= l && (String.sub msg i n = needle || go (i + 1)) in
         go 0
       in
       has (Printf.sprintf "epoch %d" oldest) && has "not retained")
  | _ -> Alcotest.fail "an evicted epoch should be a clean SQL error"

let test_db_as_of_errors () =
  let db = Database.create () in
  let exec s =
    match Database.run db s with
    | r -> r
    | exception Database.Sql_error m -> Alcotest.failf "%s failed: %s" s m
  in
  ignore (exec "CREATE TABLE t (a INT NOT NULL)");
  ignore (exec "INSERT INTO t VALUES (1), (2)");
  ignore (exec "CREATE TABLE u (b INT NOT NULL)");
  ignore (exec "CREATE SNAPSHOT s AS SELECT * FROM t REFRESH AUTO RETAIN 2");
  (* Roll the pre-refresh seed version (SnapTime 0) out of the window so
     a pre-history timestamp has nothing left to resolve to. *)
  ignore (exec "REFRESH SNAPSHOT s");
  ignore (exec "REFRESH SNAPSHOT s");
  let expect_error stmt =
    match Database.run db stmt with
    | exception Database.Sql_error _ -> ()
    | _ -> Alcotest.failf "%s should fail" stmt
  in
  expect_error "SELECT * FROM t AS OF EPOCH 0";  (* base tables have no history *)
  expect_error "SELECT * FROM t, u AS OF EPOCH 0";  (* no time travel on joins *)
  expect_error "SELECT * FROM s AS OF TIMESTAMP 0";  (* before the first version *)
  expect_error "SELECT * FROM ghost AS OF EPOCH 0";
  (* A retained epoch reads fine. *)
  let oldest =
    List.fold_left
      (fun a vi -> min a vi.VS.vi_epoch)
      max_int
      (Manager.snapshot_versions (Database.manager db) "s")
  in
  ignore (exec (Printf.sprintf "SELECT * FROM s AS OF EPOCH %d" oldest))

(* A join snapshot's refreshes are framed epochs, so RETAIN keeps them:
   after two refreshes, AS OF the creation epoch and the first refresh's
   epoch each return that image.  Creation is epoch 0, and each refresh
   the next. *)
let test_db_join_snapshot_retains () =
  let db = Database.create () in
  let exec s =
    match Database.run db s with
    | r -> r
    | exception Database.Sql_error m -> Alcotest.failf "%s failed: %s" s m
  in
  let render = Database.render_result in
  ignore (exec "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL)");
  ignore (exec "CREATE TABLE u (id INT NOT NULL, w INT NOT NULL)");
  ignore (exec "INSERT INTO t VALUES (1, 10), (2, 20)");
  ignore (exec "INSERT INTO u VALUES (1, 100), (2, 200), (3, 300)");
  let images = ref [] in
  let refresh stmt =
    match exec stmt with
    | Database.Refreshed r ->
      let e = List.length !images in
      images := (e, r.Manager.new_snaptime, render (exec "SELECT * FROM j")) :: !images
    | _ -> Alcotest.failf "%s did not refresh" stmt
  in
  refresh
    "CREATE SNAPSHOT j AS SELECT t.id, v, w FROM t, u WHERE t.id = u.id REFRESH FULL RETAIN 3";
  ignore (exec "INSERT INTO t VALUES (3, 30)");
  refresh "REFRESH SNAPSHOT j";
  ignore (exec "DELETE FROM t WHERE id = 1");
  refresh "REFRESH SNAPSHOT j";
  checki "three distinct images" 3
    (List.length (List.sort_uniq compare (List.map (fun (_, _, img) -> img) !images)));
  List.iter
    (fun (e, ts, img) ->
      checkb (Printf.sprintf "AS OF EPOCH %d returns its image" e) true
        (render (exec (Printf.sprintf "SELECT * FROM j AS OF EPOCH %d" e)) = img);
      checkb (Printf.sprintf "AS OF TIMESTAMP %d returns epoch %d's image" ts e) true
        (render (exec (Printf.sprintf "SELECT * FROM j AS OF TIMESTAMP %d" ts)) = img))
    !images

(* A query snapshot's stream that ends without its Snaptime marker never
   commits; the refresh must abort the epoch it left open, under a reason
   naming that epoch, rather than leave it for the next refresh to discard
   as superseded.  An earlier abort's reason must not stand in for it. *)
let test_db_query_snapshot_lost_marker () =
  let db = Database.create () in
  let exec s = ignore (Database.run db s : Database.result) in
  exec "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL)";
  exec "CREATE TABLE u (id INT NOT NULL, w INT NOT NULL)";
  exec "INSERT INTO t VALUES (1, 10), (2, 20)";
  exec "INSERT INTO u VALUES (1, 100), (2, 200)";
  exec "CREATE SNAPSHOT j AS SELECT t.id, v, w FROM t, u WHERE t.id = u.id REFRESH FULL";
  let link = Database.snapshot_link db "j" and table = Database.snapshot_table db "j" in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let failed_refresh () =
    match Database.run db "REFRESH SNAPSHOT j" with
    | _ -> Alcotest.fail "an incomplete stream committed"
    | exception Database.Sql_error msg -> msg
  in
  let aborts () =
    Snapdiff_obs.Metrics.counter_value Snapdiff_obs.Metrics.global "snapshot.stream_aborts"
  in
  (* First an abort of the receiver's own: a corrupt first frame. *)
  let first = ref true in
  Snapdiff_net.Link.attach link (fun b len ->
      let b = Bytes.sub b 0 len in
      if !first then begin
        first := false;
        Bytes.set b (len - 1) (Char.chr (Char.code (Bytes.get b (len - 1)) lxor 0xff))
      end;
      Snapshot_table.apply_bytes table b len);
  let a0 = aborts () in
  let msg = failed_refresh () in
  checki "a corrupt frame aborts its epoch once" 1 (aborts () - a0);
  checkb "the receiver's reason is reported" true (contains msg "corrupt frame");
  (* Then a lost marker: the epoch stays open until the refresh aborts it. *)
  let marker b len =
    match Snapdiff_core.Refresh_msg.decode_framed (Bytes.sub b 0 len) with
    | _, [ Snapdiff_core.Refresh_msg.Snaptime _ ] -> true
    | _ -> false
  in
  Snapdiff_net.Link.attach link (fun b len ->
      if not (marker b len) then Snapshot_table.apply_bytes table b len);
  let a1 = aborts () in
  let msg = failed_refresh () in
  checki "the failed refresh aborts its open epoch" 1 (aborts () - a1);
  let recorded = Option.value (Snapshot_table.last_abort table) ~default:"" in
  checkb "the recorded reason names the lost marker" true
    (contains recorded "did not reach its Snaptime");
  checkb "the error names the lost marker" true (contains msg "did not reach its Snaptime");
  Snapdiff_net.Link.attach link (Snapshot_table.apply_bytes table);
  let a2 = aborts () in
  exec "REFRESH SNAPSHOT j";
  checki "a clean refresh aborts nothing" 0 (aborts () - a2)

let test_db_dump_carries_retain () =
  let db = Database.create () in
  let exec s = Database.run db s in
  ignore (exec "CREATE TABLE t (a INT NOT NULL)");
  ignore (exec "INSERT INTO t VALUES (1)");
  ignore (exec "CREATE SNAPSHOT keep3 AS SELECT * FROM t REFRESH AUTO RETAIN 3");
  ignore (exec "CREATE SNAPSHOT keep1 AS SELECT * FROM t REFRESH AUTO");
  match exec "DUMP" with
  | Database.Info lines ->
    let script = String.concat "\n" lines in
    let has needle =
      let n = String.length needle and l = String.length script in
      let rec go i = i + n <= l && (String.sub script i n = needle || go (i + 1)) in
      go 0
    in
    checkb "dump records RETAIN 3" true (has "RETAIN 3");
    checkb "the inert default stays silent" true (not (has "keep1 AS SELECT * FROM t REFRESH AUTO RETAIN"));
    (* The dump replays: a fresh database accepts its own output. *)
    let db2 = Database.create () in
    ignore (Database.run_script db2 script);
    checki "replayed retention window" 3
      (Snapshot_table.version_retain
         (Manager.snapshot_table (Database.manager db2) "keep3"))
  | _ -> Alcotest.fail "dump output"

let suite =
  suite
  @ [
      Alcotest.test_case "parse AS OF + RETAIN" `Quick test_parse_as_of_and_retain;
      Alcotest.test_case "db AS OF time travel" `Quick test_db_as_of_time_travel;
      Alcotest.test_case "db AS OF errors" `Quick test_db_as_of_errors;
      Alcotest.test_case "db dump carries RETAIN" `Quick test_db_dump_carries_retain;
      Alcotest.test_case "db join snapshot keeps RETAIN epochs" `Quick
        test_db_join_snapshot_retains;
      Alcotest.test_case "db query snapshot aborts an uncommitted epoch" `Quick
        test_db_query_snapshot_lost_marker;
    ]
