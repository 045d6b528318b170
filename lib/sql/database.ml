open Snapdiff_storage
module Clock = Snapdiff_txn.Clock
module Expr = Snapdiff_expr.Expr
module Eval = Snapdiff_expr.Eval
module Typecheck = Snapdiff_expr.Typecheck
module Base_table = Snapdiff_core.Base_table
module Snapshot_table = Snapdiff_core.Snapshot_table
module Cascade = Snapdiff_core.Cascade
module Refresh_msg = Snapdiff_core.Refresh_msg
module Manager = Snapdiff_core.Manager
module Link = Snapdiff_net.Link
module Text_table = Snapdiff_util.Text_table

exception Sql_error of string

let err fmt = Format.kasprintf (fun m -> raise (Sql_error m)) fmt

type result =
  | Rows of Schema.t * Tuple.t list
  | Affected of int
  | Created of string
  | Dropped of string
  | Refreshed of Manager.refresh_report
  | Info of string list

(* Snapshots defined by a query over several tables (or over another
   snapshot when cascading does not apply): refreshed by re-evaluating the
   query, as the paper prescribes for the general case. *)
type query_snap = {
  qs_tables : string list;
  qs_columns : Ast.select_columns;
  qs_where : Expr.t option;
  qs_table : Snapshot_table.t;
  qs_link : Link.t;
  mutable qs_next_epoch : int;  (* each refresh attempt sends a fresh epoch *)
}

type cascade_snap = {
  cs_parent : string;
  cs_cascade : Cascade.t;
  cs_columns : Ast.select_columns;
  cs_where : Expr.t option;
}

type t = {
  db_clock : Clock.t;
  mgr : Manager.t;
  wal : Snapdiff_wal.Wal.t option;
  tables : (string, Base_table.t) Hashtbl.t;  (* lowercased name *)
  query_snaps : (string, query_snap) Hashtbl.t;
  cascades : (string, cascade_snap) Hashtbl.t;
  (* ANALYZE output: (table, column) -> histogram (keys lowercased). *)
  stats : (string * string, Snapdiff_expr.Histogram.t) Hashtbl.t;
  mutable index_scans : int;
}

let create ?(wal = true) () =
  {
    db_clock = Clock.create ();
    mgr = Manager.create ();
    wal = (if wal then Some (Snapdiff_wal.Wal.create ()) else None);
    tables = Hashtbl.create 8;
    query_snaps = Hashtbl.create 4;
    cascades = Hashtbl.create 4;
    stats = Hashtbl.create 16;
    index_scans = 0;
  }

let manager t = t.mgr

let clock t = t.db_clock

let index_scans t = t.index_scans

let key = String.lowercase_ascii

let find_table t name = Hashtbl.find_opt t.tables (key name)

let is_manager_snapshot t name =
  List.exists (fun s -> key s = key name) (Manager.snapshot_names t.mgr)

(* Any snapshot-like relation: manager, query-defined, or cascaded. *)
let find_snapshot t name =
  if is_manager_snapshot t name then Some (Manager.snapshot_table t.mgr name)
  else
    match Hashtbl.find_opt t.query_snaps (key name) with
    | Some qs -> Some qs.qs_table
    | None ->
      Option.map (fun cs -> Cascade.table cs.cs_cascade) (Hashtbl.find_opt t.cascades (key name))

let name_exists t name = find_table t name <> None || find_snapshot t name <> None

let snapshot_table t name =
  match find_snapshot t name with
  | Some table -> table
  | None -> err "unknown snapshot %s" name

let snapshot_link t name =
  if is_manager_snapshot t name then Manager.snapshot_link t.mgr name
  else
    match Hashtbl.find_opt t.query_snaps (key name) with
    | Some qs -> qs.qs_link
    | None -> (
      match Hashtbl.find_opt t.cascades (key name) with
      | Some cs -> Cascade.link cs.cs_cascade
      | None -> err "unknown snapshot %s" name)

let get_table t name =
  match find_table t name with
  | Some b -> b
  | None ->
    if find_snapshot t name <> None then err "%s is a snapshot: snapshots are read-only" name
    else err "unknown table %s" name

let method_of_ast : Ast.refresh_method -> Manager.method_spec = function
  | Ast.Auto -> Manager.Auto
  | Ast.Full -> Manager.Full
  | Ast.Differential -> Manager.Differential
  | Ast.Ideal -> Manager.Ideal
  | Ast.Log_based -> Manager.Log_based

type source =
  | Base of Base_table.t
  | Snap of Snapshot_table.t

let source t name =
  match find_table t name with
  | Some b -> Base b
  | None -> (
    match find_snapshot t name with
    | Some s -> Snap s
    | None -> err "unknown table or snapshot %s" name)

let source_schema = function
  | Base b -> Base_table.user_schema b
  | Snap s -> Snapshot_table.schema s

let source_tuples = function
  | Base b -> List.map snd (Base_table.to_user_list b)
  | Snap s -> Snapshot_table.tuples s

(* ------------------------------------------------------------------ *)
(* Name resolution for (possibly multi-table) queries.

   For a single source, column names are the source's own; a qualified
   reference [t.c] is accepted when [t] names the source.  For a join, the
   result columns are qualified [t.c], and unqualified references resolve
   when the base name is unique across sources. *)

let basename name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

type resolution = {
  res_schema : Schema.t;  (** the combined (possibly qualified) schema *)
  resolve : string -> string;  (** user reference -> schema column name *)
}

let single_source_resolution table_name schema =
  let resolve name =
    match String.index_opt name '.' with
    | None ->
      if Schema.mem schema name then name else err "unknown column %s" name
    | Some i ->
      let prefix = String.sub name 0 i in
      let col = String.sub name (i + 1) (String.length name - i - 1) in
      if key prefix <> key table_name then err "unknown table %s in column reference %s" prefix name
      else if Schema.mem schema col then col
      else err "unknown column %s" name
  in
  { res_schema = schema; resolve }

let join_resolution sources =
  (* sources : (name, schema) list, in FROM order. *)
  let qualified =
    List.concat_map
      (fun (tname, schema) ->
        List.map
          (fun (c : Schema.column) ->
            { c with Schema.name = tname ^ "." ^ c.Schema.name })
          (Schema.columns schema))
      sources
  in
  let res_schema =
    try Schema.make qualified
    with Invalid_argument _ -> err "duplicate table in FROM clause"
  in
  let resolve name =
    if String.contains name '.' then begin
      if Schema.mem res_schema name then name else err "unknown column %s" name
    end
    else begin
      let matches =
        List.filter
          (fun (c : Schema.column) -> key (basename c.Schema.name) = key name)
          (Schema.columns res_schema)
      in
      match matches with
      | [ c ] -> c.Schema.name
      | [] -> err "unknown column %s" name
      | _ -> err "ambiguous column %s (qualify it as table.column)" name
    end
  in
  { res_schema; resolve }

let rec rewrite_expr resolve (e : Expr.t) : Expr.t =
  match e with
  | Expr.Col c -> Expr.Col (resolve c)
  | Expr.Const _ -> e
  | Expr.Cmp (op, a, b) -> Expr.Cmp (op, rewrite_expr resolve a, rewrite_expr resolve b)
  | Expr.And (a, b) -> Expr.And (rewrite_expr resolve a, rewrite_expr resolve b)
  | Expr.Or (a, b) -> Expr.Or (rewrite_expr resolve a, rewrite_expr resolve b)
  | Expr.Not a -> Expr.Not (rewrite_expr resolve a)
  | Expr.Is_null a -> Expr.Is_null (rewrite_expr resolve a)
  | Expr.Arith (op, a, b) -> Expr.Arith (op, rewrite_expr resolve a, rewrite_expr resolve b)
  | Expr.Neg a -> Expr.Neg (rewrite_expr resolve a)
  | Expr.Like (a, p) -> Expr.Like (rewrite_expr resolve a, p)
  | Expr.In_list (a, vs) -> Expr.In_list (rewrite_expr resolve a, vs)
  | Expr.Between (a, lo, hi) ->
    Expr.Between (rewrite_expr resolve a, rewrite_expr resolve lo, rewrite_expr resolve hi)

let compile_checked schema e =
  match Typecheck.check_predicate schema e with
  | Ok () -> Eval.compile schema e
  | Error terr -> err "%a" Typecheck.pp_error terr

(* Equality index fast path: WHERE col = literal (either order) over a
   snapshot with an index on col. *)
let index_fast_path t src resolution where =
  match (src, where) with
  | Snap snap, Some e -> (
    let col_eq_const = function
      | Expr.Cmp (Expr.Eq, Expr.Col c, Expr.Const v)
      | Expr.Cmp (Expr.Eq, Expr.Const v, Expr.Col c) ->
        Some (resolution.resolve c, v)
      | _ -> None
    in
    match col_eq_const e with
    | Some (col, v) when Snapshot_table.has_index snap ~column:col ->
      t.index_scans <- t.index_scans + 1;
      let addrs = Snapshot_table.lookup snap ~column:col v in
      Some (List.filter_map (Snapshot_table.get snap) addrs)
    | _ -> None)
  | _ -> None

(* Cartesian product of per-source row lists, concatenating tuples. *)
let rec cross = function
  | [] -> [ [||] ]
  | rows :: rest ->
    let tails = cross rest in
    List.concat_map (fun row -> List.map (fun tail -> Array.append row tail) tails) rows

(* ------------------------------------------------------------------ *)
(* Time travel: AS OF resolves to a retained epoch of the snapshot's
   version ring, and the query reads the pinned immutable image through a
   read transaction instead of the live table. *)

let resolve_as_of snap = function
  | Ast.As_of_epoch e -> e
  | Ast.As_of_time ts -> (
    (* Newest retained version whose SnapTime is at or before the point —
       the image a reader at that time would have seen. *)
    match
      List.find_opt
        (fun vi -> vi.Snapshot_table.Version_store.vi_snaptime <= ts)
        (Snapshot_table.versions snap)
    with
    | Some vi -> vi.Snapshot_table.Version_store.vi_epoch
    | None ->
      err "%s has no retained version at or before timestamp %d"
        (Snapshot_table.name snap) ts)

let as_of_tuples snap as_of =
  let epoch = resolve_as_of snap as_of in
  match Snapshot_table.read_txn_exn ~epoch snap with
  | txn ->
    Fun.protect
      ~finally:(fun () -> Snapshot_table.release_txn txn)
      (fun () ->
        List.rev (Snapshot_table.txn_fold txn ~init:[] ~f:(fun acc _ tup -> tup :: acc)))
  | exception Snapshot_table.Version_store.Epoch_not_retained
      { requested; live_lo; live_hi } ->
    err "epoch %d of %s is not retained (retained epochs %d..%d)" requested
      (Snapshot_table.name snap) live_lo live_hi

let eval_query ?as_of t ~tables ~where =
  match tables with
  | [] -> err "empty FROM clause"
  | [ tname ] ->
    let src = source t tname in
    let schema = source_schema src in
    let resolution = single_source_resolution tname schema in
    let where = Option.map (rewrite_expr resolution.resolve) where in
    let rows =
      match as_of with
      | Some point -> (
        (* The secondary index reflects the live head only, so the index
           fast path does not apply to a historical read. *)
        let tuples =
          match src with
          | Base _ -> err "AS OF requires a snapshot; %s is a base table" tname
          | Snap snap -> as_of_tuples snap point
        in
        match where with
        | None -> tuples
        | Some e -> List.filter (compile_checked schema e) tuples)
      | None -> (
        match index_fast_path t src resolution where with
        | Some rows -> rows
        | None -> (
          match where with
          | None -> source_tuples src
          | Some e ->
            let pred = compile_checked schema e in
            List.filter pred (source_tuples src)))
    in
    (resolution, rows)
  | _ when as_of <> None -> err "AS OF applies to a single snapshot, not a join"
  | many ->
    let sources =
      List.map
        (fun tname ->
          let src = source t tname in
          (tname, source_schema src, source_tuples src))
        many
    in
    let resolution = join_resolution (List.map (fun (n, s, _) -> (n, s)) sources) in
    let product = cross (List.map (fun (_, _, rows) -> rows) sources) in
    let rows =
      match where with
      | None -> product
      | Some e ->
        let pred = compile_checked resolution.res_schema (rewrite_expr resolution.resolve e) in
        List.filter pred product
    in
    (resolution, rows)

let item_to_sql = function
  | Ast.Col_item c -> c
  | Ast.Agg_item (fn, None) -> Printf.sprintf "%s(*)" (Ast.agg_name fn)
  | Ast.Agg_item (fn, Some c) -> Printf.sprintf "%s(%s)" (Ast.agg_name fn) c

let columns_to_sql = function
  | Ast.Star -> "*"
  | Ast.Items items -> String.concat ", " (List.map item_to_sql items)

(* Snapshot definitions take plain column lists; aggregates belong in
   queries over them. *)
let plain_columns = function
  | Ast.Star -> None
  | Ast.Items items ->
    Some
      (List.map
         (function
           | Ast.Col_item c -> c
           | Ast.Agg_item _ -> err "aggregates cannot define a snapshot's columns")
         items)

let has_aggregate = function
  | Ast.Star -> false
  | Ast.Items items ->
    List.exists (function Ast.Agg_item _ -> true | Ast.Col_item _ -> false) items

let project_result resolution rows = function
  | Ast.Star -> (resolution.res_schema, rows)
  | Ast.Items items ->
    let cols =
      List.map
        (function
          | Ast.Col_item c -> c
          | Ast.Agg_item _ -> err "aggregate in a non-aggregate projection")
        items
    in
    let resolved = List.map resolution.resolve cols in
    let idx =
      Array.of_list (List.map (Schema.index_of_exn resolution.res_schema) resolved)
    in
    (* Output columns keep the short name when unambiguous. *)
    let out_names =
      List.map
        (fun full ->
          let short = basename full in
          let clashes =
            List.length (List.filter (fun f -> key (basename f) = key short) resolved)
          in
          if clashes > 1 then full else short)
        resolved
    in
    let cols_meta =
      List.map2
        (fun full out ->
          let c = Schema.column resolution.res_schema (Schema.index_of_exn resolution.res_schema full) in
          { c with Schema.name = out })
        resolved out_names
    in
    let schema = try Schema.make cols_meta with Invalid_argument m -> err "%s" m in
    (schema, List.map (fun tup -> Tuple.project_idx tup idx) rows)

(* Grouped/aggregate evaluation.  Bare columns must appear in GROUP BY;
   with no GROUP BY, every item must be an aggregate (one global group,
   which exists even over zero rows). *)
let aggregate_result resolution rows items group_by =
  let resolve = resolution.resolve in
  let schema = resolution.res_schema in
  let group_cols = List.map resolve group_by in
  let group_idx = List.map (Schema.index_of_exn schema) group_cols in
  List.iter
    (function
      | Ast.Col_item c ->
        let rc = resolve c in
        if not (List.exists (fun g -> key g = key rc) group_cols) then
          err "column %s must appear in GROUP BY" c
      | Ast.Agg_item (_, Some c) -> ignore (resolve c : string)
      | Ast.Agg_item (_, None) -> ())
    items;
  (* Partition rows by group key, preserving first-seen order. *)
  let keys_in_order = ref [] in
  let groups : (Tuple.t, Tuple.t list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun row ->
      let k = Array.of_list (List.map (fun i -> row.(i)) group_idx) in
      match Hashtbl.find_opt groups k with
      | Some cell -> cell := row :: !cell
      | None ->
        Hashtbl.replace groups k (ref [ row ]);
        keys_in_order := k :: !keys_in_order)
    rows;
  let group_list =
    if group_by = [] then [ ([||], rows) ]  (* one global group, possibly empty *)
    else
      List.rev_map (fun k -> (k, List.rev !(Hashtbl.find groups k))) !keys_in_order
  in
  let source_ty c =
    (Schema.column schema (Schema.index_of_exn schema (resolve c))).Schema.ty
  in
  let out_column = function
    | Ast.Col_item c ->
      let full = resolve c in
      Schema.col ~nullable:true (basename full) (source_ty c)
    | Ast.Agg_item (fn, arg) as item ->
      let name = String.lowercase_ascii (item_to_sql item) in
      let ty =
        match (fn, arg) with
        | Ast.Count, _ -> Value.Tint
        | Ast.Avg, _ -> Value.Tfloat
        | (Ast.Sum | Ast.Min | Ast.Max), Some c -> source_ty c
        | (Ast.Sum | Ast.Min | Ast.Max), None ->
          err "%s requires a column argument" (Ast.agg_name fn)
      in
      (match (fn, arg) with
      | (Ast.Sum | Ast.Avg), Some c -> (
        match source_ty c with
        | Value.Tint | Value.Tfloat -> ()
        | ty -> err "%s over non-numeric column %s (%s)" (Ast.agg_name fn) c (Value.ty_name ty))
      | _ -> ());
      Schema.col ~nullable:true name ty
  in
  let out_schema =
    try Schema.make (List.map out_column items)
    with Invalid_argument m -> err "%s" m
  in
  let compute group_key group_rows = function
    | Ast.Col_item c ->
      let full = resolve c in
      let gi =
        match List.find_index (fun g -> key g = key full) group_cols with
        | Some i -> i
        (* [aggregate_result] rejected every bare column not in GROUP BY. *)
        | None -> assert false
      in
      group_key.(gi)
    | Ast.Agg_item (fn, arg) -> (
      let values =
        match arg with
        | None -> List.map (fun _ -> Value.Bool true) group_rows
        | Some c ->
          let i = Schema.index_of_exn schema (resolve c) in
          List.filter (fun v -> not (Value.is_null v)) (List.map (fun r -> r.(i)) group_rows)
      in
      match fn with
      | Ast.Count -> Value.int (List.length values)
      | Ast.Min -> (
        match values with
        | [] -> Value.Null
        | v :: rest -> List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) v rest)
      | Ast.Max -> (
        match values with
        | [] -> Value.Null
        | v :: rest -> List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v rest)
      | Ast.Sum | Ast.Avg -> (
        match values with
        | [] -> Value.Null
        | _ ->
          let as_float = function
            | Value.Int i -> Int64.to_float i
            | Value.Float f -> f
            | v -> err "cannot aggregate %s" (Value.to_string v)
          in
          let total = List.fold_left (fun acc v -> acc +. as_float v) 0.0 values in
          if fn = Ast.Avg then Value.Float (total /. float_of_int (List.length values))
          else
            (match List.hd values with
            | Value.Int _ -> Value.Int (Int64.of_float total)
            | _ -> Value.Float total)))
  in
  let out_rows =
    List.map
      (fun (group_key, group_rows) ->
        Array.of_list (List.map (compute group_key group_rows) items))
      group_list
  in
  (out_schema, out_rows)

let order_rows resolution schema rows = function
  | None -> rows
  | Some { Ast.column; descending } ->
    (* ORDER BY may name an output column or any source column; prefer the
       output schema. *)
    let i =
      match Schema.index_of schema column with
      | Some i -> i
      | None -> (
        match Schema.index_of schema (basename (resolution.resolve column)) with
        | Some i -> i
        | None -> err "ORDER BY column %s is not in the result" column)
    in
    let cmp a b =
      let c = Value.compare (Tuple.get a i) (Tuple.get b i) in
      if descending then -c else c
    in
    List.stable_sort cmp rows

let limit_rows rows = function
  | None -> rows
  | Some k -> List.filteri (fun i _ -> i < k) rows

(* ------------------------------------------------------------------ *)
(* Query snapshots: populate/refresh by re-evaluation. *)

let disambiguated_result_schema resolution columns =
  (* The stored schema of a query snapshot: short names when unique. *)
  let schema, _ = project_result resolution [] columns in
  schema

let evaluate_query_snapshot t qs =
  let resolution, rows = eval_query t ~tables:qs.qs_tables ~where:qs.qs_where in
  let _, projected = project_result resolution rows qs.qs_columns in
  projected

let populate_query_snapshot t qs =
  let rows = evaluate_query_snapshot t qs in
  let before = Link.stats qs.qs_link in
  (* One framed epoch per refresh: the receiver applies it as it arrives
     and publishes it at the Snaptime marker, so each refresh is atomic and lands in
     the snapshot's epoch ring.  Rows travel in batches, as the manager's
     streams do. *)
  let name = Snapshot_table.name qs.qs_table in
  let epoch = qs.qs_next_epoch in
  qs.qs_next_epoch <- epoch + 1;
  let w = Refresh_msg.writer ~epoch qs.qs_link in
  let now = Clock.tick t.db_clock in
  let aborted_before = Snapshot_table.epochs_aborted qs.qs_table in
  (match
     Refresh_msg.write w Refresh_msg.Clear;
     List.iteri
       (fun i values -> Refresh_msg.write w
         (Refresh_msg.Upsert { addr = i + 1; row = Row.of_tuple values }))
       rows;
     Refresh_msg.write w (Refresh_msg.Snaptime now)
   with
  | () -> ()
  | exception ((Link.Link_down _ | Link.No_receiver _) as e) ->
    (* A stream cut short never commits: abort the receiver's epoch. *)
    let reason = Printf.sprintf "epoch %d cut short: %s" epoch (Printexc.to_string e) in
    Snapshot_table.abort_stream qs.qs_table ~reason;
    err "refresh of %s failed: %s" name reason);
  if Snapshot_table.last_committed_epoch qs.qs_table <> epoch then begin
    (* The stream ended without committing.  The receiver's own reason
       stands if it aborted this epoch; otherwise (a lost marker, say) the
       epoch left open is aborted here, as a manager refresh does. *)
    let reason =
      match Snapshot_table.open_epoch qs.qs_table with
      | None when Snapshot_table.epochs_aborted qs.qs_table > aborted_before ->
        Option.value (Snapshot_table.last_abort qs.qs_table) ~default:"stream aborted"
      | _ -> Printf.sprintf "epoch %d did not reach its Snaptime" epoch
    in
    Snapshot_table.abort_stream qs.qs_table ~reason;
    err "refresh of %s not committed: %s" name reason
  end;
  let n = List.length rows in
  Manager.make_report ~snapshot:name Manager.Used_full ~new_snaptime:now ~entries_scanned:n
    ~data_messages:n ~link:qs.qs_link ~since:before

(* ------------------------------------------------------------------ *)

let analyze_table t base =
  let schema = Base_table.user_schema base in
  let rows = List.map snd (Base_table.to_user_list base) in
  List.iteri
    (fun i (c : Schema.column) ->
      let values = List.map (fun row -> Tuple.get row i) rows in
      Hashtbl.replace t.stats
        (key (Base_table.name base), key c.Schema.name)
        (Snapdiff_expr.Histogram.build values))
    (Schema.columns schema)

let stats_lookup t table_name column =
  Hashtbl.find_opt t.stats (key table_name, key column)

(* Histogram-based selectivity for a snapshot definition, if ANALYZE ran. *)
let planned_selectivity t table_name restrict =
  if Hashtbl.length t.stats = 0 then None
  else begin
    let any = ref false in
    let lookup c =
      match stats_lookup t table_name c with
      | Some h ->
        any := true;
        Some h
      | None -> None
    in
    let est = Snapdiff_expr.Histogram.estimate lookup restrict in
    if !any then Some est else None
  end

let check_fresh_name t name =
  if name_exists t name then err "%s already exists" name

(* Walk a cascade chain up to its refreshable root. *)
let rec cascade_root t name =
  match Hashtbl.find_opt t.cascades (key name) with
  | Some cs -> cascade_root t cs.cs_parent
  | None -> name

let cascade_children t name =
  Hashtbl.fold
    (fun _ cs acc ->
      if key cs.cs_parent = key name then
        Snapshot_table.name (Cascade.table cs.cs_cascade) :: acc
      else acc)
    t.cascades []

(* Refresh [name], then its cascade descendants, parents first: their
   reports in that order. *)
let rec refresh_tree t name =
  let report =
    if is_manager_snapshot t name then Manager.refresh t.mgr name
    else
      match Hashtbl.find_opt t.query_snaps (key name) with
      | Some qs -> populate_query_snapshot t qs
      | None -> (
        match Hashtbl.find_opt t.cascades (key name) with
        | Some cs -> Cascade.refresh cs.cs_cascade
        | None -> err "unknown snapshot %s" name)
  in
  report :: List.concat_map (refresh_tree t) (cascade_children t name)

(* Cascaded snapshots refresh with their parent: refreshing one refreshes
   its chain's root and everything below it, and reports its own
   stream. *)
let refresh_by_name t name =
  List.find
    (fun r -> key r.Manager.snapshot = key name)
    (refresh_tree t (cascade_root t name))

let execute t (stmt : Ast.stmt) =
  match stmt with
  | Ast.Create_table { table; columns } ->
    check_fresh_name t table;
    let schema = try Schema.make columns with Invalid_argument m -> err "%s" m in
    List.iter
      (fun (c : Schema.column) ->
        if Schema.is_hidden c then err "column name %s is reserved" c.Schema.name)
      columns;
    let base = Base_table.create ?wal:t.wal ~name:table ~clock:t.db_clock schema in
    Hashtbl.replace t.tables (key table) base;
    Manager.register_base t.mgr base;
    Created table
  | Ast.Drop_table { table } ->
    (match find_table t table with
    | None -> err "unknown table %s" table
    | Some _ -> (
      let dependents =
        Hashtbl.fold
          (fun _ qs acc ->
            if List.exists (fun tn -> key tn = key table) qs.qs_tables then
              Snapshot_table.name qs.qs_table :: acc
            else acc)
          t.query_snaps []
      in
      (match dependents with
      | d :: _ -> err "snapshot %s depends on table %s" d table
      | [] -> ());
      match Manager.unregister_base t.mgr table with
      | () -> Hashtbl.remove t.tables (key table)
      | exception Manager.Bad_definition m -> err "%s" m));
    Dropped table
  | Ast.Insert { table; columns; rows } ->
    let base = get_table t table in
    let schema = Base_table.user_schema base in
    let align row =
      match columns with
      | None ->
        if List.length row <> Schema.arity schema then
          err "INSERT arity mismatch: table has %d columns, row has %d" (Schema.arity schema)
            (List.length row);
        Tuple.make row
      | Some cols ->
        if List.length cols <> List.length row then
          err "INSERT column list and row length differ";
        let values = Array.make (Schema.arity schema) Value.Null in
        List.iter2
          (fun col v ->
            match Schema.index_of schema col with
            | Some i -> values.(i) <- v
            | None -> err "unknown column %s" col)
          cols row;
        values
    in
    let aligned = List.map align rows in
    List.iter
      (fun row ->
        match Base_table.insert base row with
        | (_ : Addr.t) -> ()
        | exception Heap.Tuple_error m -> err "%s" m)
      aligned;
    Affected (List.length aligned)
  | Ast.Update { table; assignments; where } ->
    let base = get_table t table in
    let schema = Base_table.user_schema base in
    let resolution = single_source_resolution table schema in
    let pred =
      match where with
      | None -> fun _ -> true
      | Some e -> compile_checked schema (rewrite_expr resolution.resolve e)
    in
    let setters =
      List.map
        (fun (col, e) ->
          let col = resolution.resolve col in
          let e = rewrite_expr resolution.resolve e in
          match Schema.index_of schema col with
          | None -> err "unknown column %s" col
          | Some i -> (
            match Typecheck.infer schema e with
            | Ok ty ->
              let want = (Schema.column schema i).Schema.ty in
              if ty <> want then
                err "cannot assign %s to column %s (%s)" (Value.ty_name ty) col
                  (Value.ty_name want)
              else (i, Eval.compile_scalar schema e)
            | Error terr -> err "%a" Typecheck.pp_error terr))
        assignments
    in
    let victims = List.filter (fun (_, u) -> pred u) (Base_table.to_user_list base) in
    List.iter
      (fun (addr, u) ->
        let updated = Array.copy u in
        List.iter (fun (i, f) -> updated.(i) <- f u) setters;
        match Base_table.update base addr updated with
        | () -> ()
        | exception Heap.Tuple_error m -> err "%s" m)
      victims;
    Affected (List.length victims)
  | Ast.Delete { table; where } ->
    let base = get_table t table in
    let schema = Base_table.user_schema base in
    let resolution = single_source_resolution table schema in
    let pred =
      match where with
      | None -> fun _ -> true
      | Some e -> compile_checked schema (rewrite_expr resolution.resolve e)
    in
    let victims = List.filter (fun (_, u) -> pred u) (Base_table.to_user_list base) in
    List.iter (fun (addr, _) -> Base_table.delete base addr) victims;
    Affected (List.length victims)
  | Ast.Select { tables; columns; as_of; where; group_by; order_by; limit } ->
    let resolution, rows = eval_query ?as_of t ~tables ~where in
    let schema, rows =
      if has_aggregate columns || group_by <> [] then begin
        match columns with
        | Ast.Star -> err "SELECT * cannot be combined with GROUP BY or aggregates"
        | Ast.Items items -> aggregate_result resolution rows items group_by
      end
      else project_result resolution rows columns
    in
    let rows = order_rows resolution schema rows order_by in
    let rows = limit_rows rows limit in
    Rows (schema, rows)
  | Ast.Create_snapshot { snapshot; bases; columns; where; method_; retain } -> (
    check_fresh_name t snapshot;
    (match retain with
    | Some k when k < 1 -> err "RETAIN requires at least 1 epoch"
    | _ -> ());
    match bases with
    | [ b ] when find_table t b <> None -> (
      (* The paper's machinery: single base table. *)
      let base = get_table t b in
      let schema = Base_table.user_schema base in
      let resolution = single_source_resolution b schema in
      let restrict =
        match where with
        | None -> Expr.ttrue
        | Some e -> rewrite_expr resolution.resolve e
      in
      let projection =
        Option.map (List.map resolution.resolve) (plain_columns columns)
      in
      let selectivity = planned_selectivity t b restrict in
      match
        Manager.create_snapshot t.mgr ~name:snapshot ~base:b ?projection ~restrict
          ~method_:(method_of_ast method_) ?selectivity ?version_retain:retain ()
      with
      | report -> Refreshed report
      | exception Manager.Unknown_table n -> err "unknown table %s" n
      | exception Manager.Duplicate_name n -> err "%s already exists" n
      | exception Manager.Bad_definition m -> err "%s" m)
    | [ s ] when find_snapshot t s <> None -> (
      (* Snapshot over a snapshot: a cascade, refreshed by diffing the
         parent's epochs. *)
      if method_ <> Ast.Auto then
        err "cascaded snapshots refresh with their parent; omit the REFRESH clause";
      if retain <> None then err "RETAIN is not supported on cascaded snapshots";
      let parent = Option.get (find_snapshot t s) in
      let schema = Snapshot_table.schema parent in
      let resolution = single_source_resolution s schema in
      let restrict =
        match where with
        | None -> fun _ -> true
        | Some e -> compile_checked schema (rewrite_expr resolution.resolve e)
      in
      let projection =
        Option.map (List.map resolution.resolve) (plain_columns columns)
      in
      match Cascade.attach ~upstream:parent ~name:snapshot ~restrict ?projection () with
      | cascade ->
        Hashtbl.replace t.cascades (key snapshot)
          { cs_parent = s; cs_cascade = cascade; cs_columns = columns; cs_where = where };
        Refreshed (Cascade.refresh cascade)
      | exception Invalid_argument m -> err "%s" m)
    | [ b ] -> err "unknown table %s" b
    | many ->
      (* Several tables: "the snapshot query must, in general, be
         re-evaluated" — full refresh by query evaluation. *)
      if method_ <> Ast.Auto && method_ <> Ast.Full then
        err "multi-table snapshots support only full (re-evaluation) refresh";
      if has_aggregate columns then err "aggregates cannot define a snapshot's columns";
      List.iter
        (fun n -> if not (name_exists t n) then err "unknown table %s" n)
        many;
      (* Validate the query once (types, columns) before registering. *)
      let resolution, _ = eval_query t ~tables:many ~where:None in
      (match where with
      | Some e ->
        ignore
          (compile_checked resolution.res_schema (rewrite_expr resolution.resolve e)
            : Eval.compiled)
      | None -> ());
      let schema = disambiguated_result_schema resolution columns in
      let link = Link.create ~name:(String.concat "+" many ^ "->" ^ snapshot) () in
      let table = Snapshot_table.create ?version_retain:retain ~name:snapshot ~schema () in
      Link.attach link (Snapshot_table.apply_bytes table);
      let qs =
        { qs_tables = many; qs_columns = columns; qs_where = where; qs_table = table;
          qs_link = link; qs_next_epoch = 0 }
      in
      Hashtbl.replace t.query_snaps (key snapshot) qs;
      Refreshed (populate_query_snapshot t qs))
  | Ast.Create_index { target; column } -> (
    match find_snapshot t target with
    | Some snap -> (
      match Snapshot_table.create_index snap ~column with
      | () -> Created (Printf.sprintf "index on %s(%s)" target column)
      | exception Invalid_argument m -> err "%s" m)
    | None ->
      if find_table t target <> None then
        err "indices are defined on snapshots, not base tables"
      else err "unknown snapshot %s" target)
  | Ast.Refresh_snapshot { snapshot } -> Refreshed (refresh_by_name t snapshot)
  | Ast.Drop_snapshot { snapshot } ->
    (match cascade_children t snapshot with
    | child :: _ -> err "snapshot %s cascades from %s" child snapshot
    | [] -> ());
    if is_manager_snapshot t snapshot then Manager.drop_snapshot t.mgr snapshot
    else if Hashtbl.mem t.query_snaps (key snapshot) then
      Hashtbl.remove t.query_snaps (key snapshot)
    else (
      match Hashtbl.find_opt t.cascades (key snapshot) with
      | Some cs ->
        (* Its held parent epoch goes with it. *)
        Cascade.detach cs.cs_cascade;
        Hashtbl.remove t.cascades (key snapshot)
      | None -> err "unknown snapshot %s" snapshot);
    Dropped snapshot
  | Ast.Show_tables ->
    let names =
      Hashtbl.fold (fun _ b acc -> Base_table.name b :: acc) t.tables []
      |> List.sort compare
    in
    Info
      (List.map
         (fun n ->
           let b = Option.get (find_table t n) in
           Printf.sprintf "%s  (%d rows)%s" n (Base_table.count b)
             (match Base_table.mode b with
             | Base_table.Deferred -> ""
             | Base_table.Eager -> "  [eager annotations]"))
         names)
  | Ast.Show_snapshots ->
    let lines = ref [] in
    List.iter
      (fun n ->
        let st = Manager.snapshot_table t.mgr n in
        lines :=
          Printf.sprintf "%s  (%d rows, snaptime %d, %s)" n (Snapshot_table.count st)
            (Snapshot_table.snaptime st)
            (Expr.to_string (Manager.snapshot_restrict t.mgr n))
          :: !lines)
      (Manager.snapshot_names t.mgr);
    Hashtbl.iter
      (fun _ qs ->
        lines :=
          Printf.sprintf "%s  (%d rows, snaptime %d, query over %s)"
            (Snapshot_table.name qs.qs_table)
            (Snapshot_table.count qs.qs_table)
            (Snapshot_table.snaptime qs.qs_table)
            (String.concat ", " qs.qs_tables)
          :: !lines)
      t.query_snaps;
    Hashtbl.iter
      (fun _ cs ->
        let tbl = Cascade.table cs.cs_cascade in
        lines :=
          Printf.sprintf "%s  (%d rows, snaptime %d, cascaded from %s)"
            (Snapshot_table.name tbl) (Snapshot_table.count tbl)
            (Snapshot_table.snaptime tbl) cs.cs_parent
          :: !lines)
      t.cascades;
    Info (List.sort compare !lines)
  | Ast.Analyze { table } ->
    let targets =
      match table with
      | Some name -> (
        match find_table t name with
        | Some b -> [ b ]
        | None -> err "unknown table %s" name)
      | None -> Hashtbl.fold (fun _ b acc -> b :: acc) t.tables []
    in
    List.iter (analyze_table t) targets;
    Info
      (List.map
         (fun b ->
           Printf.sprintf "analyzed %s: %d rows, %d column histograms"
             (Base_table.name b) (Base_table.count b)
             (Schema.arity (Base_table.user_schema b)))
         targets)
  | Ast.Dump ->
    let buf = Buffer.create 1024 in
    let line fmt = Format.kasprintf (fun str -> Buffer.add_string buf (str ^ "\n")) fmt in
    let table_names =
      Hashtbl.fold (fun _ b acc -> Base_table.name b :: acc) t.tables []
      |> List.sort compare
    in
    (* Schemas and data. *)
    List.iter
      (fun tname ->
        let b = Option.get (find_table t tname) in
        let schema = Base_table.user_schema b in
        let col_def (c : Schema.column) =
          Printf.sprintf "%s %s%s" c.Schema.name (Value.ty_name c.Schema.ty)
            (if c.Schema.nullable then "" else " NOT NULL")
        in
        line "CREATE TABLE %s (%s);" tname
          (String.concat ", " (List.map col_def (Schema.columns schema)));
        let rows = List.map snd (Base_table.to_user_list b) in
        if rows <> [] then
          line "INSERT INTO %s VALUES %s;" tname
            (String.concat ", "
               (List.map
                  (fun row ->
                    Printf.sprintf "(%s)"
                      (String.concat ", " (List.map Value.to_string (Array.to_list row))))
                  rows)))
      table_names;
    let columns_of st =
      String.concat ", "
        (List.map (fun (c : Schema.column) -> c.Schema.name)
           (Schema.columns (Snapshot_table.schema st)))
    in
    (* Manager snapshots. *)
    List.iter
      (fun sname ->
        let st = Manager.snapshot_table t.mgr sname in
        let meth =
          match Manager.snapshot_method t.mgr sname with
          | Manager.Auto -> "AUTO"
          | Manager.Full -> "FULL"
          | Manager.Differential -> "DIFFERENTIAL"
          | Manager.Ideal -> "IDEAL"
          | Manager.Log_based -> "LOGBASED"
        in
        let base_name =
          List.find
            (fun bn ->
              List.exists (fun sn -> key sn = key sname) (Manager.snapshots_on t.mgr bn))
            (Manager.base_names t.mgr)
        in
        let retain_sql =
          match Snapshot_table.version_retain st with
          | 1 -> ""
          | k -> Printf.sprintf " RETAIN %d" k
        in
        line "CREATE SNAPSHOT %s AS SELECT %s FROM %s WHERE %s REFRESH %s%s;" sname
          (columns_of st) base_name
          (Expr.to_string (Manager.snapshot_restrict t.mgr sname))
          meth retain_sql;
        List.iter
          (fun col -> line "CREATE INDEX ON %s (%s);" sname col)
          (Snapshot_table.indexed_columns st))
      (List.sort compare (Manager.snapshot_names t.mgr));
    (* Query snapshots. *)
    Hashtbl.iter
      (fun _ qs ->
        line "CREATE SNAPSHOT %s AS SELECT %s FROM %s%s;"
          (Snapshot_table.name qs.qs_table)
          (columns_to_sql qs.qs_columns)
          (String.concat ", " qs.qs_tables)
          (match qs.qs_where with
          | None -> ""
          | Some e -> " WHERE " ^ Expr.to_string e))
      t.query_snaps;
    (* Cascades, parents before children. *)
    let emitted = Hashtbl.create 4 in
    let rec emit_cascade name cs =
      if not (Hashtbl.mem emitted (key name)) then begin
        (match Hashtbl.find_opt t.cascades (key cs.cs_parent) with
        | Some parent_cs -> emit_cascade cs.cs_parent parent_cs
        | None -> ());
        Hashtbl.replace emitted (key name) ();
        line "CREATE SNAPSHOT %s AS SELECT %s FROM %s%s;" name
          (columns_to_sql cs.cs_columns) cs.cs_parent
          (match cs.cs_where with
          | None -> ""
          | Some e -> " WHERE " ^ Expr.to_string e)
      end
    in
    Hashtbl.iter
      (fun _ cs -> emit_cascade (Snapshot_table.name (Cascade.table cs.cs_cascade)) cs)
      t.cascades;
    Info (String.split_on_char '\n' (String.trim (Buffer.contents buf)))
  | Ast.Explain_snapshot { snapshot } -> (
    if is_manager_snapshot t snapshot then begin
      let st = Manager.snapshot_table t.mgr snapshot in
      let `Full full, `Differential diff = Manager.estimate_refresh_messages t.mgr snapshot in
      let stats = Link.stats (Manager.snapshot_link t.mgr snapshot) in
      let meth =
        match Manager.snapshot_method t.mgr snapshot with
        | Manager.Auto -> "AUTO"
        | Manager.Full -> "FULL"
        | Manager.Differential -> "DIFFERENTIAL"
        | Manager.Ideal -> "IDEAL"
        | Manager.Log_based -> "LOGBASED"
      in
      Info
        [
          Printf.sprintf "snapshot:     %s" snapshot;
          Printf.sprintf "restriction:  %s"
            (Expr.to_string (Manager.snapshot_restrict t.mgr snapshot));
          Printf.sprintf "method:       %s" meth;
          Printf.sprintf "rows:         %d" (Snapshot_table.count st);
          Printf.sprintf "snaptime:     %d" (Snapshot_table.snaptime st);
          Printf.sprintf "indexes:      %s"
            (match Snapshot_table.indexed_columns st with
            | [] -> "(none)"
            | cols -> String.concat ", " cols);
          Printf.sprintf "selectivity:  %.4f" (Manager.selectivity_estimate t.mgr snapshot);
          Printf.sprintf "est. next refresh: full=%.1f msgs, differential=%.1f msgs" full diff;
          Printf.sprintf "link so far:  %d msgs, %d bytes" stats.Link.messages stats.Link.bytes;
        ]
    end
    else
      match Hashtbl.find_opt t.query_snaps (key snapshot) with
      | Some qs ->
        Info
          [
            Printf.sprintf "snapshot:     %s" snapshot;
            Printf.sprintf "defined over: %s" (String.concat ", " qs.qs_tables);
            "method:       query re-evaluation (full refresh only)";
            Printf.sprintf "rows:         %d" (Snapshot_table.count qs.qs_table);
            Printf.sprintf "snaptime:     %d" (Snapshot_table.snaptime qs.qs_table);
            Printf.sprintf "indexes:      %s"
              (match Snapshot_table.indexed_columns qs.qs_table with
              | [] -> "(none)"
              | cols -> String.concat ", " cols);
          ]
      | None -> (
        match Hashtbl.find_opt t.cascades (key snapshot) with
        | Some cs ->
          let tbl = Cascade.table cs.cs_cascade in
          Info
            [
              Printf.sprintf "snapshot:     %s" snapshot;
              Printf.sprintf "cascaded from: %s (root %s)" cs.cs_parent
                (cascade_root t snapshot);
              "method:       diff of the parent's epochs; refreshes with its parent";
              Printf.sprintf "rows:         %d" (Snapshot_table.count tbl);
              Printf.sprintf "snaptime:     %d" (Snapshot_table.snaptime tbl);
              Printf.sprintf "held epoch:   %d of %s" (Cascade.held_epoch cs.cs_cascade)
                cs.cs_parent;
            ]
        | None -> err "unknown snapshot %s" snapshot))

let run t input = execute t (Parser.parse_one input)

let run_script t input =
  List.map (fun stmt -> (stmt, execute t stmt)) (Parser.parse input)

let render_result = function
  | Rows (schema, rows) ->
    let cols = Schema.columns schema in
    let tbl =
      Text_table.create (List.map (fun c -> (c.Schema.name, Text_table.Left)) cols)
    in
    List.iter
      (fun row ->
        Text_table.add_row tbl (List.map Value.to_string (Array.to_list row)))
      rows;
    Text_table.render tbl ^ Printf.sprintf "%d row(s)\n" (List.length rows)
  | Affected n -> Printf.sprintf "%d row(s) affected\n" n
  | Created n -> Printf.sprintf "created %s\n" n
  | Dropped n -> Printf.sprintf "dropped %s\n" n
  | Refreshed r ->
    Printf.sprintf
      "refreshed %s via %s: %d data message(s), %d bytes on the wire%s%s\n"
      r.Manager.snapshot
      (Manager.method_name r.Manager.method_used)
      r.Manager.data_messages r.Manager.link_bytes
      (if r.Manager.fixup_writes > 0 then
         Printf.sprintf " (%d annotation fix-ups)" r.Manager.fixup_writes
       else "")
      (if r.Manager.attempts > 1 then
         Printf.sprintf " (%d attempts, %d aborted stream(s)%s)" r.Manager.attempts
           r.Manager.aborts
           (if r.Manager.escalated then ", escalated to full" else "")
       else "")
  | Info lines -> String.concat "\n" lines ^ "\n"
