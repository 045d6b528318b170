open Snapdiff_storage

type truth = True | False | Unknown

exception Eval_error of string

let err fmt = Format.kasprintf (fun m -> raise (Eval_error m)) fmt

(* SQL LIKE with '%' (any run) and '_' (any one char). *)
let like_match s pat =
  let ls = String.length s and lp = String.length pat in
  let rec go si pi =
    if pi = lp then si = ls
    else
      match pat.[pi] with
      | '%' -> go si (pi + 1) || (si < ls && go (si + 1) pi)
      | '_' -> si < ls && go (si + 1) (pi + 1)
      | c -> si < ls && s.[si] = c && go (si + 1) (pi + 1)
  in
  go 0 0

let truth_of_bool b = if b then True else False

let truth_and a b =
  match (a, b) with
  | False, _ | _, False -> False
  | True, True -> True
  | _ -> Unknown

let truth_or a b =
  match (a, b) with
  | True, _ | _, True -> True
  | False, False -> False
  | _ -> Unknown

let truth_not = function True -> False | False -> True | Unknown -> Unknown

(* Comparison with numeric widening; NULL handled by the caller. *)
let compare_vals a b =
  match (a, b) with
  | Value.Int x, Value.Float y -> Float.compare (Int64.to_float x) y
  | Value.Float x, Value.Int y -> Float.compare x (Int64.to_float y)
  | _ -> Value.compare a b

let apply_cmp op a b =
  let c = compare_vals a b in
  truth_of_bool
    (match op with
    | Expr.Eq -> c = 0
    | Expr.Neq -> c <> 0
    | Expr.Lt -> c < 0
    | Expr.Le -> c <= 0
    | Expr.Gt -> c > 0
    | Expr.Ge -> c >= 0)

let apply_arith op a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> (
    match op with
    | Expr.Add -> Value.Int (Int64.add x y)
    | Expr.Sub -> Value.Int (Int64.sub x y)
    | Expr.Mul -> Value.Int (Int64.mul x y)
    | Expr.Div -> if y = 0L then err "division by zero" else Value.Int (Int64.div x y)
    | Expr.Mod -> if y = 0L then err "modulo by zero" else Value.Int (Int64.rem x y))
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
    let f = function
      | Value.Int x -> Int64.to_float x
      | Value.Float x -> x
      (* The outer match admits only [Int]/[Float] operands. *)
      | _ -> assert false
    in
    let x = f a and y = f b in
    (match op with
    | Expr.Add -> Value.Float (x +. y)
    | Expr.Sub -> Value.Float (x -. y)
    | Expr.Mul -> Value.Float (x *. y)
    | Expr.Div -> if y = 0.0 then err "division by zero" else Value.Float (x /. y)
    | Expr.Mod -> err "modulo on FLOAT")
  | _ -> err "arithmetic on non-numeric values %s, %s" (Value.to_string a) (Value.to_string b)

(* Resolved expressions: columns are positional. *)
type resolved =
  | RConst of Value.t
  | RCol of int
  | RCmp of Expr.cmpop * resolved * resolved
  | RAnd of resolved * resolved
  | ROr of resolved * resolved
  | RNot of resolved
  | RIs_null of resolved
  | RArith of Expr.binop * resolved * resolved
  | RNeg of resolved
  | RLike of resolved * string
  | RIn of resolved * Value.t list
  | RBetween of resolved * resolved * resolved

let resolve schema e =
  let rec go : Expr.t -> resolved = function
    | Const v -> RConst v
    | Col c -> (
      match Schema.index_of schema c with
      | Some i -> RCol i
      | None -> err "unknown column %s" c)
    | Cmp (op, a, b) -> RCmp (op, go a, go b)
    | And (a, b) -> RAnd (go a, go b)
    | Or (a, b) -> ROr (go a, go b)
    | Not a -> RNot (go a)
    | Is_null a -> RIs_null (go a)
    | Arith (op, a, b) -> RArith (op, go a, go b)
    | Neg a -> RNeg (go a)
    | Like (a, p) -> RLike (go a, p)
    | In_list (a, vs) -> RIn (go a, vs)
    | Between (a, lo, hi) -> RBetween (go a, go lo, go hi)
  in
  go e

let value_of_truth = function
  | True -> Value.Bool true
  | False -> Value.Bool false
  | Unknown -> Value.Null

let truth_of_value = function
  | Value.Bool true -> True
  | Value.Bool false -> False
  | Value.Null -> Unknown
  | v -> err "expected BOOL, got %s" (Value.to_string v)

(* One evaluator for every source: [get src i] reads column [i] (a tuple
   slot, or one field of a walked record), so a tuple and a record
   evaluate under the same semantics by construction. *)
let rec eval_with get src r =
  match r with
  | RConst v -> v
  | RCol i -> get src i
  | RCmp (op, a, b) -> (
    let va = eval_with get src a and vb = eval_with get src b in
    match (va, vb) with
    | Value.Null, _ | _, Value.Null -> Value.Null
    | _ -> value_of_truth (apply_cmp op va vb))
  | RAnd (a, b) ->
    value_of_truth
      (truth_and (truth_of_value (eval_with get src a)) (truth_of_value (eval_with get src b)))
  | ROr (a, b) ->
    value_of_truth
      (truth_or (truth_of_value (eval_with get src a)) (truth_of_value (eval_with get src b)))
  | RNot a -> value_of_truth (truth_not (truth_of_value (eval_with get src a)))
  | RIs_null a -> Value.Bool (Value.is_null (eval_with get src a))
  | RArith (op, a, b) -> apply_arith op (eval_with get src a) (eval_with get src b)
  | RNeg a -> (
    match eval_with get src a with
    | Value.Null -> Value.Null
    | Value.Int x -> Value.Int (Int64.neg x)
    | Value.Float x -> Value.Float (-.x)
    | v -> err "unary minus on %s" (Value.to_string v))
  | RLike (a, pat) -> (
    match eval_with get src a with
    | Value.Null -> Value.Null
    | Value.Str s -> Value.Bool (like_match s pat)
    | v -> err "LIKE on %s" (Value.to_string v))
  | RIn (a, vs) -> (
    match eval_with get src a with
    | Value.Null -> Value.Null
    | v -> Value.Bool (List.exists (fun x -> compare_vals v x = 0) vs))
  | RBetween (a, lo, hi) ->
    (* SQL defines BETWEEN as (lo <= x) AND (x <= hi), so e.g.
       [0 BETWEEN NULL AND -1] is FALSE, not Unknown: Unknown AND False. *)
    let v = eval_with get src a and vlo = eval_with get src lo and vhi = eval_with get src hi in
    let cmp_le x y =
      if Value.is_null x || Value.is_null y then Unknown
      else truth_of_bool (compare_vals x y <= 0)
    in
    value_of_truth (truth_and (cmp_le vlo v) (cmp_le v vhi))

let tuple_col tuple i =
  if i >= Array.length tuple then err "column index %d out of range" i else tuple.(i)

let eval_r tuple r = eval_with tuple_col tuple r

let eval schema tuple e = eval_r tuple (resolve schema e)

let eval_pred schema tuple e = truth_of_value (eval schema tuple e)

let qualifies schema tuple e = eval_pred schema tuple e = True

let compare_values = compare_vals

let fold_arith op a b =
  match apply_arith op a b with
  | v -> Some v
  | exception Eval_error _ -> None

type compiled = Tuple.t -> bool

let compile schema e =
  let r = resolve schema e in
  fun tuple -> truth_of_value (eval_r tuple r) = True

let compile_scalar schema e =
  let r = resolve schema e in
  fun tuple -> eval_r tuple r

type record_pred = Codec.Fields.t -> bool

let record_col f i =
  if i >= Codec.Fields.count f then err "column index %d out of range" i
  else Codec.Fields.value f i

let flip = function
  | Expr.Eq -> Expr.Eq
  | Expr.Neq -> Expr.Neq
  | Expr.Lt -> Expr.Gt
  | Expr.Le -> Expr.Ge
  | Expr.Gt -> Expr.Lt
  | Expr.Ge -> Expr.Le

(* [col <op> k] for an INT constant [k]: an integer field compares its
   payload in place, allocating nothing; any other field (NULL, FLOAT
   widening, a type the checker would have refused) takes the general
   path, which is the same comparison by [compare_vals]. *)
let int_cmp op i k =
  let general = RCmp (op, RCol i, RConst (Value.Int k)) in
  let slow f = truth_of_value (eval_with record_col f general) = True in
  (* The payload offset of field [i] if it is an integer, else -1.  Read
     in place rather than through [Codec.Fields.value]: the predicate runs
     on every record a scan reads, and a call into [Codec] would box the
     value and its i64. *)
  let[@inline] int_at (f : Codec.Fields.t) =
    if i < f.count then begin
      let o = f.offs.(f.base + i) in
      if Bytes.get f.buf o = Codec.tag_int then o + 1 else -1
    end
    else -1
  in
  let get (f : Codec.Fields.t) o = Bytes.get_int64_le f.buf o in
  match op with
  | Expr.Eq -> fun f -> let o = int_at f in if o < 0 then slow f else get f o = k
  | Expr.Neq -> fun f -> let o = int_at f in if o < 0 then slow f else get f o <> k
  | Expr.Lt -> fun f -> let o = int_at f in if o < 0 then slow f else get f o < k
  | Expr.Le -> fun f -> let o = int_at f in if o < 0 then slow f else get f o <= k
  | Expr.Gt -> fun f -> let o = int_at f in if o < 0 then slow f else get f o > k
  | Expr.Ge -> fun f -> let o = int_at f in if o < 0 then slow f else get f o >= k

let compile_record schema e =
  match resolve schema e with
  | RCmp (op, RCol i, RConst (Value.Int k)) -> int_cmp op i k
  | RCmp (op, RConst (Value.Int k), RCol i) -> int_cmp (flip op) i k
  | r -> fun f -> truth_of_value (eval_with record_col f r) = True
