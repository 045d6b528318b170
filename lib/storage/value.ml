type ty = Tint | Tfloat | Tstring | Tbool

type t =
  | Null
  | Int of int64
  | Float of float
  | Str of string
  | Bool of bool

let type_of = function
  | Null -> None
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | Str _ -> Some Tstring
  | Bool _ -> Some Tbool

let ty_name = function
  | Tint -> "INT"
  | Tfloat -> "FLOAT"
  | Tstring -> "STRING"
  | Tbool -> "BOOL"

let has_type v ty =
  match type_of v with None -> true | Some ty' -> ty = ty'

let is_null = function Null -> true | _ -> false

let type_rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Str _ -> 4

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Int64.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | _ -> Int.compare (type_rank a) (type_rank b)

let equal a b = compare a b = 0

let pp ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | Int i -> Format.fprintf ppf "%Ld" i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s ->
    (* SQL-style quoting with '' escaping, so printed literals re-parse. *)
    Format.fprintf ppf "'%s'" (String.concat "''" (String.split_on_char '\'' s))
  | Bool b -> Format.pp_print_string ppf (if b then "TRUE" else "FALSE")

let to_string v = Format.asprintf "%a" pp v

let int i = Int (Int64.of_int i)
let str s = Str s
