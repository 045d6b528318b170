type column = {
  name : string;
  ty : Value.ty;
  nullable : bool;
}

type t = {
  cols : column array;
  by_name : (string, int) Hashtbl.t;  (* keys lowercased *)
}

let key s = String.lowercase_ascii s

let make cols =
  if cols = [] then invalid_arg "Schema.make: empty column list";
  let by_name = Hashtbl.create (List.length cols * 2) in
  List.iteri
    (fun i c ->
      let k = key c.name in
      if Hashtbl.mem by_name k then
        invalid_arg (Printf.sprintf "Schema.make: duplicate column %S" c.name);
      Hashtbl.replace by_name k i)
    cols;
  { cols = Array.of_list cols; by_name }

let columns t = Array.to_list t.cols

let arity t = Array.length t.cols

let column t i =
  if i < 0 || i >= Array.length t.cols then invalid_arg "Schema.column: out of bounds";
  t.cols.(i)

let index_of t name = Hashtbl.find_opt t.by_name (key name)

let index_of_exn t name =
  match index_of t name with Some i -> i | None -> raise Not_found

let mem t name = Hashtbl.mem t.by_name (key name)

let extend t extra = make (columns t @ extra)

let project t names =
  make (List.map (fun n -> t.cols.(index_of_exn t n)) names)

let equal a b =
  arity a = arity b
  && Array.for_all2
       (fun (x : column) (y : column) ->
         key x.name = key y.name && x.ty = y.ty && x.nullable = y.nullable)
       a.cols b.cols

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf c ->
         Format.fprintf ppf "%s %s%s" c.name (Value.ty_name c.ty)
           (if c.nullable then "" else " NOT NULL")))
    (columns t)

let hidden_prefix = "__"

let is_hidden c =
  String.length c.name >= 2 && String.sub c.name 0 2 = hidden_prefix

let visible_columns t = List.filter (fun c -> not (is_hidden c)) (columns t)

let col ?(nullable = true) name ty = { name; ty; nullable }

let validate_tuple t values =
  if Array.length values <> arity t then
    Error
      (Printf.sprintf "arity mismatch: schema has %d columns, tuple has %d"
         (arity t) (Array.length values))
  else
    (* Every stored and every received row passes here: no allocation
       unless a column fails. *)
    let rec check i =
      if i = Array.length values then Ok ()
      else
        let c = t.cols.(i) and v = values.(i) in
        if Value.is_null v then
          if c.nullable then check (i + 1)
          else Error (Printf.sprintf "column %s is NOT NULL" c.name)
        else if Value.has_type v c.ty then check (i + 1)
        else
          Error
            (Printf.sprintf "column %s expects %s, got %s" c.name (Value.ty_name c.ty)
               (Value.to_string v))
    in
    check 0
