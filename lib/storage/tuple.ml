type t = Value.t array

let make = Array.of_list

let get t i = t.(i)

let get_by_name schema t name = t.(Schema.index_of_exn schema name)

let set t i v =
  let t' = Array.copy t in
  t'.(i) <- v;
  t'

let project schema t names =
  Array.of_list (List.map (fun n -> t.(Schema.index_of_exn schema n)) names)

let project_idx t idx = Array.map (fun i -> t.(i)) idx

let equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b

let compare a b =
  let rec go i =
    if i >= Array.length a && i >= Array.length b then 0
    else if i >= Array.length a then -1
    else if i >= Array.length b then 1
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (Array.to_list t)

let to_string t = Format.asprintf "%a" pp t

let encoded_size = Codec.tuple_size
