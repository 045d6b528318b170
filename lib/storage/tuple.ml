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

let encoded_size t =
  Array.fold_left (fun acc v -> acc + Value.encoded_size v) 2 t

let write b off t =
  let n = Array.length t in
  if n > 0xffff then invalid_arg "Tuple.write: too many fields";
  Bytes.set_uint16_le b off n;
  let off = ref (off + 2) in
  for i = 0 to n - 1 do
    off := Value.write b !off t.(i)
  done;
  !off

let decode b off =
  if off + 2 > Bytes.length b then failwith "Tuple.decode: truncated";
  let n = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8) in
  let off = ref (off + 2) in
  let t =
    Array.init n (fun _ ->
        let v, off' = Value.decode b !off in
        off := off';
        v)
  in
  (t, !off)

let encode_to_bytes t =
  let b = Bytes.create (encoded_size t) in
  ignore (write b 0 t : int);
  b

let encode buf t = Buffer.add_bytes buf (encode_to_bytes t)

let decode_exactly b =
  let t, off = decode b 0 in
  if off <> Bytes.length b then failwith "Tuple.decode_exactly: trailing bytes";
  t
