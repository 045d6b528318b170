open Snapdiff_storage

type txn_id = int

type t =
  | Begin of { txn : txn_id }
  | Commit of { txn : txn_id }
  | Abort of { txn : txn_id }
  | Insert of { txn : txn_id; table : string; addr : Addr.t; tuple : Tuple.t }
  | Delete of { txn : txn_id; table : string; addr : Addr.t; old_tuple : Tuple.t }
  | Update of { txn : txn_id; table : string; addr : Addr.t;
                old_tuple : Tuple.t; new_tuple : Tuple.t }
  | Checkpoint of { active : txn_id list }
  | Begin_checkpoint of { active : txn_id list }
  | End_checkpoint of { begin_lsn : int }

let txn_of = function
  | Begin { txn } | Commit { txn } | Abort { txn } -> Some txn
  | Insert { txn; _ } | Delete { txn; _ } | Update { txn; _ } -> Some txn
  | Checkpoint _ | Begin_checkpoint _ | End_checkpoint _ -> None

let table_of = function
  | Insert { table; _ } | Delete { table; _ } | Update { table; _ } -> Some table
  | Begin _ | Commit _ | Abort _ | Checkpoint _ | Begin_checkpoint _ | End_checkpoint _ ->
    None

let pp ppf = function
  | Begin { txn } -> Format.fprintf ppf "BEGIN(%d)" txn
  | Commit { txn } -> Format.fprintf ppf "COMMIT(%d)" txn
  | Abort { txn } -> Format.fprintf ppf "ABORT(%d)" txn
  | Insert { txn; table; addr; tuple } ->
    Format.fprintf ppf "INSERT(%d, %s, %a, %a)" txn table Addr.pp addr Tuple.pp tuple
  | Delete { txn; table; addr; old_tuple } ->
    Format.fprintf ppf "DELETE(%d, %s, %a, %a)" txn table Addr.pp addr Tuple.pp old_tuple
  | Update { txn; table; addr; old_tuple; new_tuple } ->
    Format.fprintf ppf "UPDATE(%d, %s, %a, %a -> %a)" txn table Addr.pp addr
      Tuple.pp old_tuple Tuple.pp new_tuple
  | Checkpoint { active } ->
    Format.fprintf ppf "CHECKPOINT(%a)"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Format.pp_print_int)
      active
  | Begin_checkpoint { active } ->
    Format.fprintf ppf "BEGIN_CHECKPOINT(%a)"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Format.pp_print_int)
      active
  | End_checkpoint { begin_lsn } -> Format.fprintf ppf "END_CHECKPOINT(%d)" begin_lsn

(* The one writer: [size] is the exact encoded length, [write] writes a
   record in place.  A record is a tag byte then its fields: ints as i64,
   the table name as a string, tuples self-delimiting, a checkpoint's
   active list as a u32 count then its ids. *)
let size = function
  | Begin _ | Commit _ | Abort _ | End_checkpoint _ -> 9
  | Insert { table; tuple; _ } | Delete { table; old_tuple = tuple; _ } ->
    17 + Codec.string_size table + Codec.tuple_size tuple
  | Update { table; old_tuple; new_tuple; _ } ->
    17 + Codec.string_size table + Codec.tuple_size old_tuple + Codec.tuple_size new_tuple
  | Checkpoint { active } | Begin_checkpoint { active } -> 5 + (8 * List.length active)

let write b off r =
  let int tag i = Codec.write_int b (Codec.write_u8 b off tag) i in
  let change tag ~txn ~table ~addr =
    Codec.write_int b (Codec.write_string b (int tag txn) table) addr
  in
  let active_list tag active =
    let off = Codec.write_u32 b (Codec.write_u8 b off tag) (List.length active) in
    List.fold_left (Codec.write_int b) off active
  in
  match r with
  | Begin { txn } -> int 1 txn
  | Commit { txn } -> int 2 txn
  | Abort { txn } -> int 3 txn
  | Insert { txn; table; addr; tuple } ->
    Codec.write_tuple b (change 4 ~txn ~table ~addr) tuple
  | Delete { txn; table; addr; old_tuple } ->
    Codec.write_tuple b (change 5 ~txn ~table ~addr) old_tuple
  | Update { txn; table; addr; old_tuple; new_tuple } ->
    Codec.write_tuple b (Codec.write_tuple b (change 6 ~txn ~table ~addr) old_tuple) new_tuple
  | Checkpoint { active } -> active_list 7 active
  | Begin_checkpoint { active } -> active_list 8 active
  | End_checkpoint { begin_lsn } -> int 9 begin_lsn

(* The one reader, through a cursor over the log image where it lies. *)
let read c =
  let module C = Codec.Cursor in
  match C.u8 c with
  | 1 -> Begin { txn = C.int c }
  | 2 -> Commit { txn = C.int c }
  | 3 -> Abort { txn = C.int c }
  | (4 | 5 | 6) as t ->
    let txn = C.int c in
    let table = C.string c in
    let addr = C.int c in
    let tuple = C.tuple c in
    if t = 4 then Insert { txn; table; addr; tuple }
    else if t = 5 then Delete { txn; table; addr; old_tuple = tuple }
    else Update { txn; table; addr; old_tuple = tuple; new_tuple = C.tuple c }
  | (7 | 8) as t ->
    let n = C.u32 c in
    let active = ref [] in
    for _ = 1 to n do
      active := C.int c :: !active
    done;
    let active = List.rev !active in
    if t = 7 then Checkpoint { active } else Begin_checkpoint { active }
  | 9 -> End_checkpoint { begin_lsn = C.int c }
  | _ -> failwith "Wal.Record.read: bad tag"
