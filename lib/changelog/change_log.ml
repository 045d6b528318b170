open Snapdiff_storage

type change =
  | Insert of Addr.t * Tuple.t
  | Delete of Addr.t * Tuple.t
  | Update of Addr.t * Tuple.t * Tuple.t

type seq = int

type t = {
  mutable entries : (seq * change) list;  (* newest first *)
  mutable next : seq;
  mutable floor : seq;  (* truncation point: entries <= floor are gone *)
}

let create () = { entries = []; next = 1; floor = 0 }

let append t c =
  let s = t.next in
  t.next <- s + 1;
  t.entries <- (s, c) :: t.entries;
  s

let current_seq t = t.next - 1

let length t = List.length t.entries

let entries_since t cursor =
  if cursor < t.floor then
    invalid_arg
      (Printf.sprintf "Change_log.net_since: cursor %d below truncation point %d" cursor
         t.floor);
  List.rev (List.filter (fun (s, _) -> s > cursor) t.entries)

type net = {
  before : Tuple.t option;
  after : Tuple.t option;
}

let net_since t cursor =
  let states : (Addr.t, net) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (_, c) ->
      let addr, old_v, new_v =
        match c with
        | Insert (a, v) -> (a, None, Some v)
        | Delete (a, old) -> (a, Some old, None)
        | Update (a, old, v) -> (a, Some old, Some v)
      in
      match Hashtbl.find_opt states addr with
      | None -> Hashtbl.replace states addr { before = old_v; after = new_v }
      | Some st -> Hashtbl.replace states addr { st with after = new_v })
    (entries_since t cursor);
  Hashtbl.fold
    (fun addr st acc ->
      let unchanged =
        match (st.before, st.after) with
        | None, None -> true
        | Some b, Some a -> Tuple.equal b a
        | _ -> false
      in
      if unchanged then acc else (addr, st) :: acc)
    states []
  |> List.sort (fun (a, _) (b, _) -> Addr.compare a b)

let truncate_below t cursor =
  t.entries <- List.filter (fun (s, _) -> s > cursor) t.entries;
  if cursor > t.floor then t.floor <- cursor

let oldest_retained t = t.floor
