open Snapdiff_storage
open Snapdiff_txn
module Int_btree = Snapdiff_index.Btree.Make (Int)

type entry = {
  value : Tuple.t;
  ts : Clock.ts;
}

type region = {
  hi : int;
  rts : Clock.ts;
}

type t = {
  cap : int;
  region_schema : Schema.t;
  clock : Clock.t;
  entry_tbl : entry Int_btree.t;  (* addr -> entry *)
  region_tbl : region Int_btree.t;  (* lo -> region *)
}

let create ~capacity ~schema ~clock () =
  if capacity < 1 then invalid_arg "Regions.create: capacity must be positive";
  let t =
    {
      cap = capacity;
      region_schema = schema;
      clock;
      entry_tbl = Int_btree.create ();
      region_tbl = Int_btree.create ();
    }
  in
  Int_btree.insert t.region_tbl 1 { hi = capacity; rts = Clock.never };
  t

let capacity t = t.cap

let schema t = t.region_schema

let check_addr t addr =
  if addr < 1 || addr > t.cap then invalid_arg "Regions: address out of space"

let region_containing t addr =
  match Int_btree.find_last t.region_tbl ~hi:addr with
  | Some (lo, r) when r.hi >= addr -> Some (lo, r)
  | Some _ | None -> None

let check_tuple t tuple =
  match Schema.validate_tuple t.region_schema tuple with
  | Ok () -> ()
  | Error e -> invalid_arg ("Regions: " ^ e)

let insert_at t ~addr tuple =
  check_addr t addr;
  check_tuple t tuple;
  if Int_btree.mem t.entry_tbl addr then invalid_arg "Regions.insert_at: address occupied";
  (match region_containing t addr with
  | None ->
    (* Entries and regions tile the space, so a free address is always
       inside a region. *)
    invalid_arg "Regions.insert_at: address occupied"
  | Some (lo, r) ->
    (* "Empty regions must be split"; the shrunken remnants keep the old
       timestamp — the vacated address is covered by the entry's own
       (newer) timestamp. *)
    ignore (Int_btree.remove t.region_tbl lo : bool);
    if lo <= addr - 1 then Int_btree.insert t.region_tbl lo { hi = addr - 1; rts = r.rts };
    if addr + 1 <= r.hi then Int_btree.insert t.region_tbl (addr + 1) { hi = r.hi; rts = r.rts });
  Int_btree.insert t.entry_tbl addr { value = tuple; ts = Clock.tick t.clock }

let insert t tuple =
  match Int_btree.min_binding t.region_tbl with
  | None -> failwith "Regions.insert: address space full"
  | Some (lo, _) ->
    insert_at t ~addr:lo tuple;
    lo

let update t ~addr tuple =
  check_addr t addr;
  check_tuple t tuple;
  if not (Int_btree.mem t.entry_tbl addr) then raise Not_found;
  Int_btree.insert t.entry_tbl addr { value = tuple; ts = Clock.tick t.clock }

let delete t ~addr =
  check_addr t addr;
  if not (Int_btree.remove t.entry_tbl addr) then raise Not_found;
  (* "Empty regions must be ... coalesced and the empty region timestamp
     must be set." *)
  let now = Clock.tick t.clock in
  let lo = ref addr and hi = ref addr in
  (match Int_btree.find_last t.region_tbl ~hi:(addr - 1) with
  | Some (l, r) when r.hi = addr - 1 ->
    ignore (Int_btree.remove t.region_tbl l : bool);
    lo := l
  | Some _ | None -> ());
  (match Int_btree.find t.region_tbl (addr + 1) with
  | Some r ->
    ignore (Int_btree.remove t.region_tbl (addr + 1) : bool);
    hi := r.hi
  | None -> ());
  Int_btree.insert t.region_tbl !lo { hi = !hi; rts = now }

let get t ~addr =
  check_addr t addr;
  Option.map (fun e -> e.value) (Int_btree.find t.entry_tbl addr)

let entries t =
  List.map (fun (addr, e) -> (addr, e.value)) (Int_btree.to_list t.entry_tbl)

let regions t =
  List.map (fun (lo, r) -> (lo, r.hi, r.rts)) (Int_btree.to_list t.region_tbl)

let validate t =
  let items =
    List.merge
      (fun (a, _) (b, _) -> Int.compare a b)
      (List.map (fun (a, e) -> (a, `Entry e)) (Int_btree.to_list t.entry_tbl))
      (List.map (fun (lo, r) -> (lo, `Region r)) (Int_btree.to_list t.region_tbl))
  in
  let rec walk pos = function
    | [] ->
      if pos = t.cap + 1 then Ok ()
      else Error (Printf.sprintf "space not tiled: hole starting at %d" pos)
    | (a, `Entry _) :: rest ->
      if a <> pos then Error (Printf.sprintf "entry at %d, expected position %d" a pos)
      else walk (pos + 1) rest
    | (lo, `Region r) :: rest ->
      if lo <> pos then Error (Printf.sprintf "region at %d, expected position %d" lo pos)
      else if r.hi < lo then Error (Printf.sprintf "inverted region at %d" lo)
      else walk (r.hi + 1) rest
  in
  walk 1 items

type report = {
  new_snaptime : Clock.ts;
  items_scanned : int;
  data_messages : int;
  regions_combined : int;
}

(* A "run" accumulates adjacent deletable coverage: empty regions plus
   unqualified entries, combined before transmission. *)
type run = {
  run_lo : int;
  mutable run_hi : int;
  mutable changed : bool;
  mutable region_records : int;
}

let refresh t ~snaptime ~restrict ~project ~xmit =
  let now = Clock.tick t.clock in
  let data = ref 0 in
  let combined = ref 0 in
  let send m =
    incr data;
    xmit m
  in
  let items =
    List.merge
      (fun (a, _) (b, _) -> Int.compare a b)
      (List.map (fun (a, e) -> (a, `Entry e)) (Int_btree.to_list t.entry_tbl))
      (List.map (fun (lo, r) -> (lo, `Region r)) (Int_btree.to_list t.region_tbl))
  in
  let run = ref None in
  let flush () =
    (match !run with
    | Some r ->
      if r.changed then begin
        send (Refresh_msg.Region { lo = r.run_lo; hi = r.run_hi });
        combined := !combined + max 0 (r.region_records - 1)
      end
    | None -> ());
    run := None
  in
  let extend ~lo ~hi ~changed ~is_region =
    match !run with
    | None ->
      run :=
        Some { run_lo = lo; run_hi = hi; changed; region_records = (if is_region then 1 else 0) }
    | Some r ->
      r.run_hi <- hi;
      r.changed <- r.changed || changed;
      if is_region then r.region_records <- r.region_records + 1
  in
  let scanned = ref 0 in
  List.iter
    (fun (pos, item) ->
      incr scanned;
      match item with
      | `Entry e ->
        if restrict e.value then begin
          (* A qualified entry ends any pending deletable run. *)
          flush ();
          if e.ts > snaptime then
            send (Refresh_msg.Upsert { addr = pos; row = Row.of_tuple (project e.value) })
        end
        else
          (* Unqualified entries are absorbed: "empty regions which are
             separated by entries which do not satisfy the snapshot
             restriction [can] be combined". *)
          extend ~lo:pos ~hi:pos ~changed:(e.ts > snaptime) ~is_region:false
      | `Region r -> extend ~lo:pos ~hi:r.hi ~changed:(r.rts > snaptime) ~is_region:true)
    items;
  flush ();
  xmit (Refresh_msg.Snaptime now);
  {
    new_snaptime = now;
    items_scanned = !scanned;
    data_messages = !data;
    regions_combined = !combined;
  }
