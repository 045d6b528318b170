open Snapdiff_storage
module Link = Snapdiff_net.Link
module Trace = Snapdiff_obs.Trace
module Version_store = Snapshot_table.Version_store

type t = {
  upstream : Snapshot_table.t;
  downstream : Snapshot_table.t;
  out : Link.t;
  view : Tuple.t -> Tuple.t option;  (* the restriction, then the projection *)
  mutable held : Snapshot_table.read_txn option;  (* the held parent epoch *)
  mutable next_epoch : int;  (* the child's own: one per refresh attempt *)
}

let table t = t.downstream

let link t = t.out

let held_epoch t = match t.held with Some rt -> Snapshot_table.txn_epoch rt | None -> -1

let attach ~upstream ~name ?(restrict = fun _ -> true) ?projection ?link () =
  let parent_schema = Snapshot_table.schema upstream in
  let projection =
    match projection with
    | Some cols -> cols
    | None -> List.map (fun c -> c.Schema.name) (Schema.columns parent_schema)
  in
  let idx =
    Array.of_list
      (List.map
         (fun c ->
           match Schema.index_of parent_schema c with
           | Some i -> i
           | None -> invalid_arg (Printf.sprintf "Cascade.attach: unknown column %s" c))
         projection)
  in
  let out =
    match link with
    | Some l -> l
    | None -> Link.create ~name:(Snapshot_table.name upstream ^ "->" ^ name) ()
  in
  let downstream =
    Snapshot_table.create ~name ~schema:(Schema.project parent_schema projection) ()
  in
  Link.attach out (Snapshot_table.apply_bytes downstream);
  let view values = if restrict values then Some (Tuple.project_idx values idx) else None in
  { upstream; downstream; out; view; held = None; next_epoch = 0 }

let detach t =
  Option.iter Snapshot_table.release_txn t.held;
  t.held <- None

(* The held image diffed against [now], as one stream under [epoch]: an
   [Upsert] or [Remove] for each address whose child row changed, then
   [now]'s Snaptime.  Counts the rows compared and the messages sent.  A
   parent row that kept its bytes keeps its child row, so only rows that
   differ are decoded to run the restriction. *)
let stream t now ~epoch ~compared ~sent =
  let w = Refresh_msg.writer ~epoch t.out in
  let held =
    match t.held with Some rt -> Snapshot_table.txn_image rt | None -> Version_store.empty
  in
  let send msg =
    incr sent;
    Refresh_msg.write w msg
  in
  let child = function Some r -> t.view (Row.to_tuple r) | None -> None in
  Version_store.diff held (Snapshot_table.txn_image now) (fun addr was is ->
      incr compared;
      match (was, is) with
      | Some a, Some b when Row.equal a b -> ()
      | _ -> (
        match (child was, child is) with
        | Some a, Some b when Tuple.equal a b -> ()
        | _, Some row -> send (Refresh_msg.Upsert { addr; row = Row.of_tuple row })
        | Some _, None -> send (Refresh_msg.Remove { addr })
        | None, None -> ()));
  Refresh_msg.write w (Refresh_msg.Snaptime (Snapshot_table.txn_snaptime now))

let refresh t =
  let name = Snapshot_table.name t.downstream in
  Trace.with_span "refresh" ~attrs:[ ("snapshot", name) ] (fun () ->
      let now = Snapshot_table.read_txn_exn ~holder:("cascade:" ^ name) t.upstream in
      let since = Link.stats t.out and epoch = t.next_epoch in
      t.next_epoch <- epoch + 1;
      let method_used = if Option.is_none t.held then Manager.Used_full else Manager.Used_differential in
      let compared = ref 0 and sent = ref 0 in
      (* A stream that fails leaves the child on its image and the held
         epoch where it was. *)
      let fail () =
        Snapshot_table.abort_stream t.downstream
          ~reason:(Snapshot_table.abort_reason t.downstream ~epoch);
        Snapshot_table.release_txn now
      in
      let committed =
        match stream t now ~epoch ~compared ~sent with
        | () -> Snapshot_table.last_committed_epoch t.downstream = epoch
        | exception Link.Link_down _ -> false
        | exception e ->
          fail ();
          raise e
      in
      if committed then begin
        detach t;
        t.held <- Some now
      end
      else fail ();
      let report =
        Manager.make_report ~snapshot:name method_used
          ~new_snaptime:(Snapshot_table.snaptime t.downstream) ~entries_scanned:!compared
          ~data_messages:!sent ~link:t.out ~since
      in
      if committed then report else { report with Manager.aborts = 1 })
