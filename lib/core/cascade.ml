open Snapdiff_storage
module Link = Snapdiff_net.Link
module Version_store = Snapshot_table.Version_store

type t = {
  downstream : Snapshot_table.t;
  out : Link.t;
  mutable forwarded : int;
  mutable epoch : int option;  (* the parent epoch being forwarded; [None] raw *)
  mutable stream : Refresh_msg.writer option;  (* [epoch]'s framed stream *)
  mutable stale : bool;  (* the child may lack part of the parent's stream *)
}

let table t = t.downstream

let link t = t.out

let messages_forwarded t = t.forwarded

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
  let project values = Row.of_tuple (Tuple.project_idx values idx) in
  let schema = Schema.project parent_schema projection in
  let out =
    match link with
    | Some l -> l
    | None -> Link.create ~name:(Snapshot_table.name upstream ^ "->" ^ name) ()
  in
  let downstream = Snapshot_table.create ~name ~schema () in
  Link.attach out (Snapshot_table.apply_bytes downstream);
  let t = { downstream; out; forwarded = 0; epoch = None; stream = None; stale = false } in
  let forward_epoch epoch =
    t.epoch <- epoch;
    t.stream <- Option.map (fun epoch -> Refresh_msg.writer ~epoch out) epoch
  in
  (* Framed and batched under the parent's open epoch, raw when the
     parent applies raw.  A send that raises only marks the child stale. *)
  let send msg =
    match
      match t.stream with
      | Some w -> Refresh_msg.write w msg
      | None -> Link.send out (Refresh_msg.encode msg)
    with
    | () -> if Refresh_msg.is_data msg then t.forwarded <- t.forwarded + 1
    | exception _ -> t.stale <- true
  in
  (* The subscription fires BEFORE the parent applies the message, so the
     parent's open root still holds the previous state: the transformer
     can decide — like the ideal algorithm, from old and new values —
     whether the child is affected at all.  Soundness rests on the
     cascade invariant (child = restriction+projection of parent), so "no
     parent entry in the range used to qualify for the child" implies the
     child holds nothing there. *)
  let parent () = Snapshot_table.open_image upstream in
  let child_had addr =
    match Version_store.find (parent ()) addr with
    | Some old -> restrict old
    | None -> false
  in
  let child_has_range ?(hi = max_int) lo =
    lo <= hi && Version_store.exists_in_range (parent ()) ~lo ~hi ~f:restrict ()
  in
  let forward (msg : Refresh_msg.t) =
    match msg with
    | Upsert { addr; row } ->
      let values = Row.to_tuple row in
      if restrict values then send (Upsert { addr; row = project values })
      else if child_had addr then send (Remove { addr })
    | Entry { addr; prev_qual; row } ->
      let values = Row.to_tuple row in
      let range_matters = child_has_range (prev_qual + 1) ~hi:(addr - 1) in
      if restrict values then
        if range_matters then
          send (Entry { addr; prev_qual; row = project values })
        else send (Upsert { addr; row = project values })
      else if range_matters || child_had addr then
        (* The entry's range-delete span plus the entry itself. *)
        send (Region { lo = prev_qual + 1; hi = addr })
    | Remove { addr } -> if child_had addr then send msg
    | Region { lo; hi } -> if child_has_range lo ~hi then send msg
    | Tail { last_qual } -> if child_has_range (last_qual + 1) then send msg
    | Clear | Snaptime _ -> send msg
    | Register _ | Request _ -> ()  (* control traffic does not cascade *)
    | Batch _ -> ()  (* observers hear a batch's members, never the batch *)
  in
  (* The child's whole image as one stream: [Clear] (unless the child is
     still empty), the qualifying rows [rows] visits, then [ts]; it stops
     at the first failed send. *)
  let sync ~clear rows ts =
    t.stale <- false;
    if clear then send Refresh_msg.Clear;
    rows (fun addr values ->
        if (not t.stale) && restrict values then
          send (Refresh_msg.Upsert { addr; row = project values }));
    if not t.stale then send (Refresh_msg.Snaptime ts)
  in
  (* The initial sync: the parent's committed image, under its last
     committed epoch (raw before its first).  Inside an epoch the child
     has missed its first frames, so it waits for that epoch's image. *)
  if Snapshot_table.last_committed_epoch upstream >= 0 then
    forward_epoch (Some (Snapshot_table.last_committed_epoch upstream));
  sync ~clear:false (Snapshot_table.iter upstream) (Snapshot_table.snaptime upstream);
  if Snapshot_table.open_epoch upstream <> None then t.stale <- true;
  Snapshot_table.subscribe upstream (fun msg ->
      let epoch = Snapshot_table.open_epoch upstream in
      if epoch <> t.epoch then begin
        forward_epoch epoch;
        (* At a new parent epoch, a child whose last commit is not the
           parent's lost a frame of an earlier one: it gets the image.
           Raw bytes would abort a child epoch its parent aborted. *)
        if epoch = None then
          Snapshot_table.abort_stream downstream ~reason:"the parent applies raw messages"
        else if Snapshot_table.last_committed_epoch downstream
                <> Snapshot_table.last_committed_epoch upstream
        then t.stale <- true
      end;
      match msg with
      | Refresh_msg.Snaptime ts when epoch <> None ->
        (* A send that fails here — the epoch's last batch of deltas or
           the marker itself — still leaves this Snaptime to send the
           image at. *)
        if not t.stale then send msg;
        if t.stale then sync ~clear:true (Version_store.iter (parent ())) ts
      | _ -> if not t.stale then forward msg);
  t
