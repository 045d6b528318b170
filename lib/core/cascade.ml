open Snapdiff_storage
module Link = Snapdiff_net.Link

type t = {
  downstream : Snapshot_table.t;
  out : Link.t;
  mutable forwarded : int;
  mutable stale : bool;  (* a send raised: the child may miss part of the stream *)
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
  let project values = Tuple.project_idx values idx in
  let schema = Schema.project parent_schema projection in
  let out =
    match link with
    | Some l -> l
    | None -> Link.create ~name:(Snapshot_table.name upstream ^ "->" ^ name) ()
  in
  let downstream = Snapshot_table.create ~name ~schema () in
  Link.attach out (Snapshot_table.apply_bytes downstream);
  let t = { downstream; out; forwarded = 0; stale = false } in
  let send msg =
    if Refresh_msg.is_data msg then t.forwarded <- t.forwarded + 1;
    Link.send out (Refresh_msg.encode msg)
  in
  (* The subscription fires BEFORE the parent applies the message, so the
     parent still holds the previous state: the transformer can decide —
     like the ideal algorithm, from old and new values — whether the child
     is affected at all.  Soundness rests on the cascade invariant
     (child = restriction+projection of parent), so "no parent entry in
     the range used to qualify for the child" implies the child holds
     nothing there. *)
  let child_had addr =
    match Snapshot_table.get upstream addr with
    | Some old -> restrict old
    | None -> false
  in
  let child_has_range lo hi =
    lo <= hi && Snapshot_table.exists_in_range upstream ~lo ~hi ~f:restrict ()
  in
  let rec forward (msg : Refresh_msg.t) =
    match msg with
    | Batch ms ->
      (* Parents unbatch before notifying observers, so this is defensive:
         forward the logical stream, never the transport framing. *)
      List.iter forward ms
    | Upsert { addr; values } ->
      if restrict values then send (Upsert { addr; values = project values })
      else if child_had addr then send (Remove { addr })
    | Entry { addr; prev_qual; values } ->
      let range_matters = child_has_range (prev_qual + 1) (addr - 1) in
      if restrict values then
        if range_matters then
          send (Entry { addr; prev_qual; values = project values })
        else send (Upsert { addr; values = project values })
      else if range_matters || child_had addr then
        (* The entry's range-delete span plus the entry itself. *)
        send (Region { lo = prev_qual + 1; hi = addr })
    | Remove { addr } -> if child_had addr then send msg
    | Region { lo; hi } -> if child_has_range lo hi then send msg
    | Tail { last_qual } ->
      if Snapshot_table.exists_in_range upstream ~lo:(last_qual + 1) ~f:restrict () then
        send msg
    | Clear -> if Snapshot_table.count t.downstream > 0 then send msg
    | Snaptime _ -> send msg
    | Register _ | Request _ -> ()  (* control traffic does not cascade *)
  in
  (* Synchronization with the parent's current state: at attach, and
     again before the next message once a send has raised.  A raised send
     leaves the child short of part of a stream the parent applies whole
     (a one-shot outage loses one message, a downed link all that follow
     it), so the child is rebuilt from the parent, which still holds its
     state before the message, and the cascade invariant holds again. *)
  let sync () =
    List.iter
      (fun (addr, values) ->
        if restrict values then send (Refresh_msg.Upsert { addr; values = project values }))
      (Snapshot_table.contents upstream);
    send (Refresh_msg.Snaptime (Snapshot_table.snaptime upstream))
  in
  sync ();
  Snapshot_table.subscribe upstream (fun msg ->
      try
        if t.stale then begin
          send Refresh_msg.Clear;
          sync ();
          t.stale <- false
        end;
        forward msg
      with e ->
        t.stale <- true;
        raise e);
  t
