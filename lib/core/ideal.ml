open Snapdiff_txn
module Change_log = Snapdiff_changelog.Change_log

type report = {
  new_snaptime : Clock.ts;
  new_cursor : Change_log.seq;
  net_changes : int;
  data_messages : int;
}

let decide ~restrict before after =
  let qual = function Some v -> restrict v | None -> false in
  let before_qual = qual before and after_qual = qual after in
  if after_qual then
    match (before_qual, before, after) with
    | true, Some b, Some a when Snapdiff_storage.Tuple.equal b a -> `Nothing
    | _, _, Some a -> `Upsert a
    (* [after_qual] holds only for [after = Some _]. *)
    | _, _, None -> assert false
  else if before_qual then `Remove
  else `Nothing

let refresh ~base ~log ~cursor ~restrict ~project ~xmit () =
  let now = Clock.tick (Base_table.clock base) in
  let nets = Change_log.net_since log cursor in
  let data = ref 0 in
  List.iter
    (fun (addr, { Change_log.before; after }) ->
      match decide ~restrict before after with
      | `Upsert v ->
        incr data;
        xmit (Refresh_msg.Upsert { addr; row = Snapdiff_storage.Row.of_tuple (project v) })
      | `Remove ->
        incr data;
        xmit (Refresh_msg.Remove { addr })
      | `Nothing -> ())
    nets;
  xmit (Refresh_msg.Snaptime now);
  {
    new_snaptime = now;
    new_cursor = Change_log.current_seq log;
    net_changes = List.length nets;
    data_messages = !data;
  }
