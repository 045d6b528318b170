open Snapdiff_txn
module Wal = Snapdiff_wal.Wal
module Recovery = Snapdiff_wal.Recovery

type report = {
  new_snaptime : Clock.ts;
  new_cursor : Wal.lsn;
  log_records_scanned : int;
  log_bytes_scanned : int;
  log_records_relevant : int;
  data_messages : int;
}

let refresh ~base ~wal ~cursor ~restrict ~project ~xmit () =
  let now = Clock.tick (Base_table.clock base) in
  let nets, stats =
    Recovery.net_changes wal ~table:(Base_table.name base) ~since:cursor
  in
  let user = Option.map Annotations.user_part in
  let data = ref 0 in
  List.iter
    (fun (addr, { Recovery.before; after }) ->
      match Ideal.decide ~restrict (user before) (user after) with
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
    new_cursor = Wal.end_lsn wal;
    log_records_scanned = stats.Recovery.records_scanned;
    log_bytes_scanned = stats.Recovery.bytes_scanned;
    log_records_relevant = stats.Recovery.relevant;
    data_messages = !data;
  }
