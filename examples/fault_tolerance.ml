(* Fault tolerance: refreshing a snapshot over a link that crashes,
   loses, and garbles messages.

   A refresh stream is only meaningful as a whole — the paper transmits
   the new SnapTime LAST so that an interrupted refresh keeps the old
   SnapTime and the retry re-covers the whole window.  This example shows
   the receiving half of that story: an epoch-framed stream is applied
   inside an open epoch that only its Snaptime commit marker publishes,
   so a cut, thinned,
   or corrupted stream leaves the snapshot exactly on its previous
   consistent image, and the manager retries with backoff (escalating to
   a full refresh when the differential stream keeps dying).

   Run with: dune exec examples/fault_tolerance.exe *)

open Snapdiff_storage
open Snapdiff_core
module Clock = Snapdiff_txn.Clock
module Expr = Snapdiff_expr.Expr
module Link = Snapdiff_net.Link
module Rng = Snapdiff_util.Rng

let schema =
  Schema.make
    [
      Schema.col ~nullable:false "sensor" Value.Tint;
      Schema.col ~nullable:false "reading" Value.Tint;
    ]

let row sensor reading = Tuple.make [ Value.int sensor; Value.int reading ]

let mutate base rng =
  List.iter
    (fun (addr, _) ->
      if Rng.bernoulli rng 0.05 then Base_table.update base addr (row addr (Rng.int rng 1_000)))
    (Base_table.to_user_list base)

let show_refresh mgr name =
  match Manager.refresh mgr name with
  | r ->
    Printf.printf "  refresh ok via %s: %d data msgs, %d attempt(s)%s%s\n"
      (Manager.method_name r.Manager.method_used)
      r.Manager.data_messages r.Manager.attempts
      (if r.Manager.aborts > 0 then
         Printf.sprintf ", %d aborted stream(s)" r.Manager.aborts
       else "")
      (if r.Manager.escalated then ", escalated to full" else "")
  | exception Manager.Refresh_failed { attempts; reason; _ } ->
    Printf.printf "  refresh FAILED after %d attempts (%s) -- snapshot unchanged\n"
      attempts reason

let () =
  let clock = Clock.create () in
  let readings = Base_table.create ~name:"readings" ~clock schema in
  let rng = Rng.create 7 in
  for sensor = 1 to 500 do
    ignore (Base_table.insert readings (row sensor (Rng.int rng 1_000)) : Addr.t)
  done;

  let mgr = Manager.create ~seed:7 () in
  Manager.register_base mgr readings;
  ignore
    (Manager.create_snapshot mgr ~name:"hot" ~base:"readings"
       ~restrict:Expr.(col "reading" >=. int 500)
       ~method_:Manager.Differential ()
      : Manager.refresh_report);
  let link = Manager.snapshot_link mgr "hot" in
  let snap = Manager.snapshot_table mgr "hot" in

  print_endline "1. A transient crash mid-stream: the retry converges.";
  mutate readings rng;
  (* Faults are decided per frame; the stream's data messages travel
     batched, so the second frame is already past the first batch. *)
  Link.inject_faults link ~fail_after:1 ~seed:1 ();
  show_refresh mgr "hot";

  print_endline "2. A partition window: backoff rides it out.";
  mutate readings rng;
  Link.inject_faults link ~partitions:[ (2, 8) ] ~seed:2 ();
  show_refresh mgr "hot";

  print_endline "3. Heavy silent loss: every stream dies, the old image survives.";
  mutate readings rng;
  let before = Snapshot_table.contents snap in
  Link.inject_faults link ~drop_prob:0.5 ~seed:3 ();
  show_refresh mgr "hot";
  Printf.printf "  old image intact: %b; streams aborted so far: %d\n"
    (Snapshot_table.contents snap = before)
    (Snapshot_table.epochs_aborted snap);

  print_endline "4. The line heals: one refresh covers everything missed.";
  Link.clear_faults link;
  show_refresh mgr "hot";
  let expected =
    List.filter
      (fun (_, u) ->
        match Tuple.get u 1 with Value.Int v -> Int64.to_int v >= 500 | _ -> false)
      (Base_table.to_user_list readings)
  in
  Printf.printf "  snapshot faithful: %b (%d rows)\n"
    (Snapshot_table.contents snap = expected)
    (Snapshot_table.count snap);

  Printf.printf "\nlink totals: %s\n"
    (Format.asprintf "%a" Link.pp_stats (Link.stats link))
