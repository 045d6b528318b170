(* Every refresh method from the paper, side by side on one scenario.

   A 10,000-row table takes 5% update activity between refreshes; each
   method maintains its own snapshot (salary < threshold, 25% selectivity)
   over its own link.  The table prints what each method costs where the
   paper says it should cost: messages on the wire, bytes, base-operation
   overhead, refresh-time work.

   Run with: dune exec examples/method_comparison.exe *)

open Snapdiff_txn
open Snapdiff_core
module Workload = Snapdiff_workload.Workload
module Rng = Snapdiff_util.Rng
module Link = Snapdiff_net.Link
module Text_table = Snapdiff_util.Text_table
module Eval = Snapdiff_expr.Eval

let n = 10_000
let q = 0.25
let u = 0.05

let () =
  Printf.printf
    "one scenario, every method: n=%d, selectivity=%.0f%%, update activity=%.0f%%\n\n" n
    (100. *. q) (100. *. u);
  let restrict_expr = Workload.restrict_fraction q in
  let restrict = Eval.compile Workload.schema restrict_expr in

  (* Shared script of updates, replayed identically for each method. *)
  let build () =
    let clock = Clock.create () in
    let wal = Snapdiff_wal.Wal.create () in
    let base = Workload.make_base ~wal ~clock () in
    let mgr = Manager.create () in
    Manager.register_base mgr base;
    (clock, base, mgr)
  in
  let mutate base seed =
    let rng = Rng.create (seed + 1000) in
    ignore (Workload.update_fraction base ~rng ~u ~mix:Workload.payload_updates_only : int)
  in

  let tbl =
    Text_table.create
      [ ("method", Text_table.Left); ("refresh msgs", Text_table.Right);
        ("bytes", Text_table.Right); ("refresh-time work", Text_table.Left);
        ("base-op overhead", Text_table.Left) ]
  in

  let manager_method name spec ~work ~overhead =
    let _, base, mgr = build () in
    let rng = Rng.create 42 in
    Workload.populate base ~rng ~n;
    ignore
      (Manager.create_snapshot mgr ~name:"s" ~base:"emp" ~restrict:restrict_expr
         ~method_:spec ()
        : Manager.refresh_report);
    mutate base 42;
    let r = Manager.refresh mgr "s" in
    Text_table.add_row tbl
      [ name; string_of_int r.Manager.data_messages; string_of_int r.Manager.link_bytes;
        work r; overhead ]
  in

  manager_method "full" Manager.Full
    ~work:(fun r -> Printf.sprintf "scan %d entries" r.Manager.entries_scanned)
    ~overhead:"none";
  manager_method "differential (deferred)" Manager.Differential
    ~work:(fun r ->
      Printf.sprintf "scan %d + %d fix-ups" r.Manager.entries_scanned r.Manager.fixup_writes)
    ~overhead:"NULL writes only";
  manager_method "ideal (change capture)" Manager.Ideal
    ~work:(fun r -> Printf.sprintf "read %d net changes" r.Manager.entries_scanned)
    ~overhead:"log every change (grows!)";
  manager_method "log-based (WAL culling)" Manager.Log_based
    ~work:(fun r -> Printf.sprintf "scan %d log records" r.Manager.log_records_scanned)
    ~overhead:"WAL (already paid)";

  (* Eager differential: same algorithm, annotation upkeep moved to ops. *)
  (let clock = Clock.create () in
   let base = Workload.make_base ~mode:Base_table.Eager ~clock () in
   let rng = Rng.create 42 in
   Workload.populate base ~rng ~n;
   let snaptime = Clock.now clock in
   mutate base 42;
   let msgs = ref 0 and bytes = ref 0 in
   let r =
     Differential.refresh ~base ~snaptime ~restrict:(Annotations.user_pred restrict)
       ~xmit:(fun m ->
         if Refresh_msg.is_data m then incr msgs;
         bytes := !bytes + Bytes.length (Refresh_msg.encode m) + 32)
       ()
   in
   Text_table.add_row tbl
     [ "differential (eager)"; string_of_int !msgs; string_of_int !bytes;
       Printf.sprintf "scan %d (no fix-ups)" r.Differential.entries_scanned;
       "per-op clock + successor writes" ]);

  (* ASAP: messages happen during the ops themselves. *)
  (let clock = Clock.create () in
   let base = Workload.make_base ~clock () in
   let rng = Rng.create 42 in
   Workload.populate base ~rng ~n;
   let link = Link.create ~name:"asap" () in
   let snap = Snapshot_table.create ~name:"s" ~schema:Workload.schema () in
   Link.attach link (Snapshot_table.apply_bytes snap);
   let asap = Asap.attach ~base ~link ~restrict ~project:Fun.id () in
   mutate base 42;
   let stats = Link.stats link in
   Text_table.add_row tbl
     [ "ASAP"; string_of_int (Asap.sent asap); string_of_int stats.Link.bytes;
       "none (no refresh exists)"; "a message inside every operation" ]);

  Text_table.print tbl;
  print_endline
    "\nnotes: ideal/log-based send the fewest messages but pay for change\n\
     capture elsewhere; differential approaches them while keeping base\n\
     operations free - the paper's trade-off in one table.  ASAP has no\n\
     refresh at all: its snapshot is never a consistent point-in-time state."
