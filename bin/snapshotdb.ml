(* snapshotdb — command-line front end.

   snapshotdb shell                 interactive SQL shell
   snapshotdb run FILE.sql          execute a SQL script
   snapshotdb fig --id 8|9          regenerate a paper figure
   snapshotdb model --q Q --u U     query the analytical model
   snapshotdb stats                 run a workload, dump engine metrics *)

open Cmdliner
module Metrics = Snapdiff_obs.Metrics
module Trace = Snapdiff_obs.Trace

let setup_logs verbose trace =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Info else Some Logs.Warning);
  match trace with
  | None -> ()
  | Some path ->
    Trace.enable (Trace.Jsonl path);
    at_exit (fun () ->
        Trace.flush ();
        Trace.disable ())
module Database = Snapdiff_sql.Database
module Parser = Snapdiff_sql.Parser
module Figures = Snapdiff_figures.Figures
module Model = Snapdiff_analysis.Model

let print_result r = print_string (Database.render_result r)

(* Runs [f], mapping the SQL front end's exceptions to a printed message
   and exit code 2 (usage/semantic error).  The shell ignores the code and
   keeps its read-eval loop; script mode propagates it so CI can assert
   that e.g. an AS OF miss is a clean error, not a success or a crash. *)
let handle_errors f =
  match f () with
  | () -> 0
  | exception Database.Sql_error m ->
    Printf.printf "error: %s\n%!" m;
    2
  | exception Parser.Parse_error { message; _ } ->
    Printf.printf "parse error: %s\n%!" message;
    2
  | exception Snapdiff_sql.Lexer.Lex_error { message; _ } ->
    Printf.printf "lex error: %s\n%!" message;
    2

(* ------------------------------------------------------------------ *)
(* shell *)

let banner =
  "snapshotdb - differential snapshot refresh (Lindsay et al., SIGMOD 1986)\n\
   Statements end with ';'.  Try:\n\
  \  CREATE TABLE emp (name STRING NOT NULL, salary INT NOT NULL);\n\
  \  INSERT INTO emp VALUES ('Bruce', 15), ('Laura', 6);\n\
  \  CREATE SNAPSHOT lowpay AS SELECT * FROM emp WHERE salary < 10 REFRESH DIFFERENTIAL;\n\
  \  UPDATE emp SET salary = 7 WHERE name = 'Bruce';\n\
  \  REFRESH SNAPSHOT lowpay;\n\
  \  SELECT * FROM lowpay;\n\
   Type 'quit;' or Ctrl-D to exit.\n"

let shell_cmd verbose trace =
  setup_logs verbose trace;
  print_string banner;
  let db = Database.create () in
  let buf = Buffer.create 256 in
  let rec loop () =
    if Buffer.length buf = 0 then print_string "snapdiff> " else print_string "      ... ";
    print_string "";
    flush stdout;
    match In_channel.input_line stdin with
    | None -> print_newline ()
    | Some line ->
      let trimmed = String.trim line in
      if trimmed = "quit;" || trimmed = "quit" || trimmed = "exit;" || trimmed = "exit" then ()
      else begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        let text = Buffer.contents buf in
        if String.contains text ';' then begin
          Buffer.clear buf;
          ignore
            (handle_errors (fun () ->
                 List.iter (fun (_, r) -> print_result r) (Database.run_script db text))
              : int)
        end;
        loop ()
      end
  in
  loop ();
  0

(* ------------------------------------------------------------------ *)
(* run *)

let run_cmd verbose trace echo file =
  setup_logs verbose trace;
  let text = In_channel.with_open_text file In_channel.input_all in
  let db = Database.create () in
  handle_errors (fun () ->
      List.iter
        (fun (stmt, r) ->
          if echo then Format.printf "-- %a@." Snapdiff_sql.Ast.pp_stmt stmt;
          print_result r)
        (Database.run_script db text))

(* ------------------------------------------------------------------ *)
(* fig *)

let fig_cmd id n =
  (match id with
  | 8 ->
    let sweeps = Figures.figure8 ~n () in
    List.iter (fun s -> print_string (Figures.render_sweep_table s)) sweeps;
    print_string
      (Figures.render_figure_chart ~log_scale:false
         ~title:"Figure 8: tuples sent vs update activity" sweeps)
  | 9 ->
    let sweeps = Figures.figure9 ~n () in
    List.iter (fun s -> print_string (Figures.render_sweep_table s)) sweeps;
    print_string
      (Figures.render_figure_chart ~log_scale:true
         ~title:"Figure 9: restrictive snapshots (log scale)" sweeps)
  | _ -> Printf.printf "unknown figure %d (the paper's evaluation has figures 8 and 9)\n" id);
  0

(* ------------------------------------------------------------------ *)
(* model *)

let model_cmd n q u =
  Printf.printf "n = %d, selectivity q = %.3f, update activity u = %.3f\n" n q u;
  Printf.printf "  full:          %10.1f messages (%6.3f%% of table)\n"
    (Model.full_messages ~n ~q)
    (Model.pct_of_table ~n (Model.full_messages ~n ~q));
  let d = Model.differential_messages ~n ~q ~u () in
  Printf.printf "  differential:  %10.1f messages (%6.3f%% of table)\n" d
    (Model.pct_of_table ~n d);
  let i = Model.ideal_messages ~n ~q ~u in
  Printf.printf "  ideal:         %10.1f messages (%6.3f%% of table)\n" i
    (Model.pct_of_table ~n i);
  Printf.printf "  superfluous fraction of differential: %.3f\n"
    (Model.superfluous_fraction ~q ~u);
  0

(* ------------------------------------------------------------------ *)
(* faults *)

let faults_cmd n rounds =
  let module Text_table = Snapdiff_util.Text_table in
  Printf.printf
    "Refresh over fault-injecting links, n = %d, %d refresh rounds per plan\n" n rounds;
  let t =
    Text_table.create
      [ ("fault plan", Text_table.Left); ("batch size", Text_table.Right);
        ("attempts", Text_table.Right);
        ("aborted streams", Text_table.Right); ("escalations", Text_table.Right);
        ("failed refreshes", Text_table.Right); ("wire msgs", Text_table.Right);
        ("faults hit", Text_table.Right); ("converged", Text_table.Right) ]
  in
  let rows = Figures.faults_ablation ~n ~rounds () in
  List.iter
    (fun r ->
      Text_table.add_row t
        [ r.Figures.fault_name; string_of_int r.Figures.fault_batch;
          string_of_int r.Figures.attempts_total;
          string_of_int r.Figures.aborted_streams;
          string_of_int r.Figures.escalations;
          string_of_int r.Figures.refreshes_failed;
          string_of_int r.Figures.wire_messages;
          string_of_int r.Figures.faults_hit;
          (if r.Figures.converged then "yes" else "NO") ])
    rows;
  Text_table.print t;
  print_endline
    "A failed refresh is atomic: the snapshot keeps its previous image and\n\
     SnapTime, so one refresh on a healed line covers the whole gap.";
  (* A plan whose snapshot diverged from its base restriction is a
     correctness failure, not a table row; an armed plan that injected
     nothing checked nothing, so it fails the oracle too. *)
  let report what bad =
    if bad <> [] then
      prerr_endline
        (Printf.sprintf "faults: %s: %s" what
           (String.concat ", "
              (List.map
                 (fun r ->
                   Printf.sprintf "%s (batch %d)" r.Figures.fault_name r.Figures.fault_batch)
                 bad)))
  in
  let diverged = List.filter (fun r -> not r.Figures.converged) rows in
  let idle = List.filter (fun r -> r.Figures.fault_armed && r.Figures.faults_hit = 0) rows in
  report "not converged" diverged;
  report "no fault injected" idle;
  if diverged = [] && idle = [] then 0 else 1

(* ------------------------------------------------------------------ *)
(* stats *)

(* A compact workload that exercises every instrumented layer — WAL-logged
   mutations, pool-backed pages, refresh streams over a clean and a lossy
   link, and a lock scuffle — then dumps the process-global metrics
   registry. *)
let stats_cmd verbose trace json n rounds u =
  setup_logs verbose trace;
  let module Workload = Snapdiff_workload.Workload in
  let module Manager = Snapdiff_core.Manager in
  let module Clock = Snapdiff_txn.Clock in
  let module Lock = Snapdiff_txn.Lock in
  let module Wal = Snapdiff_wal.Wal in
  let module Link = Snapdiff_net.Link in
  let rng = Snapdiff_util.Rng.create 0xCAFE in
  let clock = Clock.create () in
  let wal = Wal.create () in
  let base = Workload.make_base ~wal ~clock () in
  Workload.populate base ~rng ~n;
  let m = Manager.create () in
  Manager.register_base m base;
  ignore
    (Manager.create_snapshot m ~name:"clean" ~base:(Snapdiff_core.Base_table.name base)
       ~restrict:(Workload.restrict_fraction 0.3) ~method_:Manager.Differential ()
      : Manager.refresh_report);
  let lossy = Link.create ~name:"lossy" () in
  ignore
    (Manager.create_snapshot m ~name:"lossy" ~base:(Snapdiff_core.Base_table.name base)
       ~restrict:(Workload.restrict_fraction 0.1) ~method_:Manager.Differential
       ~link:lossy ()
      : Manager.refresh_report);
  Link.inject_faults lossy ~drop_prob:0.05 ~corrupt_prob:0.02 ~seed:7 ();
  for _ = 1 to rounds do
    ignore (Workload.update_fraction base ~rng ~u ~mix:Workload.churn : int);
    ignore (Manager.refresh m "clean" : Manager.refresh_report);
    (try ignore (Manager.refresh m "lossy" : Manager.refresh_report)
     with Manager.Refresh_failed _ -> ())
  done;
  (* A little lock traffic so the lock.* metrics are live too: a reader
     holds the table while a writer queues, a second reader slips in, and
     a cross-request closes a would-be cycle. *)
  let locks = Lock.create () in
  let r0 = Lock.Table "stats_a" and r1 = Lock.Table "stats_b" in
  ignore (Lock.acquire locks 1 r0 Lock.S);
  ignore (Lock.acquire locks 2 r1 Lock.S);
  ignore (Lock.acquire locks 1 r1 Lock.X);  (* queues behind 2 *)
  ignore (Lock.acquire locks 2 r0 Lock.X);  (* would close the cycle: refused *)
  ignore (Lock.release_all locks 2 : Lock.txn_id list);
  ignore (Lock.release_all locks 1 : Lock.txn_id list);
  if json then print_endline (Metrics.dump_json Metrics.global)
  else Metrics.dump Format.std_formatter Metrics.global;
  0

(* ------------------------------------------------------------------ *)
(* refresh *)

(* A canned multi-snapshot workload driven through the group-refresh
   path: one base table carrying several differential snapshots (plus a
   full-refresh one, which routes solo), mutated each round, then
   refreshed with [Manager.refresh_all] so siblings share one scan.
   [--chunk-entries N] turns on the chunked concurrent protocol: the
   scan runs under a table intention lock as lock-coupled page chunks
   of roughly N entries, with a WAL-tail catch-up phase at the end. *)
let refresh_cmd verbose trace json all names n rounds u chunk_entries version_retain
    wal_file =
  setup_logs verbose trace;
  let module Workload = Snapdiff_workload.Workload in
  let module Manager = Snapdiff_core.Manager in
  let module Wal = Snapdiff_wal.Wal in
  let module Text_table = Snapdiff_util.Text_table in
  let module VS = Snapdiff_mvcc.Version_store in
  let rng = Snapdiff_util.Rng.create 0xBEEF in
  let clock = Snapdiff_txn.Clock.create () in
  (* WAL-backed so the chunked protocol (which replays the WAL tail to
     catch up) is eligible when --chunk-entries is given.  With
     --wal-file the log is a real group-committed segment file. *)
  let wal =
    match wal_file with
    | None -> Wal.create ()
    | Some path -> Wal.create ~backend:(Wal.File path) ~group_commit_window:8 ()
  in
  let base = Workload.make_base ~wal ~clock () in
  Workload.populate base ~rng ~n;
  let m = match chunk_entries with
    | Some c -> Manager.create ~chunk_entries:c ()
    | None -> Manager.create ()
  in
  Manager.register_base m base;
  let mk name q method_ =
    ignore
      (Manager.create_snapshot m ~name ~base:(Snapdiff_core.Base_table.name base)
         ~restrict:(Workload.restrict_fraction q) ~method_ ~version_retain ()
        : Manager.refresh_report)
  in
  mk "d10" 0.10 Manager.Differential;
  mk "d25" 0.25 Manager.Differential;
  mk "d50" 0.50 Manager.Differential;
  mk "full25" 0.25 Manager.Full;
  for _ = 2 to rounds do
    ignore (Workload.update_fraction base ~rng ~u ~mix:Workload.churn : int);
    ignore (Manager.refresh_all m : (string * (Manager.refresh_report, exn) result) list)
  done;
  ignore (Workload.update_fraction base ~rng ~u ~mix:Workload.churn : int);
  let only = if all || names = [] then None else Some names in
  let results = Manager.refresh_all ?only m in
  if json then begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i (name, res) ->
        if i > 0 then Buffer.add_string buf ",\n";
        match res with
        | Ok r ->
          Printf.bprintf buf
            "  {\"snapshot\": \"%s\", \"ok\": true, \"method\": \"%s\", \
             \"group_size\": %d, \"pages_decoded\": %d, \
             \"group_pages_decoded\": %d, \"data_messages\": %d, \
             \"link_bytes\": %d, \"attempts\": %d, \"chunks\": %d, \
             \"catchup_records\": %d, \"decode_us\": %.1f, \
             \"freeze_us\": %.1f, \"replay_us\": %.1f, \"publish_us\": %.1f, \
             \"scan_us\": %.1f, \"lock_us\": %.1f, \"load_us\": %.1f, \
             \"fixup_us\": %.1f, \"filter_us\": %.1f, \"emit_us\": %.1f, \
             \"scan_other_us\": %.1f, \"encode_us\": %.1f, \"send_us\": %.1f, \
             \"fixup_bytes\": %d, \"wall_us\": %.1f, \"residual_us\": %.1f, \
             \"alloc_words\": %d, \"replay_msgs\": %d, \"replay_searches\": %d"
            name
            (Manager.method_name r.Manager.method_used)
            r.Manager.group_size r.Manager.pages_decoded r.Manager.group_pages_decoded
            r.Manager.data_messages
            r.Manager.link_bytes r.Manager.attempts r.Manager.chunks
            r.Manager.catchup_records r.Manager.receiver.decode_us
            r.Manager.receiver.freeze_us r.Manager.receiver.replay_us
            r.Manager.receiver.publish_us r.Manager.sender.scan_us r.Manager.sender.lock_us
            r.Manager.sender.load_us r.Manager.sender.fixup_us r.Manager.sender.filter_us
            r.Manager.sender.emit_us r.Manager.sender.scan_other_us r.Manager.sender.encode_us
            r.Manager.sender.send_us r.Manager.sender.fixup_bytes r.Manager.wall_us
            r.Manager.residual_us r.Manager.alloc_words r.Manager.receiver.replay_msgs
            r.Manager.receiver.replay_searches;
          if version_retain > 1 then begin
            Buffer.add_string buf ", \"versions\": [";
            List.iteri
              (fun i vi ->
                if i > 0 then Buffer.add_string buf ", ";
                Printf.bprintf buf
                  "{\"epoch\": %d, \"snaptime\": %d, \"pins\": %d, \"frozen\": %b}"
                  vi.VS.vi_epoch vi.VS.vi_snaptime vi.VS.vi_pins vi.VS.vi_frozen)
              (Manager.snapshot_versions m name);
            Buffer.add_string buf "]"
          end;
          Buffer.add_string buf "}"
        | Error e ->
          Printf.bprintf buf "  {\"snapshot\": \"%s\", \"ok\": false, \"error\": \"%s\"}"
            name (String.escaped (Printexc.to_string e)))
      results;
    Buffer.add_string buf "\n]\n";
    print_string (Buffer.contents buf)
  end
  else begin
    Printf.printf
      "refresh_all over %d snapshots (base n = %d, u = %g per round, %d rounds)\n"
      (List.length results) n u rounds;
    let t =
      Text_table.create
        [ ("snapshot", Text_table.Left); ("method", Text_table.Left);
          ("group", Text_table.Right); ("pages decoded", Text_table.Right);
          ("data msgs", Text_table.Right); ("bytes", Text_table.Right);
          ("attempts", Text_table.Right); ("chunks", Text_table.Right);
          ("catch-up", Text_table.Right); ("result", Text_table.Left) ]
    in
    List.iter
      (fun (name, res) ->
        match res with
        | Ok r ->
          Text_table.add_row t
            [ name; Manager.method_name r.Manager.method_used;
              string_of_int r.Manager.group_size;
              string_of_int r.Manager.pages_decoded;
              string_of_int r.Manager.data_messages;
              string_of_int r.Manager.link_bytes;
              string_of_int r.Manager.attempts;
              string_of_int r.Manager.chunks;
              string_of_int r.Manager.catchup_records; "ok" ]
        | Error e ->
          Text_table.add_row t
            [ name; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; Printexc.to_string e ])
      results;
    Text_table.print t;
    if version_retain > 1 then begin
      let vt =
        Text_table.create
          [ ("snapshot", Text_table.Left);
            ("retained epochs (epoch@snaptime)", Text_table.Left) ]
      in
      List.iter
        (fun (name, res) ->
          match res with
          | Error _ -> ()
          | Ok _ ->
            Text_table.add_row vt
              [ name;
                String.concat ", "
                  (List.map
                     (fun vi ->
                       Printf.sprintf "%d@%d%s" vi.VS.vi_epoch vi.VS.vi_snaptime
                         (if vi.VS.vi_frozen then "" else "*"))
                     (Manager.snapshot_versions m name)) ])
        results;
      print_newline ();
      print_endline "Retained MVCC versions (newest first; * marks the live head):";
      Text_table.print vt
    end;
    print_endline
      "Differential siblings of one base share a single scan (the 'group'\n\
       column); a page is decoded once per group scan, not once per snapshot.\n\
       With --chunk-entries, 'chunks' is the lock-coupled page chunks the scan\n\
       ran as and 'catch-up' the WAL-tail records replayed under the final\n\
       short table-S lock (0/0 = the monolithic whole-scan lock ran)."
  end;
  (* --wal-file: prove the segment is a faithful durable image of the log
     we just wrote — sync, reopen from disk, compare record for record. *)
  match wal_file with
  | None -> 0
  | Some path ->
    Wal.sync wal;
    let reopened = Wal.open_file path in
    let ok = Wal.to_list reopened = Wal.to_list wal in
    Wal.close reopened;
    let out = if json then stderr else stdout in
    Printf.fprintf out "wal file round-trip: %s (%d records, %d log bytes, %d fsyncs)\n"
      (if ok then "ok" else "MISMATCH") (Wal.record_count wal) (Wal.byte_size wal)
      (Wal.fsyncs wal);
    if ok then 0 else 3

(* ------------------------------------------------------------------ *)
(* fleet *)

(* A canned snapshot fleet: one WAL-backed base per tenant (heavy-tailed
   sizes), a few snapshots over each, all registered with the scheduler
   under log-uniform staleness SLOs, then driven by bursty
   Markov-modulated Poisson updaters for a stretch of virtual time. *)
let fleet_cmd verbose trace json tenants snaps_per ticks seed =
  setup_logs verbose trace;
  let module Workload = Snapdiff_workload.Workload in
  let module Manager = Snapdiff_core.Manager in
  let module Fleet = Snapdiff_fleet.Fleet in
  let module Rng = Snapdiff_util.Rng in
  let module Text_table = Snapdiff_util.Text_table in
  let rng = Rng.create seed in
  let dt = Fleet.default_config.Fleet.lookahead_us in
  let dt_s = dt /. 1e6 in
  let m = Manager.create () in
  let fleet = Fleet.create m in
  let tenant_pop = Workload.make_tenants ~rng ~tenants () in
  Array.iter
    (fun tn ->
      let base_name = Printf.sprintf "tenant%d" tn.Workload.tenant_id in
      let base =
        Workload.make_base ~wal:(Snapdiff_wal.Wal.create ()) ~name:base_name
          ~clock:(Snapdiff_txn.Clock.create ()) ()
      in
      Workload.populate base ~rng ~n:tn.Workload.tenant_size;
      Manager.register_base m base;
      for i = 0 to snaps_per - 1 do
        let name = Printf.sprintf "%s_s%d" base_name i in
        ignore
          (Manager.create_snapshot m ~name ~base:base_name
             ~restrict:(Workload.restrict_fraction (0.1 +. Rng.float rng 0.8)) ()
            : Manager.refresh_report);
        (* Log-uniform SLOs over one decade: 2..20 ticks of budget. *)
        let slo_ticks = 2.0 *. Float.pow 10.0 (Rng.float rng 1.0) in
        Fleet.register fleet ~name ~slo_us:(slo_ticks *. dt)
      done)
    tenant_pop;
  for i = 1 to ticks do
    Array.iter
      (fun tn ->
        let base = Manager.base m (Printf.sprintf "tenant%d" tn.Workload.tenant_id) in
        let ops = Workload.arrivals rng tn ~dt_s in
        if ops > 0 && Snapdiff_core.Base_table.count base > 0 then
          ignore
            (Workload.mutate_zipf base ~rng ~ops ~theta:tn.Workload.tenant_theta
               ~mix:Workload.churn
              : int))
      tenant_pop;
    ignore (Fleet.tick fleet ~now_us:(float_of_int i *. dt) : Fleet.tick_report)
  done;
  let st = Fleet.stats fleet in
  if json then
    Printf.printf
      "{\"tenants\": %d, \"snapshots\": %d, \"ticks\": %d, \"refreshes\": %d, \
       \"slo_misses\": %d, \"miss_rate\": %.6f, \"deferred\": %d, \"pulled_in\": %d, \
       \"shed_full\": %d, \"grouped\": %d, \"failures\": %d, \"max_queue_depth\": %d, \
       \"full\": %d, \"differential\": %d, \"log_based\": %d}\n"
      tenants st.Fleet.st_registered st.Fleet.st_ticks st.Fleet.st_refreshes
      st.Fleet.st_slo_misses (Fleet.miss_rate st) st.Fleet.st_deferred
      st.Fleet.st_pulled_in st.Fleet.st_shed_full st.Fleet.st_grouped
      st.Fleet.st_failures st.Fleet.st_max_queue_depth st.Fleet.st_full
      st.Fleet.st_differential st.Fleet.st_log_based
  else begin
    Printf.printf
      "fleet: %d snapshots over %d tenant bases, %d ticks of %.0f ms virtual time\n"
      st.Fleet.st_registered tenants ticks (dt /. 1000.0);
    let t = Text_table.create [ ("stat", Text_table.Left); ("value", Text_table.Right) ] in
    List.iter
      (fun (k, v) -> Text_table.add_row t [ k; v ])
      [ ("refreshes committed", string_of_int st.Fleet.st_refreshes);
        ("SLO misses", string_of_int st.Fleet.st_slo_misses);
        ("miss rate", Printf.sprintf "%.4f" (Fleet.miss_rate st));
        ("deferred (backpressure)", string_of_int st.Fleet.st_deferred);
        ("pulled into group scans", string_of_int st.Fleet.st_pulled_in);
        ("shed to full", string_of_int st.Fleet.st_shed_full);
        ("served by shared scans", string_of_int st.Fleet.st_grouped);
        ("failures", string_of_int st.Fleet.st_failures);
        ("max queue depth", string_of_int st.Fleet.st_max_queue_depth);
        ("method: full", string_of_int st.Fleet.st_full);
        ("method: differential", string_of_int st.Fleet.st_differential);
        ("method: log-based", string_of_int st.Fleet.st_log_based) ];
    Text_table.print t;
    print_endline
      "Each snapshot's refresh must land within its staleness SLO of the\n\
       previous one; the scheduler picks each dispatch's method from the\n\
       cost model and coalesces due siblings into shared scans."
  end;
  if st.Fleet.st_failures > 0 then 3 else 0

(* ------------------------------------------------------------------ *)
(* vacuum *)

(* Builds a small SQL workload whose snapshot retains several refresh
   epochs, proves every retained epoch is readable through SQL time
   travel (SELECT ... AS OF, compared byte-for-byte against the MVCC
   read-transaction oracle), then runs [Manager.vacuum]: expired
   versions are reclaimed and the shared WAL is truncated up to its
   lowest hold in one step (a lagging log-based snapshot's cursor).  The
   oracle check runs again afterwards — the epochs vacuum kept must still
   read back identically.  Exit 3 if any AS OF result diverges from the
   oracle. *)
let vacuum_cmd verbose trace json n rounds retain older_than dry_run =
  setup_logs verbose trace;
  let module Manager = Snapdiff_core.Manager in
  let module Snapshot_table = Snapdiff_core.Snapshot_table in
  let module VS = Snapdiff_mvcc.Version_store in
  let module Clock = Snapdiff_txn.Clock in
  let module Text_table = Snapdiff_util.Text_table in
  (* A hold is a (holder, epoch) pin or a (holder, lsn) WAL hold. *)
  let text_holds hs =
    String.concat ", " (List.map (fun (h, at) -> Printf.sprintf "%s@%d" h at) hs)
  in
  let json_holds key hs =
    String.concat ", "
      (List.map (fun (h, at) -> Printf.sprintf "{\"holder\": \"%s\", \"%s\": %d}" h key at) hs)
  in
  let db = Database.create () in
  let m = Database.manager db in
  let exec sql = ignore (Database.run db sql : Database.result) in
  exec "CREATE TABLE emp (id INT NOT NULL, salary INT NOT NULL)";
  let buf = Buffer.create (n * 12) in
  Buffer.add_string buf "INSERT INTO emp VALUES ";
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_string buf ", ";
    Printf.bprintf buf "(%d, %d)" i (i mod 97)
  done;
  exec (Buffer.contents buf);
  exec
    (Printf.sprintf
       "CREATE SNAPSHOT lowpay AS SELECT * FROM emp WHERE salary < 40 REFRESH \
        DIFFERENTIAL RETAIN %d"
       retain);
  (* A log-based snapshot never refreshed after its creation: its cursor
     hold stays at the creation LSN, below every update the rounds log, so
     it holds the WAL's truncation back and the report names it. *)
  exec "CREATE SNAPSHOT lagging AS SELECT * FROM emp WHERE salary < 40 REFRESH LOGBASED";
  for r = 1 to rounds do
    (* Each round nudges a different prefix of the table across the
       restriction boundary, then publishes a new epoch. *)
    exec (Printf.sprintf "UPDATE emp SET salary = salary + 3 WHERE id < %d" (r * n / (rounds + 1)));
    exec "REFRESH SNAPSHOT lowpay"
  done;
  (* The oracle: a pinned MVCC read transaction on the same epoch must
     yield exactly the tuples SQL time travel returns. *)
  let oracle_tuples epoch =
    let txn = Manager.read_txn_exn ~epoch m "lowpay" in
    Fun.protect
      ~finally:(fun () -> Snapshot_table.release_txn txn)
      (fun () ->
        List.rev (Snapshot_table.txn_fold txn ~init:[] ~f:(fun acc _ tup -> tup :: acc)))
  in
  let check_epochs () =
    List.fold_left
      (fun (ok, checked) vi ->
        let epoch = vi.VS.vi_epoch in
        let rows q =
          match Database.run db q with
          | Database.Rows (schema, tuples) -> (schema, tuples)
          | _ -> failwith "AS OF did not return rows"
        in
        let schema, by_epoch =
          rows (Printf.sprintf "SELECT * FROM lowpay AS OF EPOCH %d" epoch)
        in
        let _, by_time =
          rows (Printf.sprintf "SELECT * FROM lowpay AS OF TIMESTAMP %d" vi.VS.vi_snaptime)
        in
        let render ts = Database.render_result (Database.Rows (schema, ts)) in
        let want = render (oracle_tuples epoch) in
        let good = render by_epoch = want && render by_time = want in
        if not good then
          Printf.eprintf
            "snapshotdb: AS OF EPOCH %d diverges from the read_txn oracle\n%!" epoch;
        (ok && good, checked + 1))
      (true, 0)
      (Manager.snapshot_versions m "lowpay")
  in
  let pre_ok, pre_checked = check_epochs () in
  let older_than = Option.map (fun age -> Clock.now (Database.clock db) - age) older_than in
  let report = Manager.vacuum ?older_than ~dry_run m in
  let post_ok, post_checked = check_epochs () in
  let checks = pre_checked + post_checked in
  let all_ok = pre_ok && post_ok in
  if json then begin
    let b = Buffer.create 512 in
    Printf.bprintf b "{\"dry_run\": %b, \"snapshots\": [" report.Manager.vac_dry_run;
    List.iteri
      (fun i sv ->
        if i > 0 then Buffer.add_string b ", ";
        Printf.bprintf b
          "{\"snapshot\": \"%s\", \"examined\": %d, \"reclaimed\": %d, \"zombied\": %d, \
           \"bytes\": %d, \"leases\": [%s]}"
          sv.Manager.sv_snapshot sv.Manager.sv_examined sv.Manager.sv_reclaimed
          sv.Manager.sv_zombied sv.Manager.sv_bytes
          (json_holds "epoch" sv.Manager.sv_leases))
      report.Manager.vac_snapshots;
    Buffer.add_string b "], \"wals\": [";
    List.iteri
      (fun i wv ->
        if i > 0 then Buffer.add_string b ", ";
        Printf.bprintf b
          "{\"bases\": [%s], \"truncated_to\": %d, \"log_bytes_reclaimed\": %d, \
           \"gated\": [%s]}"
          (String.concat ", " (List.map (Printf.sprintf "\"%s\"") wv.Manager.wv_bases))
          wv.Manager.wv_truncated_to wv.Manager.wv_log_bytes_reclaimed
          (json_holds "lsn" wv.Manager.wv_gated))
      report.Manager.vac_wals;
    Printf.bprintf b "], \"as_of_checks\": %d, \"as_of_ok\": %b}\n" checks all_ok;
    print_string (Buffer.contents b)
  end
  else begin
    Printf.printf "vacuum%s: n = %d, %d refresh rounds, RETAIN %d%s\n"
      (if dry_run then " (dry run)" else "")
      n rounds retain
      (match older_than with
      | Some ts -> Printf.sprintf ", older-than SnapTime %d" ts
      | None -> "");
    let t =
      Text_table.create
        [ ("snapshot", Text_table.Left); ("examined", Text_table.Right);
          ("reclaimed", Text_table.Right); ("zombied", Text_table.Right);
          ("bytes", Text_table.Right) ]
    in
    List.iter
      (fun sv ->
        Text_table.add_row t
          [ sv.Manager.sv_snapshot; string_of_int sv.Manager.sv_examined;
            string_of_int sv.Manager.sv_reclaimed; string_of_int sv.Manager.sv_zombied;
            string_of_int sv.Manager.sv_bytes ])
      report.Manager.vac_snapshots;
    Text_table.print t;
    List.iter
      (fun sv ->
        Printf.printf "%s: epoch leases: %s\n" sv.Manager.sv_snapshot
          (match sv.Manager.sv_leases with [] -> "none" | ls -> text_holds ls))
      report.Manager.vac_snapshots;
    List.iter
      (fun wv ->
        Printf.printf "wal [%s]: truncated to LSN %d, %d log bytes reclaimed%s\n"
          (String.concat ", " wv.Manager.wv_bases)
          wv.Manager.wv_truncated_to wv.Manager.wv_log_bytes_reclaimed
          (match wv.Manager.wv_gated with [] -> "" | gs -> ", gated by " ^ text_holds gs))
      report.Manager.vac_wals;
    Printf.printf "as-of oracle: %d epoch reads %s\n" checks
      (if all_ok then "byte-identical to read_txn" else "DIVERGED")
  end;
  if all_ok then 0 else 3

(* ------------------------------------------------------------------ *)
(* cmdliner wiring *)

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log refresh events to stderr.")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a JSON-lines trace of spans and events to $(docv).")

let shell_t = Term.(const shell_cmd $ verbose_t $ trace_t)

let run_t =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"SQL script to execute.")
  in
  let echo =
    Arg.(value & flag & info [ "echo" ] ~doc:"Echo each statement before its result.")
  in
  Term.(const run_cmd $ verbose_t $ trace_t $ echo $ file)

let stats_t =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object instead of text.")
  in
  let n =
    Arg.(value & opt int 5000 & info [ "n" ] ~docv:"ROWS" ~doc:"Base table size.")
  in
  let rounds =
    Arg.(value & opt int 4 & info [ "rounds" ] ~docv:"K" ~doc:"Mutate+refresh rounds.")
  in
  let u =
    Arg.(
      value & opt float 0.1
      & info [ "u" ] ~docv:"U" ~doc:"Fraction of tuples mutated per round.")
  in
  Term.(const stats_cmd $ verbose_t $ trace_t $ json $ n $ rounds $ u)

let fig_t =
  let id =
    Arg.(required & opt (some int) None & info [ "id" ] ~docv:"N" ~doc:"Figure number (8 or 9).")
  in
  let n =
    Arg.(value & opt int 20000 & info [ "n" ] ~docv:"ROWS" ~doc:"Base table size.")
  in
  Term.(const fig_cmd $ id $ n)

let model_t =
  let n = Arg.(value & opt int 20000 & info [ "n" ] ~doc:"Base table size.") in
  let q =
    Arg.(required & opt (some float) None & info [ "q" ] ~doc:"Snapshot selectivity in [0,1].")
  in
  let u =
    Arg.(required & opt (some float) None & info [ "u" ] ~doc:"Update activity in [0,1].")
  in
  Term.(const model_cmd $ n $ q $ u)

let refresh_t =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON array instead of a table.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Refresh every registered snapshot (the default when no names are given).")
  in
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"NAME" ~doc:"Snapshot names to refresh (default: all).")
  in
  let n =
    Arg.(value & opt int 5000 & info [ "n" ] ~docv:"ROWS" ~doc:"Base table size.")
  in
  let rounds =
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"K" ~doc:"Mutate+refresh rounds.")
  in
  let u =
    Arg.(
      value & opt float 0.05
      & info [ "u" ] ~docv:"U" ~doc:"Fraction of tuples mutated per round.")
  in
  let chunk_entries =
    Arg.(
      value
      & opt (some int) None
      & info [ "chunk-entries" ] ~docv:"N"
          ~doc:
            "Run refresh scans with the chunked concurrent protocol: a table \
             intention lock plus lock-coupled page-range locks covering \
             roughly $(docv) entries per chunk, with a WAL-tail catch-up \
             phase restoring transaction consistency.  Default: the \
             monolithic whole-scan table lock.")
  in
  let wal_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal-file" ] ~docv:"PATH"
          ~doc:
            "Write the base table's WAL to a file-backed segment at $(docv) \
             (length-prefixed, checksummed frames; commits group-committed 8 \
             per fsync), and after the run reopen it from disk and verify it \
             replays identically.")
  in
  let version_retain =
    Arg.(
      value
      & opt int 1
      & info [ "version-retain" ] ~docv:"K"
          ~doc:
            "Keep the last $(docv) committed refresh epochs readable \
             through pinned read transactions (default 1 = only the live \
             head, the pre-MVCC behaviour).  Each committed refresh \
             publishes an immutable version; readers pin one and never \
             block on a commit.")
  in
  Term.(
    const refresh_cmd $ verbose_t $ trace_t $ json $ all $ names $ n $ rounds $ u
    $ chunk_entries $ version_retain $ wal_file)

let vacuum_t =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object instead of text.")
  in
  let n =
    Arg.(value & opt int 400 & info [ "n" ] ~docv:"ROWS" ~doc:"Base table size.")
  in
  let rounds =
    Arg.(
      value & opt int 6
      & info [ "rounds" ] ~docv:"K"
          ~doc:"Mutate+refresh rounds; each publishes a new snapshot epoch.")
  in
  let retain =
    Arg.(
      value & opt int 4
      & info [ "retain" ] ~docv:"K"
          ~doc:"RETAIN clause on the snapshot: epochs kept readable through AS OF.")
  in
  let older_than =
    Arg.(
      value
      & opt (some int) None
      & info [ "older-than" ] ~docv:"AGE"
          ~doc:
            "Also reclaim retained versions whose SnapTime is more than \
             $(docv) clock ticks old (the head and pinned epochs always \
             survive).  Default: the RETAIN count alone decides.")
  in
  let dry_run =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:"Report what vacuum would reclaim without touching anything.")
  in
  Term.(
    const vacuum_cmd $ verbose_t $ trace_t $ json $ n $ rounds $ retain $ older_than
    $ dry_run)

let faults_t =
  let n =
    Arg.(value & opt int 10000 & info [ "n" ] ~docv:"ROWS" ~doc:"Base table size.")
  in
  let rounds =
    Arg.(value & opt int 6 & info [ "rounds" ] ~docv:"K" ~doc:"Refresh rounds per fault plan.")
  in
  Term.(const faults_cmd $ n $ rounds)

let fleet_t =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object instead of text.")
  in
  let tenants =
    Arg.(value & opt int 8 & info [ "tenants" ] ~docv:"T" ~doc:"Tenant base tables.")
  in
  let snaps_per =
    Arg.(value & opt int 4 & info [ "snapshots" ] ~docv:"S" ~doc:"Snapshots per tenant.")
  in
  let ticks =
    Arg.(value & opt int 50 & info [ "ticks" ] ~docv:"K" ~doc:"Scheduler ticks to run.")
  in
  let seed = Arg.(value & opt int 0xF1EE7 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.") in
  Term.(const fleet_cmd $ verbose_t $ trace_t $ json $ tenants $ snaps_per $ ticks $ seed)

let cmds =
  [
    Cmd.v (Cmd.info "shell" ~doc:"Interactive SQL shell with snapshot support.") shell_t;
    Cmd.v (Cmd.info "run" ~doc:"Execute a SQL script file.") run_t;
    Cmd.v (Cmd.info "fig" ~doc:"Regenerate a figure from the paper's evaluation.") fig_t;
    Cmd.v (Cmd.info "model" ~doc:"Evaluate the analytical message-cost model.") model_t;
    Cmd.v
      (Cmd.info "refresh"
         ~doc:
           "Run a canned multi-snapshot workload and refresh through the \
            group path: differential siblings of one base share a single \
            scan.")
      refresh_t;
    Cmd.v
      (Cmd.info "vacuum"
         ~doc:
           "Run a retained-epoch workload, verify SQL time travel (AS OF) \
            against the MVCC read-transaction oracle, then reclaim expired \
            versions and truncate the WAL up to its lowest hold.")
      vacuum_t;
    Cmd.v
      (Cmd.info "faults"
         ~doc:
           "Drive refreshes over fault-injecting links and report the retry tax; exits 1 \
            if any fault plan's snapshot does not converge to its base restriction.")
      faults_t;
    Cmd.v
      (Cmd.info "fleet"
         ~doc:
           "Drive a fleet of snapshots under staleness SLOs: bursty \
            multi-tenant updaters, deadline scheduling, cost-model method \
            choice, scan coalescing and backpressure.")
      fleet_t;
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Run a workload exercising refresh, the buffer pool, the WAL, locks \
            and links, then dump the engine's metrics registry.")
      stats_t;
  ]

let () =
  let info =
    Cmd.info "snapshotdb"
      ~doc:"A snapshot differential refresh engine (Lindsay et al., SIGMOD 1986)"
  in
  exit (Cmd.eval' (Cmd.group info cmds))
