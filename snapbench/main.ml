(* snapbench: the repository's benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --selfcheck

   A run sets up the named workload from the seed, measures it for S
   seconds, checks every output against its oracle, prints each metric
   by name with its unit, and ends with one JSON line carrying the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
   It exits nonzero if any check failed.  --selfcheck runs every workload
   twice per seed at a small size and fails if a count that must repeat
   exactly differs.  See DESIGN.md. *)

open Harness

(* The metrics of BENCHMARK.json: every workload reports all of them.
   Wall times (refresh_ms, ops_per_s, ...) are printed but not listed;
   see DESIGN.md. *)
let end_to_end =
  [ "setup_s"; "refresh_rel.p50"; "refresh_rel.p80"; "link_msgs_per_refresh";
    "link_bytes_per_refresh"; "peak_heap_mb" ]

let per_layer =
  [ "base_table.insert_us.p50"; "base_table.insert_us.p99"; "base_table.update_us.p50";
    "base_table.update_us.p99"; "snapshot_table.pin_us.p50"; "snapshot_table.scan_ms.p50";
    "snapshot_table.get_us.p50"; "buffer_pool.hit_ratio"; "buffer_pool.hits";
    "buffer_pool.misses"; "buffer_pool.misses_per_refresh"; "buffer_pool.evictions_per_refresh";
    "buffer_pool.writeback_bytes_per_checkpoint"; "differential.entries_scanned_per_refresh";
    "differential.pages_decoded_per_refresh"; "differential.pruned_ratio";
    "differential.useful_ratio"; "fixup.writes_per_refresh"; "manager.attempts_per_refresh";
    "manager.chunks_per_refresh"; "manager.catchup_records_per_refresh";
    "link.frames_per_refresh"; "link.logical_per_frame"; "snapshot_table.stream_aborts_ratio";
    "mvcc.commits"; "mvcc.pages_copied_per_commit"; "mvcc.copy_bytes_per_commit";
    "mvcc.read_indirections_per_read"; "txn.lock_requests"; "txn.lock_grant_ratio";
    "wal.appends_per_op"; "wal.append_bytes_per_op"; "wal.fsyncs_per_txn";
    "wal.log_records_scanned_per_refresh"; "refreshes"; "trace.self_share.client";
    "trace.self_share.base_table"; "trace.self_share.manager"; "trace.self_share.snapshot_table";
    "trace.self_share.txn"; "trace.spans"; "trace.operations"; "trace.overhead_share" ]

(* Counts and ratios of layers a workload bypasses read 0. *)
let zero_if_bypassed =
  [ ("buffer_pool.writeback_bytes_per_checkpoint", "B"); ("mvcc.read_indirections_per_read", "count");
    ("txn.lock_requests", "count"); ("txn.lock_grant_ratio", "ratio"); ("wal.appends_per_op", "count");
    ("wal.append_bytes_per_op", "B"); ("wal.fsyncs_per_txn", "count") ]

type workload = {
  wname : string;
  run :
    small:bool -> seed:int -> budget:budget -> trace:bool -> out:string -> unit;
}

let workloads =
  [ { wname = "sparse_scan";
      run =
        (fun ~small -> Sparse_scan.run ~size:(if small then Sparse_scan.small else Sparse_scan.full))
    };
    { wname = "dense_churn";
      run =
        (fun ~small -> Dense_churn.run ~size:(if small then Dense_churn.small else Dense_churn.full))
    };
    { wname = "oltp_concurrent";
      run =
        (fun ~small ->
          Oltp_concurrent.run ~size:(if small then Oltp_concurrent.small else Oltp_concurrent.full))
    };
    { wname = "fleet_tenants";
      run =
        (fun ~small ->
          Fleet_tenants.run ~size:(if small then Fleet_tenants.small else Fleet_tenants.full))
    } ]

let reset_report () =
  report.metrics <- [];
  report.notes <- [];
  report.attempted <- 0;
  report.failed <- 0;
  report.failures <- []

let find_workload name =
  match List.find_opt (fun w -> w.wname = name) workloads with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" name
      (String.concat ", " (List.map (fun w -> w.wname) workloads));
    exit 2

let json_number v = Printf.sprintf "%.12g" v

let run_one ~workload ~seed ~seconds ~iters ~trace =
  let w = find_workload workload in
  let out = Filename.concat ".snapbench_out" workload in
  (try if not (Sys.file_exists ".snapbench_out") then Sys.mkdir ".snapbench_out" 0o755
   with Sys_error _ -> ());
  w.run ~small:false ~seed ~budget:{ seconds; max_iters = iters } ~trace ~out;
  List.iter
    (fun (n, u) -> if not (List.exists (fun m -> m.name = n) report.metrics) then metric n u 0.0)
    zero_if_bypassed;
  let metrics = List.rev report.metrics in
  List.iter (fun n -> print_endline ("# " ^ n)) (List.rev report.notes);
  List.iter (fun f -> print_endline ("! FAILED: " ^ f)) (List.rev report.failures);
  List.iter (fun m -> Printf.printf "%-44s %16s %s\n" m.name (json_number m.value) m.unit_) metrics;
  Printf.printf "failed_op_share %s ratio (%d of %d operations)\n"
    (json_number (iratio report.failed report.attempted))
    report.failed report.attempted;
  let wanted = if trace then per_layer else end_to_end in
  let missing = List.filter (fun n -> not (List.exists (fun m -> m.name = n) metrics)) wanted in
  if missing <> [] then begin
    Printf.eprintf "%s did not report: %s\n" workload (String.concat ", " missing);
    exit 2
  end;
  let fields =
    List.map
      (fun n ->
        let m = List.find (fun m -> m.name = n) metrics in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number m.value) m.unit_)
      wanted
  in
  let correct = report.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    (max 1 report.attempted) report.failed (String.concat ", " fields);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let selfcheck = ref false and iters = ref max_int in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer run (1)");
      ("--iters", Arg.Set_int iters, "N also stop after N loop iterations (reproduces a run exactly)");
      ("--selfcheck", Arg.Set selfcheck, " determinism self-check at a small size") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !selfcheck then Selfcheck.run (List.map (fun w -> (w.wname, w.run)) workloads) reset_report
  else run_one ~workload:!workload ~seed:!seed ~seconds:!seconds ~iters:!iters ~trace:(!trace = 1)
