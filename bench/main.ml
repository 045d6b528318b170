(* The benchmark harness.

   Usage: dune exec bench/main.exe -- [section ...] [--quick] [--json] [--trace FILE]

   The section list, the usage text, and the default run order are all
   derived from the single [sections] table near the bottom of this file,
   so they cannot drift apart; run with --help to see the generated list.

   --quick shrinks the base tables for a fast smoke run (CI).
   --json additionally writes every table row to BENCH_refresh.json as
   (section, params, entries_scanned, messages, bytes, wall_ns) records
   for the experiment log, plus a final _metrics record with the engine's
   metrics registry.
   --trace FILE streams the engine's spans/events to FILE as JSON lines. *)

open Snapdiff_figures
module Text_table = Snapdiff_util.Text_table
module Metrics = Snapdiff_obs.Metrics
module Trace = Snapdiff_obs.Trace

let quick = Array.exists (( = ) "--quick") Sys.argv
let json_mode = Array.exists (( = ) "--json") Sys.argv
let want_help = Array.exists (fun a -> a = "--help" || a = "-h") Sys.argv

let trace_path =
  let rec find = function
    | "--trace" :: path :: _ -> Some path
    | _ :: tl -> find tl
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let json_path =
  let rec find = function
    | "--json-file" :: path :: _ -> path
    | _ :: tl -> find tl
    | [] -> "BENCH_refresh.json"
  in
  find (Array.to_list Sys.argv)

(* Set when a section detects an invariant violation (the fleet section's
   SLO checks, the cascade section's child images, the prune section's
   pruned/unpruned streams); the process then exits nonzero. *)
let violations : string list ref = ref []

let n_figure = if quick then 2_000 else 20_000
let n_ablation = if quick then 2_000 else 10_000

(* ------------------------------------------------------------------ *)
(* JSON experiment log *)

type json_record = {
  jr_section : string;
  jr_params : (string * string) list;
  jr_entries_scanned : int;
  jr_messages : int;
  jr_bytes : int;
  jr_wall_ns : float;
      (* wall time since the section's previous row (or its start); the
         section-total row carries the whole section's *)
}

let json_records : json_record list ref = ref []
let current_section = ref "-"
let last_stamp = ref 0.0  (* when the section's previous row was emitted *)

let emit ?(params = []) ?(entries_scanned = 0) ?(messages = 0) ?(bytes = 0) () =
  if json_mode then begin
    let now = Unix.gettimeofday () in
    json_records :=
      { jr_section = !current_section; jr_params = params;
        jr_entries_scanned = entries_scanned; jr_messages = messages;
        jr_bytes = bytes; jr_wall_ns = (now -. !last_stamp) *. 1e9 }
      :: !json_records;
    last_stamp := now
  end

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json path =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf "  {\"section\": \"%s\", \"params\": {"
        (json_escape r.jr_section);
      List.iteri
        (fun j (k, v) ->
          if j > 0 then Buffer.add_string buf ", ";
          Printf.bprintf buf "\"%s\": \"%s\"" (json_escape k) (json_escape v))
        r.jr_params;
      Printf.bprintf buf
        "}, \"entries_scanned\": %d, \"messages\": %d, \"bytes\": %d, \
         \"wall_ns\": %.0f}"
        r.jr_entries_scanned r.jr_messages r.jr_bytes r.jr_wall_ns)
    (List.rev !json_records);
  (* One trailing record carries the whole run's metrics registry, so the
     experiment log captures the engine counters alongside the tables. *)
  if !json_records <> [] then Buffer.add_string buf ",\n";
  Printf.bprintf buf "  {\"section\": \"_metrics\", \"metrics\": %s}"
    (Metrics.dump_json Metrics.global);
  Buffer.add_string buf "\n]\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nwrote %d records to %s\n" (List.length !json_records + 1) path

let header title =
  let bar = String.make 74 '=' in
  Printf.printf "\n%s\n%s\n%s\n" bar title bar

(* ------------------------------------------------------------------ *)
(* Figures 8 and 9 *)

let run_figure ~name ~log_scale sweeps =
  header name;
  List.iter (fun sweep -> print_string (Figures.render_sweep_table sweep)) sweeps;
  print_newline ();
  print_string (Figures.render_figure_chart ~log_scale ~title:name sweeps);
  List.iter
    (fun sw ->
      List.iter
        (fun p ->
          let msgs pct = int_of_float (Float.round (pct *. float sw.Figures.n /. 100.0)) in
          emit
            ~params:
              [ ("q", Printf.sprintf "%.2f" sw.Figures.q);
                ("u_pct", Printf.sprintf "%.2f" p.Figures.u_pct);
                ("n", string_of_int sw.Figures.n);
                ("ideal_msgs", string_of_int (msgs p.Figures.ideal_sim));
                ("full_msgs", string_of_int (msgs p.Figures.full_sim)) ]
            ~entries_scanned:sw.Figures.n
            ~messages:(msgs p.Figures.diff_sim) ())
        sw.Figures.points)
    sweeps

let fig8 () =
  run_figure
    ~name:
      (Printf.sprintf
         "Figure 8: tuples sent (%% of base table) vs update activity, n=%d" n_figure)
    ~log_scale:false
    (Figures.figure8 ~n:n_figure ())

let fig9 () =
  run_figure
    ~name:
      (Printf.sprintf
         "Figure 9: restrictive snapshots (1%%, 5%%), log scale, n=%d" n_figure)
    ~log_scale:true
    (Figures.figure9 ~n:n_figure ())

(* ------------------------------------------------------------------ *)
(* Ablations *)

let churn () =
  header "Ablation: mutation mixes beyond the paper's update-only model (q=25%, u=20%)";
  let t =
    Text_table.create
      [ ("mix", Text_table.Left); ("ops", Text_table.Right);
        ("ideal msgs", Text_table.Right); ("diff msgs", Text_table.Right);
        ("full msgs", Text_table.Right) ]
  in
  List.iter
    (fun r ->
      emit
        ~params:
          [ ("mix", r.Figures.mix_name); ("ops", string_of_int r.Figures.ops);
            ("ideal_msgs", string_of_int r.Figures.ideal_msgs);
            ("full_msgs", string_of_int r.Figures.full_msgs) ]
        ~messages:r.Figures.diff_msgs ();
      Text_table.add_row t
        [ r.Figures.mix_name; string_of_int r.Figures.ops;
          string_of_int r.Figures.ideal_msgs; string_of_int r.Figures.diff_msgs;
          string_of_int r.Figures.full_msgs ])
    (Figures.churn_ablation ~n:n_ablation ());
  Text_table.print t

let maint () =
  header "Ablation: eager vs deferred annotation maintenance (who pays, and when)";
  let t =
    Text_table.create
      [ ("mode", Text_table.Left); ("base ops", Text_table.Right);
        ("clock ticks during ops", Text_table.Right);
        ("annotation writes at refresh", Text_table.Right);
        ("refresh data msgs", Text_table.Right) ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [ r.Figures.maint_mode; string_of_int r.Figures.base_ops;
          string_of_int r.Figures.clock_ticks;
          string_of_int r.Figures.annotation_writes_at_refresh;
          string_of_int r.Figures.refresh_data_msgs ])
    (Figures.maintenance_ablation ~n:n_ablation ());
  Text_table.print t;
  print_endline
    "(eager pays clock draws + successor writes per op; deferred pays one\n\
    \ fix-up write per disturbed entry, at refresh time)"

let asap () =
  header "Ablation: ASAP propagation vs periodic differential refresh";
  let t =
    Text_table.create
      [ ("refresh interval (ops)", Text_table.Right); ("ASAP msgs", Text_table.Right);
        ("periodic differential msgs", Text_table.Right) ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [ string_of_int r.Figures.refresh_interval; string_of_int r.Figures.asap_msgs;
          string_of_int r.Figures.periodic_diff_msgs ])
    (Figures.asap_ablation ());
  Text_table.print t;
  print_endline
    "(ASAP pays one message per qualifying change regardless; differential\n\
    \ amortizes repeated changes to the same entries between refreshes)"

let logscan () =
  header "Ablation: log-based refresh culling cost";
  let t =
    Text_table.create
      [ ("other tables", Text_table.Right); ("log records scanned", Text_table.Right);
        ("relevant records", Text_table.Right); ("messages", Text_table.Right) ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [ string_of_int r.Figures.irrelevant_tables;
          string_of_int r.Figures.log_records_scanned;
          string_of_int r.Figures.relevant_records; string_of_int r.Figures.messages ])
    (Figures.log_scan_ablation ~n:n_ablation ());
  Text_table.print t;
  print_endline
    "(the paper: \"only a small portion of the log will involve updates to\n\
    \ the base table for a particular snapshot\")"

let tail () =
  header "Ablation: unconditional tail message vs high-water suppression";
  let t =
    Text_table.create
      [ ("updated %", Text_table.Right); ("msgs (paper)", Text_table.Right);
        ("msgs (suppressed tail)", Text_table.Right) ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [ Text_table.cell_float ~decimals:1 r.Figures.u_pct_tail;
          string_of_int r.Figures.msgs_paper; string_of_int r.Figures.msgs_suppressed ])
    (Figures.tail_ablation ~n:n_ablation ());
  Text_table.print t

let skew () =
  header "Ablation: zipf-skewed update addresses";
  let t =
    Text_table.create
      [ ("theta", Text_table.Right); ("ops", Text_table.Right);
        ("ideal msgs", Text_table.Right); ("diff msgs", Text_table.Right) ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [ Text_table.cell_float ~decimals:2 r.Figures.theta;
          string_of_int r.Figures.ops_skew; string_of_int r.Figures.ideal_msgs_skew;
          string_of_int r.Figures.diff_msgs_skew ])
    (Figures.skew_ablation ~n:n_ablation ());
  Text_table.print t;
  print_endline
    "(repeated updates to hot tuples cost the annotation scheme nothing\n\
    \ extra; a change-shipping log would grow with every operation)"

let amort () =
  header "Ablation: multi-snapshot amortization of annotation maintenance";
  let t =
    Text_table.create
      [ ("snapshots on base", Text_table.Right);
        ("fix-ups paid by first refresher", Text_table.Right);
        ("fix-ups paid by the rest (total)", Text_table.Right);
        ("total data msgs", Text_table.Right) ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [ string_of_int r.Figures.snapshots_on_base;
          string_of_int r.Figures.first_refresh_fixups;
          string_of_int r.Figures.later_refresh_fixups;
          string_of_int r.Figures.total_data_msgs ])
    (Figures.amortization_ablation ~n:n_ablation ());
  Text_table.print t;
  print_endline
    "(\"multiple snapshots on a single base table do not require additional\n\
    \ annotations and much of the extra work is amortized over the set of\n\
    \ snapshots\")"

let cascade () =
  header "Ablation: cascaded snapshots vs independent snapshots on the base";
  let t =
    Text_table.create
      [ ("children", Text_table.Right); ("parent refresh msgs", Text_table.Right);
        ("sent to children", Text_table.Right);
        ("independent children msgs", Text_table.Right) ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [ string_of_int r.Figures.fanout; string_of_int r.Figures.parent_msgs;
          string_of_int r.Figures.cascade_msgs_total;
          string_of_int r.Figures.independent_msgs_total ];
      if not r.Figures.children_faithful then
        violations :=
          Printf.sprintf "cascade: a child of %d differs from its parent's restriction"
            r.Figures.fanout
          :: !violations)
    (Figures.cascade_ablation ~n:n_ablation ());
  Text_table.print t;
  print_endline
    "(cascaded children ride the parent's single base-table scan: each diffs the\n\
    \ parent's image before and after its refresh and sends the rows it changed;\n\
    \ independent children each rescan the base and each resend shared entries)"

let stepwise () =
  header "Ablation: the paper's stepwise algorithm generations on one script";
  let t =
    Text_table.create
      [ ("generation", Text_table.Left); ("data msgs", Text_table.Right);
        ("why", Text_table.Left) ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [ r.Figures.generation; string_of_int r.Figures.data_msgs; r.Figures.note ])
    (Figures.stepwise_ablation ~n:(n_ablation / 2) ());
  Text_table.print t

let prune () =
  header "Ablation: page-summary scan pruning -- decode cost tracks change volume";
  let u_list = if quick then [ 0.01; 0.05 ] else [ 0.001; 0.01; 0.05; 0.2 ] in
  let t =
    Text_table.create
      [ ("page B", Text_table.Right); ("updates", Text_table.Left);
        ("updated %", Text_table.Right);
        ("pages", Text_table.Right); ("decoded", Text_table.Right);
        ("skipped", Text_table.Right); ("decoded %", Text_table.Right);
        ("msgs (pruned)", Text_table.Right); ("msgs (unpruned)", Text_table.Right);
        ("identical", Text_table.Right) ]
  in
  List.iter
    (fun r ->
      let decoded_pct =
        100.0 *. float_of_int r.Figures.pruned_scanned
        /. float_of_int (max 1 r.Figures.prune_n)
      in
      emit
        ~params:
          [ ("page_size", string_of_int r.Figures.prune_page_size);
            ("mix", r.Figures.prune_mix);
            ("u_pct", Printf.sprintf "%.2f" r.Figures.prune_u_pct);
            ("n", string_of_int r.Figures.prune_n);
            ("pages", string_of_int r.Figures.prune_pages);
            ("entries_skipped", string_of_int r.Figures.pruned_skipped);
            ("unpruned_msgs", string_of_int r.Figures.unpruned_msgs);
            ("identical", string_of_bool r.Figures.prune_identical) ]
        ~entries_scanned:r.Figures.pruned_scanned ~messages:r.Figures.pruned_msgs ();
      Text_table.add_row t
        [ string_of_int r.Figures.prune_page_size;
          r.Figures.prune_mix;
          Text_table.cell_float ~decimals:2 r.Figures.prune_u_pct;
          string_of_int r.Figures.prune_pages;
          string_of_int r.Figures.pruned_scanned;
          string_of_int r.Figures.pruned_skipped;
          Text_table.cell_float ~decimals:1 decoded_pct;
          string_of_int r.Figures.pruned_msgs;
          string_of_int r.Figures.unpruned_msgs;
          (if r.Figures.prune_identical then "yes" else "NO") ];
      if not r.Figures.prune_identical then
        violations :=
          Printf.sprintf "prune: at %d B pages and %.2f%% updated (%s) the pruned refresh differs"
            r.Figures.prune_page_size r.Figures.prune_u_pct r.Figures.prune_mix
          :: !violations)
    (Figures.prune_ablation ~n:n_figure ~u_list ());
  Text_table.print t;
  print_endline
    "(page summaries prove quiescent pages irrelevant without decoding an\n\
    \ entry; the transmitted stream -- hence the snapshot contents -- is\n\
    \ byte-identical with and without pruning, so decode count is pure CPU\n\
    \ saved and tracks change volume, not table size)"

let wire () =
  header "Ablation: simulated transfer time per refresh on period links (q=25%, u=5%)";
  let t =
    Text_table.create
      [ ("link", Text_table.Left); ("full refresh", Text_table.Right);
        ("differential refresh", Text_table.Right); ("speedup", Text_table.Right) ]
  in
  List.iter
    (fun r ->
      let pretty s =
        if s >= 1.0 then Printf.sprintf "%.1f s" s else Printf.sprintf "%.0f ms" (1000.0 *. s)
      in
      emit
        ~params:
          [ ("link", r.Figures.wire_name);
            ("full_seconds", Printf.sprintf "%.3f" r.Figures.full_seconds);
            ("diff_seconds", Printf.sprintf "%.3f" r.Figures.diff_seconds) ]
        ();
      Text_table.add_row t
        [ r.Figures.wire_name; pretty r.Figures.full_seconds; pretty r.Figures.diff_seconds;
          Printf.sprintf "%.1fx" (r.Figures.full_seconds /. r.Figures.diff_seconds) ])
    (Figures.wire_ablation ~n:n_ablation ());
  Text_table.print t;
  print_endline
    "(the paper's motivation: on 1986 wide-area links the message savings\n\
    \ are minutes per refresh, not an abstraction)";
  header "Ablation: batched refresh transport (q=100%, low churn)";
  let u_list = if quick then [ 0.01 ] else [ 0.01; 0.05 ] in
  let rows = Figures.wire_batching_ablation ~n:n_ablation ~u_list () in
  let baseline_frames u =
    match
      List.find_opt
        (fun r -> r.Figures.batch_u_pct = u && r.Figures.batch_threshold = 1)
        rows
    with
    | Some r -> r.Figures.batch_frames
    | None -> 0
  in
  let t =
    Text_table.create
      [ ("updated %", Text_table.Right); ("batch", Text_table.Right);
        ("data msgs", Text_table.Right); ("logical msgs", Text_table.Right);
        ("frames", Text_table.Right); ("frame cut", Text_table.Right);
        ("bytes", Text_table.Right) ]
  in
  List.iter
    (fun r ->
      emit
        ~params:
          [ ("u_pct", Printf.sprintf "%.2f" r.Figures.batch_u_pct);
            ("batch", string_of_int r.Figures.batch_threshold);
            ("data_msgs", string_of_int r.Figures.batch_data_msgs);
            ("logical_msgs", string_of_int r.Figures.batch_logical) ]
        ~messages:r.Figures.batch_frames ~bytes:r.Figures.batch_bytes ();
      Text_table.add_row t
        [ Text_table.cell_float ~decimals:1 r.Figures.batch_u_pct;
          string_of_int r.Figures.batch_threshold;
          string_of_int r.Figures.batch_data_msgs;
          string_of_int r.Figures.batch_logical;
          string_of_int r.Figures.batch_frames;
          Printf.sprintf "%.1fx"
            (float_of_int (baseline_frames r.Figures.batch_u_pct)
            /. float_of_int (max 1 r.Figures.batch_frames));
          string_of_int r.Figures.batch_bytes ])
    rows;
  Text_table.print t;
  print_endline
    "(each frame pays one header + checksum; batching coalesces data\n\
    \ messages while the logical stream -- and the receiver's atomic\n\
    \ epoch -- is unchanged)"

let faults () =
  header "Ablation: fault-injecting links -- retry tax and atomic apply (q=25%)";
  let t =
    Text_table.create
      [ ("fault plan", Text_table.Left); ("batch size", Text_table.Right);
        ("refreshes", Text_table.Right);
        ("attempts", Text_table.Right); ("aborted streams", Text_table.Right);
        ("escalations", Text_table.Right); ("failed", Text_table.Right);
        ("wire msgs", Text_table.Right); ("faults hit", Text_table.Right);
        ("converged", Text_table.Right) ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [ r.Figures.fault_name; string_of_int r.Figures.fault_batch;
          string_of_int r.Figures.refresh_rounds;
          string_of_int r.Figures.attempts_total;
          string_of_int r.Figures.aborted_streams;
          string_of_int r.Figures.escalations;
          string_of_int r.Figures.refreshes_failed;
          string_of_int r.Figures.wire_messages;
          string_of_int r.Figures.faults_hit;
          (if r.Figures.converged then "yes" else "NO") ])
    (Figures.faults_ablation ~n:n_ablation ());
  Text_table.print t;
  print_endline
    "(a failed refresh is atomic: the snapshot keeps its old image and\n\
    \ SnapTime, so one refresh on a healed line covers the whole gap;\n\
    \ wire msgs against the clean-line row is the retry tax)"

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock benches: one Test.make per figure/experiment. *)

let timing () =
  header "Wall-clock micro-benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let n = if quick then 1_000 else 5_000 in
  let prepared_refresh mode =
    let clock = Snapdiff_txn.Clock.create () in
    let base = Snapdiff_workload.Workload.make_base ~mode ~clock () in
    let rng = Snapdiff_util.Rng.create 3 in
    Snapdiff_workload.Workload.populate base ~rng ~n;
    ignore
      (Snapdiff_core.Fixup.run base ~fixup_time:(Snapdiff_txn.Clock.tick clock)
        : Snapdiff_core.Fixup.stats);
    let restrict =
      Snapdiff_expr.Eval.compile_record Snapdiff_workload.Workload.schema
        (Snapdiff_workload.Workload.restrict_fraction 0.25)
    in
    (base, restrict)
  in
  let base_d, restrict = prepared_refresh Snapdiff_core.Base_table.Deferred in
  let sink = ref 0 in
  let xmit m = if Snapdiff_core.Refresh_msg.is_data m then incr sink in
  let snaptime () =
    Snapdiff_txn.Clock.now (Snapdiff_core.Base_table.clock base_d)
  in
  let t_diff =
    Test.make ~name:"fig8 differential refresh scan (quiescent, unpruned)"
      (Staged.stage (fun () ->
           ignore
             (Snapdiff_core.Differential.refresh ~base:base_d ~snaptime:(snaptime ())
                ~restrict ~xmit ()
               : Snapdiff_core.Differential.report)))
  in
  let prune_cache = Snapdiff_core.Differential.Prune_cache.create () in
  (* One warm refresh records the page summaries and the qualification
     cache; the bench then measures the steady quiescent state. *)
  ignore
    (Snapdiff_core.Differential.refresh ~prune:prune_cache ~base:base_d
       ~snaptime:(snaptime ()) ~restrict ~xmit ()
      : Snapdiff_core.Differential.report);
  let t_pruned =
    Test.make ~name:"prune differential refresh scan (quiescent, pruned)"
      (Staged.stage (fun () ->
           ignore
             (Snapdiff_core.Differential.refresh ~prune:prune_cache ~base:base_d
                ~snaptime:(snaptime ()) ~restrict ~xmit ()
               : Snapdiff_core.Differential.report)))
  in
  let t_full =
    Test.make ~name:"fig8 full refresh scan"
      (Staged.stage (fun () ->
           ignore
             (Snapdiff_core.Differential.refresh_full ~base:base_d ~restrict ~xmit ()
               : Snapdiff_core.Differential.report)))
  in
  let t_fixup =
    Test.make ~name:"fig7 standalone fix-up pass (clean)"
      (Staged.stage (fun () ->
           ignore
             (Snapdiff_core.Fixup.run base_d
                ~fixup_time:
                  (Snapdiff_txn.Clock.tick (Snapdiff_core.Base_table.clock base_d))
               : Snapdiff_core.Fixup.stats)))
  in
  let mk_insert_bench name mode =
    let clock = Snapdiff_txn.Clock.create () in
    let base = Snapdiff_workload.Workload.make_base ~mode ~clock () in
    let rng = Snapdiff_util.Rng.create 5 in
    Snapdiff_workload.Workload.populate base ~rng ~n:1_000;
    let i = ref 0 in
    Test.make ~name
      (Staged.stage (fun () ->
           incr i;
           let row =
             Snapdiff_storage.Tuple.make
               [ Snapdiff_storage.Value.int !i; Snapdiff_storage.Value.str "bench";
                 Snapdiff_storage.Value.int (!i mod 100_000);
                 Snapdiff_storage.Value.int 0 ]
           in
           ignore (Snapdiff_core.Base_table.insert base row : Snapdiff_storage.Addr.t)))
  in
  let t_ins_deferred =
    mk_insert_bench "maint base insert, deferred mode" Snapdiff_core.Base_table.Deferred
  in
  let t_ins_eager =
    mk_insert_bench "maint base insert, eager mode" Snapdiff_core.Base_table.Eager
  in
  let tests =
    Test.make_grouped ~name:"snapdiff"
      [ t_diff; t_pruned; t_full; t_fixup; t_ins_deferred; t_ins_eager ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second (if quick then 0.25 else 1.0)) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let t =
    Text_table.create
      [ ("benchmark", Text_table.Left); ("time/run", Text_table.Right);
        ("r^2", Text_table.Right) ]
  in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> Float.nan
      in
      let pretty =
        if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
        else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
        else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
        else Printf.sprintf "%.0f ns" est
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.3f" r
        | None -> "-"
      in
      Text_table.add_row t [ name; pretty; r2 ])
    rows;
  Text_table.print t;
  ignore !sink

(* ------------------------------------------------------------------ *)
(* Fleet scheduler: many snapshots under staleness SLOs.  Virtual time
   makes the schedule deterministic; the throughput column is the real
   wall-clock cost of running the scheduler plus the refreshes it
   dispatches. *)

let fleet_bench () =
  let module Manager = Snapdiff_core.Manager in
  let module Fleet = Snapdiff_fleet.Fleet in
  let module W = Snapdiff_workload.Workload in
  let module Rng = Snapdiff_util.Rng in
  header "Fleet scheduler - staleness SLOs at 1k-10k snapshots";
  let snaps_per = 4 in
  let sizes = if quick then [ 200 ] else [ 1_000; 4_000; 10_000 ] in
  let dt = Fleet.default_config.Fleet.lookahead_us in
  let t =
    Text_table.create
      [ ("snapshots", Text_table.Right); ("phase", Text_table.Left);
        ("refreshes", Text_table.Right); ("refreshes/s", Text_table.Right);
        ("miss rate", Text_table.Right); ("grouped", Text_table.Right);
        ("deferred", Text_table.Right); ("full/diff/log", Text_table.Left) ]
  in
  List.iter
    (fun fleet_size ->
      let tenants = max 1 (fleet_size / snaps_per) in
      let rng = Rng.create 29 in
      let m = Manager.create () in
      (* Throughput run: admission is not the variable under test, so give
         the scheduler headroom and let cost dominate. *)
      let cfg = { Fleet.default_config with Fleet.capacity = fleet_size } in
      let f = Fleet.create ~config:cfg m in
      let pop = W.make_tenants ~rng ~tenants ~min_size:64 ~max_size:512 () in
      Array.iter
        (fun tn ->
          let base_name = Printf.sprintf "t%d" tn.W.tenant_id in
          let base =
            W.make_base ~wal:(Snapdiff_wal.Wal.create ()) ~name:base_name
              ~clock:(Snapdiff_txn.Clock.create ()) ()
          in
          W.populate base ~rng ~n:tn.W.tenant_size;
          Manager.register_base m base;
          for i = 0 to snaps_per - 1 do
            let name = Printf.sprintf "%s_s%d" base_name i in
            ignore
              (Manager.create_snapshot m ~name ~base:base_name
                 ~restrict:(W.restrict_fraction (0.1 +. Rng.float rng 0.8)) ()
                : Manager.refresh_report);
            (* Log-uniform staleness budgets over a decade: 2..20 ticks. *)
            let slo_ticks = 2.0 *. Float.pow 10.0 (Rng.float rng 1.0) in
            Fleet.register f ~name ~slo_us:(slo_ticks *. dt)
          done)
        pop;
      let phase_ticks = if quick then 10 else 25 in
      let tick_of = ref 0 in
      let run_phase label ~load =
        let st0 = Fleet.stats f in
        let wall = ref 0.0 in
        for _ = 1 to phase_ticks do
          incr tick_of;
          if load then
            Array.iter
              (fun tn ->
                let base = Manager.base m (Printf.sprintf "t%d" tn.W.tenant_id) in
                let ops = W.arrivals rng tn ~dt_s:(dt /. 1e6) in
                if ops > 0 && Snapdiff_core.Base_table.count base > 0 then
                  ignore
                    (W.mutate_zipf base ~rng ~ops ~theta:tn.W.tenant_theta
                       ~mix:W.churn
                      : int))
              pop;
          let t0 = Unix.gettimeofday () in
          ignore (Fleet.tick f ~now_us:(float_of_int !tick_of *. dt) : Fleet.tick_report);
          wall := !wall +. (Unix.gettimeofday () -. t0)
        done;
        let st1 = Fleet.stats f in
        let refreshes = st1.Fleet.st_refreshes - st0.Fleet.st_refreshes in
        let misses = st1.Fleet.st_slo_misses - st0.Fleet.st_slo_misses in
        let miss_rate =
          if refreshes = 0 then 0.0 else float_of_int misses /. float_of_int refreshes
        in
        let rps = float_of_int refreshes /. Float.max 1e-9 !wall in
        Text_table.add_row t
          [ string_of_int fleet_size; label; string_of_int refreshes;
            Printf.sprintf "%.0f" rps; Printf.sprintf "%.4f" miss_rate;
            string_of_int (st1.Fleet.st_grouped - st0.Fleet.st_grouped);
            string_of_int (st1.Fleet.st_deferred - st0.Fleet.st_deferred);
            Printf.sprintf "%d/%d/%d"
              (st1.Fleet.st_full - st0.Fleet.st_full)
              (st1.Fleet.st_differential - st0.Fleet.st_differential)
              (st1.Fleet.st_log_based - st0.Fleet.st_log_based) ];
        emit
          ~params:
            [ ("experiment", "fleet_sweep"); ("snapshots", string_of_int fleet_size);
              ("tenants", string_of_int tenants); ("phase", label);
              ("ticks", string_of_int phase_ticks);
              ("refreshes", string_of_int refreshes);
              ("refreshes_per_sec", Printf.sprintf "%.0f" rps);
              ("slo_misses", string_of_int misses);
              ("miss_rate", Printf.sprintf "%.6f" miss_rate);
              ("grouped", string_of_int (st1.Fleet.st_grouped - st0.Fleet.st_grouped));
              ("deferred", string_of_int (st1.Fleet.st_deferred - st0.Fleet.st_deferred));
              ("shed_full", string_of_int (st1.Fleet.st_shed_full - st0.Fleet.st_shed_full));
              ("full", string_of_int (st1.Fleet.st_full - st0.Fleet.st_full));
              ("differential",
               string_of_int (st1.Fleet.st_differential - st0.Fleet.st_differential));
              ("log_based", string_of_int (st1.Fleet.st_log_based - st0.Fleet.st_log_based));
              ("wall_ms", Printf.sprintf "%.1f" (!wall *. 1e3)) ]
          ();
        (refreshes, misses)
      in
      let _, q_misses = run_phase "quiescent" ~load:false in
      (* The SLO contract at quiescent load is absolute: every refresh
         lands inside its budget, so the miss count must be exactly 0. *)
      if q_misses > 0 then
        violations :=
          Printf.sprintf "fleet: %d SLO misses at quiescent load (%d snapshots)"
            q_misses fleet_size
          :: !violations;
      let l_refreshes, _ = run_phase "bursty load" ~load:true in
      if l_refreshes = 0 then
        violations :=
          Printf.sprintf "fleet: no refreshes under load (%d snapshots)" fleet_size
          :: !violations)
    sizes;
  Text_table.print t;
  print_endline
    "(virtual-time schedule: the miss-rate column is the scheduler's SLO\n\
    \ bookkeeping, the refreshes/s column the real wall-clock cost of the\n\
    \ dispatched refreshes; 'grouped' counts refreshes served by a scan\n\
    \ shared with due siblings)"

(* ------------------------------------------------------------------ *)
(* Buffer-pool miss cost *)

(* Wall time of one [with_page] that misses, against one that hits.  A
   cyclic sweep over twice as many 4 KiB in-memory pages as the pool has
   frames makes every access an LRU miss; the "dirty" sweep marks each
   page dirty, so every victim also pays a whole-page writeback.  Each
   cell is the median of [reps] timed sweeps after one warm-up sweep. *)
let pool_bench () =
  let module Bp = Snapdiff_storage.Buffer_pool in
  let module Ps = Snapdiff_storage.Page_store in
  header "Buffer-pool miss cost (4 KiB in-memory pages, LRU, median of sweeps)";
  let reps = if quick then 3 else 9 in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let tbl =
    Text_table.create
      [ ("frames", Text_table.Right); ("hit us", Text_table.Right);
        ("clean miss us", Text_table.Right); ("dirty miss us", Text_table.Right);
        ("major words/miss", Text_table.Right) ]
  in
  List.iter
    (fun frames ->
      let store = Ps.in_memory ~page_size:4096 () in
      let pool = Bp.create ~frames store in
      let npages = 2 * frames in
      for _ = 1 to npages do
        ignore (Bp.allocate_page pool : int)
      done;
      let accesses = max 20_000 (4 * npages) in
      let sweep status =
        let t0 = Unix.gettimeofday () in
        for i = 0 to accesses - 1 do
          Bp.with_page pool (i mod npages) (fun _ -> (status, ()))
        done;
        (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int accesses
      in
      let miss_cost status =
        ignore (sweep status : float);
        median (List.init reps (fun _ -> sweep status))
      in
      let clean = miss_cost `Clean in
      let dirty = miss_cost `Dirty in
      let _, _, major0 = Gc.counters () in
      let m0 = (Bp.stats pool).Bp.misses in
      ignore (sweep `Clean : float);
      let _, _, major1 = Gc.counters () in
      let words_per_miss =
        (major1 -. major0) /. float_of_int ((Bp.stats pool).Bp.misses - m0)
      in
      let hit =
        median
          (List.init reps (fun _ ->
               let t0 = Unix.gettimeofday () in
               for _ = 1 to accesses do
                 Bp.with_page pool 0 (fun _ -> (`Clean, ()))
               done;
               (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int accesses))
      in
      emit
        ~params:
          [ ("frames", string_of_int frames); ("hit_us", Printf.sprintf "%.3f" hit);
            ("clean_miss_us", Printf.sprintf "%.3f" clean);
            ("dirty_miss_us", Printf.sprintf "%.3f" dirty);
            ("major_words_per_miss", Printf.sprintf "%.1f" words_per_miss) ]
        ();
      Text_table.add_row tbl
        [ string_of_int frames; Printf.sprintf "%.3f" hit; Printf.sprintf "%.2f" clean;
          Printf.sprintf "%.2f" dirty; Printf.sprintf "%.1f" words_per_miss ])
    [ 8; 128; 512; 1024 ];
  Text_table.print tbl

(* ------------------------------------------------------------------ *)
(* The section table: the single source of truth for the usage text,
   the default run list, and dispatch. *)

let sections : (string * string * (unit -> unit)) list =
  [ ("fig8", "Figure 8  - % of tuples sent vs update activity, q = 100/50/25%", fig8);
    ("fig9", "Figure 9  - same for restrictive snapshots (q = 5/1%), log scale", fig9);
    ("churn", "ablation  - insert/delete/qual-flip mixes", churn);
    ("maint", "ablation  - eager vs deferred annotation maintenance", maint);
    ("asap", "ablation  - ASAP propagation vs periodic differential refresh", asap);
    ("logscan", "ablation  - log-based refresh culling cost", logscan);
    ("tail", "ablation  - unconditional tail vs high-water suppression", tail);
    ("skew", "ablation  - zipf-skewed update addresses", skew);
    ("amort", "ablation  - multi-snapshot amortization of maintenance", amort);
    ("cascade", "ablation  - cascaded vs independent snapshots", cascade);
    ("prune", "ablation  - page-summary scan pruning (decode cost vs change volume)",
     prune);
    ("wire", "ablation  - simulated link transfer time + batched transport", wire);
    ("stepwise", "ablation  - the paper's stepwise algorithm generations", stepwise);
    ("faults", "ablation  - fault-injecting links: retry tax and atomicity", faults);
    ("fleet", "fleet scheduler - 1k-10k snapshots under staleness SLOs", fleet_bench);
    ("pool", "buffer pool - wall time of a hit vs a clean / dirty-victim miss", pool_bench);
    ("timing", "Bechamel wall-clock benches (one per figure/experiment)", timing) ]

let usage () =
  print_endline
    "Usage: dune exec bench/main.exe -- [section ...] [--quick] [--json] [--trace FILE]";
  print_newline ();
  print_endline "Sections (default: all, in this order):";
  List.iter (fun (name, desc, _) -> Printf.printf "  %-9s %s\n" name desc) sections;
  print_newline ();
  print_endline "  --quick           shrink the base tables for a fast smoke run";
  print_endline "  --json            also write every table row to the JSON log";
  print_endline "  --json-file FILE  JSON log path (default: BENCH_refresh.json)";
  print_endline "  --trace FILE      stream engine spans/events to FILE as JSON lines";
  print_endline "  --help            print this text"

let run_section (name, _desc, fn) =
  current_section := name;
  let t0 = Unix.gettimeofday () in
  last_stamp := t0;
  fn ();
  last_stamp := t0;  (* the total row spans the whole section *)
  emit ~params:[ ("kind", "section-total") ] ()

let () =
  if want_help then (usage (); exit 0);
  (match trace_path with Some path -> Trace.enable (Trace.Jsonl path) | None -> ());
  let args =
    (* Flags and --trace's FILE operand are not section names. *)
    let rec strip = function
      | "--trace" :: _ :: tl -> strip tl
      | "--json-file" :: _ :: tl -> strip tl
      | a :: tl when String.length a > 0 && a.[0] = '-' -> strip tl
      | a :: tl -> a :: strip tl
      | [] -> []
    in
    strip (List.tl (Array.to_list Sys.argv))
  in
  let known name = List.exists (fun (n, _, _) -> n = name) sections in
  List.iter
    (fun name ->
      if not (known name) then begin
        Printf.eprintf "unknown section %S\n\n" name;
        usage ();
        exit 2
      end)
    args;
  let requested = if args = [] then List.map (fun (n, _, _) -> n) sections else args in
  Printf.printf "snapdiff benchmark harness%s\n" (if quick then " (--quick)" else "");
  List.iter
    (fun ((name, _, _) as s) -> if List.mem name requested then run_section s)
    sections;
  if json_mode then write_json json_path;
  Trace.flush ();
  if !violations <> [] then begin
    List.iter (Printf.eprintf "INVARIANT VIOLATED: %s\n") (List.rev !violations);
    exit 1
  end
