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

(* Set when a section detects an invariant violation (the group section's
   monotonic check); the process then exits nonzero so CI fails. *)
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
        ("forwarded to children", Text_table.Right);
        ("independent children msgs", Text_table.Right) ]
  in
  List.iter
    (fun r ->
      Text_table.add_row t
        [ string_of_int r.Figures.fanout; string_of_int r.Figures.parent_msgs;
          string_of_int r.Figures.cascade_msgs_total;
          string_of_int r.Figures.independent_msgs_total ])
    (Figures.cascade_ablation ~n:n_ablation ());
  Text_table.print t;
  print_endline
    "(cascaded children ride the parent's single base-table scan; independent\n\
    \ children each rescan the base and each resend shared entries)"

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
      [ ("page B", Text_table.Right); ("updated %", Text_table.Right);
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
            ("u_pct", Printf.sprintf "%.2f" r.Figures.prune_u_pct);
            ("n", string_of_int r.Figures.prune_n);
            ("pages", string_of_int r.Figures.prune_pages);
            ("entries_skipped", string_of_int r.Figures.pruned_skipped);
            ("unpruned_msgs", string_of_int r.Figures.unpruned_msgs);
            ("identical", string_of_bool r.Figures.prune_identical) ]
        ~entries_scanned:r.Figures.pruned_scanned ~messages:r.Figures.pruned_msgs ();
      Text_table.add_row t
        [ string_of_int r.Figures.prune_page_size;
          Text_table.cell_float ~decimals:2 r.Figures.prune_u_pct;
          string_of_int r.Figures.prune_pages;
          string_of_int r.Figures.pruned_scanned;
          string_of_int r.Figures.pruned_skipped;
          Text_table.cell_float ~decimals:1 decoded_pct;
          string_of_int r.Figures.pruned_msgs;
          string_of_int r.Figures.unpruned_msgs;
          (if r.Figures.prune_identical then "yes" else "NO") ])
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
(* Group refresh: one physical scan demultiplexed into N snapshot
   streams, against N solo scans over a twin universe.  Both universes
   are seeded identically, so the solo column is a true baseline, not a
   model.  The monotonic check — group decodes never exceed the solo
   sum — is an invariant, and a violation fails the run. *)

let group () =
  header "Group refresh: one base-table scan amortized across N snapshots";
  let module D = Snapdiff_core.Differential in
  let module Snapshot_table = Snapdiff_core.Snapshot_table in
  let module W = Snapdiff_workload.Workload in
  let n = if quick then 2_000 else 10_000 in
  let fractions = [| 0.1; 0.25; 0.5; 0.75; 0.15; 0.35; 0.6; 0.9 |] in
  (* One universe: a populated base plus [nsubs] subscribers, each with
     its own snapshot, restriction, and prune cache.  Fully seeded, so
     two calls build twins. *)
  let build nsubs =
    let clock = Snapdiff_txn.Clock.create () in
    let base = W.make_base ~page_size:512 ~clock () in
    let rng = Snapdiff_util.Rng.create 42 in
    W.populate base ~rng ~n;
    let snaps =
      Array.init nsubs (fun i ->
          ( Snapshot_table.create ~name:(Printf.sprintf "g%d" i) ~schema:W.schema (),
            Snapdiff_expr.Eval.compile_record W.schema
              (W.restrict_fraction fractions.(i mod Array.length fractions)),
            D.Prune_cache.create () ))
    in
    (base, rng, snaps)
  in
  let refresh_group base snaps =
    let outs = Array.map (fun _ -> ref []) snaps in
    let gsubs =
      Array.mapi
        (fun i (snap, restrict, cache) ->
          { D.sub_snaptime = Snapshot_table.snaptime snap;
            sub_restrict = restrict; sub_project = None;
            sub_tail_suppression = None; sub_prune = Some cache;
            sub_xmit = (fun m -> outs.(i) := m :: !(outs.(i))) })
        snaps
    in
    let g = D.refresh_group ~base gsubs in
    Array.iteri
      (fun i (snap, _, _) ->
        List.iter (Snapshot_table.apply snap) (List.rev !(outs.(i))))
      snaps;
    g
  in
  let refresh_solo base (snap, restrict, cache) =
    let out = ref [] in
    let r =
      D.refresh ~prune:cache ~base ~snaptime:(Snapshot_table.snaptime snap)
        ~restrict
        ~xmit:(fun m -> out := m :: !out) ()
    in
    List.iter (Snapshot_table.apply snap) (List.rev !out);
    r
  in
  let t =
    Text_table.create
      [ ("workload", Text_table.Left); ("N", Text_table.Right);
        ("pages", Text_table.Right); ("group decoded", Text_table.Right);
        ("solo decoded (sum)", Text_table.Right); ("saved", Text_table.Right);
        ("vs N=1", Text_table.Right); ("group us", Text_table.Right);
        ("solo us", Text_table.Right) ]
  in
  let baseline1 = Hashtbl.create 4 in
  List.iter
    (fun (wname, u) ->
      List.iter
        (fun nsubs ->
          (* Group universe: warm every cache with a cold group refresh,
             churn, then measure the steady-state group scan. *)
          let base_g, rng_g, snaps_g = build nsubs in
          ignore (refresh_group base_g snaps_g : D.group_report);
          if u > 0.0 then
            ignore
              (W.update_fraction base_g ~rng:rng_g ~u ~mix:W.payload_updates_only
                : int);
          let t0 = Unix.gettimeofday () in
          let g = refresh_group base_g snaps_g in
          let group_us = (Unix.gettimeofday () -. t0) *. 1e6 in
          (* Solo twin: identical construction and churn (same seeds, same
             draw history); N sequential solo refreshes over it.  Warm the
             same way -- a solo refresh is a group of one, so cache and
             clock state match the group universe exactly. *)
          let base_s, rng_s, snaps_s = build nsubs in
          Array.iter (fun s -> ignore (refresh_solo base_s s : D.report)) snaps_s;
          if u > 0.0 then
            ignore
              (W.update_fraction base_s ~rng:rng_s ~u ~mix:W.payload_updates_only
                : int);
          let t1 = Unix.gettimeofday () in
          let solo_decoded =
            Array.fold_left
              (fun acc s -> acc + (refresh_solo base_s s).D.pages_decoded)
              0 snaps_s
          in
          let solo_us = (Unix.gettimeofday () -. t1) *. 1e6 in
          if nsubs = 1 then
            Hashtbl.replace baseline1 wname g.D.group_pages_decoded;
          let base1 = try Hashtbl.find baseline1 wname with Not_found -> 0 in
          let ratio =
            float_of_int g.D.group_pages_decoded /. float_of_int (max 1 base1)
          in
          let monotonic = g.D.group_pages_decoded <= solo_decoded in
          if not monotonic then
            violations :=
              Printf.sprintf
                "group %s N=%d decoded %d pages > solo sum %d" wname nsubs
                g.D.group_pages_decoded solo_decoded
              :: !violations;
          let msgs =
            Array.fold_left (fun a r -> a + r.D.data_messages) 0 g.D.sub_reports
          in
          let scanned =
            Array.fold_left (fun a r -> a + r.D.entries_scanned) 0 g.D.sub_reports
          in
          emit
            ~params:
              [ ("workload", wname); ("subs", string_of_int nsubs);
                ("pages", string_of_int g.D.group_pages);
                ("group_decoded", string_of_int g.D.group_pages_decoded);
                ("solo_decoded", string_of_int solo_decoded);
                ("decodes_saved", string_of_int g.D.group_decodes_saved);
                ("ratio_vs_n1", Printf.sprintf "%.3f" ratio);
                ("monotonic", if monotonic then "ok" else "VIOLATED");
                ("group_us", Printf.sprintf "%.1f" group_us);
                ("solo_us", Printf.sprintf "%.1f" solo_us) ]
            ~entries_scanned:scanned ~messages:msgs ();
          Text_table.add_row t
            [ wname; string_of_int nsubs; string_of_int g.D.group_pages;
              string_of_int g.D.group_pages_decoded;
              string_of_int solo_decoded;
              string_of_int g.D.group_decodes_saved;
              Printf.sprintf "%.2fx" ratio;
              Printf.sprintf "%.0f" group_us; Printf.sprintf "%.0f" solo_us ])
        [ 1; 2; 4; 8 ])
    [ ("quiescent", 0.0); ("churn 1%", 0.01) ];
  Text_table.print t;
  print_endline
    "(a page is decoded at most once per group scan, iff any subscriber's\n\
    \ summary/cache conditions require it; each subscriber's stream is\n\
    \ byte-identical to its solo refresh.  'vs N=1' is the headline: the\n\
    \ group's physical decodes against a single-snapshot scan of the same\n\
    \ workload -- the acceptance bar is <= 1.25x at N=8)";
  (* Eviction policy under a group scan: a pool far smaller than the
     table, both policies fed the identical scan. *)
  let pt =
    Text_table.create
      [ ("policy", Text_table.Left); ("hits", Text_table.Right);
        ("misses", Text_table.Right); ("evictions", Text_table.Right);
        ("hit rate", Text_table.Right); ("group decoded", Text_table.Right) ]
  in
  List.iter
    (fun (pname, policy) ->
      let store = Snapdiff_storage.Page_store.in_memory ~page_size:512 () in
      let pool = Snapdiff_storage.Buffer_pool.create ~frames:8 ~policy store in
      let clock = Snapdiff_txn.Clock.create () in
      let base =
        Snapdiff_core.Base_table.on_pool ~name:"grp_pool" ~clock pool W.schema
      in
      let rng = Snapdiff_util.Rng.create 42 in
      W.populate base ~rng ~n:(n / 2);
      let snaps =
        Array.init 4 (fun i ->
            ( Snapshot_table.create ~name:(Printf.sprintf "p%d" i) ~schema:W.schema (),
              Snapdiff_expr.Eval.compile_record W.schema
                (W.restrict_fraction fractions.(i)),
              D.Prune_cache.create () ))
      in
      ignore (refresh_group base snaps : D.group_report);
      ignore
        (W.update_fraction base ~rng ~u:0.01 ~mix:W.payload_updates_only : int);
      let before = Snapdiff_storage.Buffer_pool.stats pool in
      let g = refresh_group base snaps in
      let after = Snapdiff_storage.Buffer_pool.stats pool in
      let hits = after.Snapdiff_storage.Buffer_pool.hits - before.Snapdiff_storage.Buffer_pool.hits in
      let misses = after.Snapdiff_storage.Buffer_pool.misses - before.Snapdiff_storage.Buffer_pool.misses in
      let evictions =
        after.Snapdiff_storage.Buffer_pool.evictions
        - before.Snapdiff_storage.Buffer_pool.evictions
      in
      let rate =
        100.0 *. float_of_int hits /. float_of_int (max 1 (hits + misses))
      in
      emit
        ~params:
          [ ("policy", pname); ("hits", string_of_int hits);
            ("misses", string_of_int misses);
            ("evictions", string_of_int evictions);
            ("hit_rate_pct", Printf.sprintf "%.1f" rate);
            ("group_decoded", string_of_int g.D.group_pages_decoded) ]
        ();
      Text_table.add_row pt
        [ pname; string_of_int hits; string_of_int misses;
          string_of_int evictions; Printf.sprintf "%.1f%%" rate;
          string_of_int g.D.group_pages_decoded ])
    [ ("lru", Snapdiff_storage.Buffer_pool.Lru);
      ("second-chance", Snapdiff_storage.Buffer_pool.Second_chance) ];
  Text_table.print pt;
  print_endline
    "(the refresh stream is policy-independent -- the parity test pins the\n\
    \ bytes; the pool stats show what each policy pays for one group scan)"

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
             (Snapdiff_core.Full_refresh.refresh ~base:base_d ~restrict
                ~xmit ()
               : Snapdiff_core.Full_refresh.report)))
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
(* Observability overhead: the same quiescent differential refresh, timed
   with tracing disabled and with a Memory-sink trace enabled.  The
   disabled cost is what every production run pays for the instrumentation
   hooks; the issue's acceptance bar is a <5% regression. *)

let obs () =
  header "Observability: tracing overhead on a quiescent differential refresh";
  let module Manager = Snapdiff_core.Manager in
  let module Workload = Snapdiff_workload.Workload in
  let n = if quick then 1_000 else 5_000 in
  let clock = Snapdiff_txn.Clock.create () in
  let base = Workload.make_base ~clock () in
  let rng = Snapdiff_util.Rng.create 11 in
  Workload.populate base ~rng ~n;
  let m = Manager.create () in
  Manager.register_base m base;
  ignore
    (Manager.create_snapshot m ~name:"obs_bench"
       ~base:(Snapdiff_core.Base_table.name base)
       ~restrict:(Workload.restrict_fraction 0.25) ~method_:Manager.Differential ()
      : Manager.refresh_report);
  let reps = if quick then 20 else 50 in
  let time_runs () =
    ignore (Manager.refresh m "obs_bench" : Manager.refresh_report);
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Manager.refresh m "obs_bench" : Manager.refresh_report)
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e6
  in
  Trace.pause ();
  let off_us = time_runs () in
  let sink_name, on_us, records =
    if trace_path <> None then begin
      (* Measure against the sink the user actually asked for. *)
      Trace.resume ();
      let before = Trace.record_count () + Trace.dropped () in
      let on_us = time_runs () in
      ("jsonl sink", on_us, Trace.record_count () + Trace.dropped () - before)
    end
    else begin
      Trace.enable Trace.Memory;
      let on_us = time_runs () in
      let records = Trace.record_count () + Trace.dropped () in
      Trace.disable ();
      ("memory sink", on_us, records)
    end
  in
  let overhead_pct = 100.0 *. (on_us -. off_us) /. off_us in
  let t =
    Text_table.create
      [ ("tracing", Text_table.Left); ("refresh time", Text_table.Right);
        ("records/refresh", Text_table.Right); ("overhead", Text_table.Right) ]
  in
  Text_table.add_row t
    [ "disabled"; Printf.sprintf "%.1f us" off_us; "0"; "baseline" ];
  Text_table.add_row t
    [ sink_name; Printf.sprintf "%.1f us" on_us;
      Printf.sprintf "%.1f" (float_of_int records /. float_of_int (reps + 1));
      Printf.sprintf "%+.1f%%" overhead_pct ];
  Text_table.print t;
  emit
    ~params:
      [ ("n", string_of_int n); ("reps", string_of_int reps);
        ("off_us", Printf.sprintf "%.1f" off_us);
        ("on_us", Printf.sprintf "%.1f" on_us);
        ("overhead_pct", Printf.sprintf "%.1f" overhead_pct) ]
    ~entries_scanned:n ();
  print_endline
    "(disabled tracing leaves only a branch per span and always-on counters;\n\
    \ the memory sink adds one ring write per span/event)"

(* ------------------------------------------------------------------ *)
(* Chunked concurrent refresh: updater stall under the monolithic
   whole-scan table lock vs the chunked lock-coupled protocol.

   The simulation is cooperative, so the comparison is driven by one
   arrival schedule used for both runs: updater arrival offsets are
   pre-drawn as fractions of the *monolithic* refresh duration.  Under
   the monolithic lock an updater arriving mid-refresh blocks until the
   table lock releases at the end, so its stall is (duration − arrival)
   — measured, not modeled, since the refresh wall time is measured.
   Under the chunked protocol the same updaters execute at the chunk
   boundaries with real Table-IX/Page-IX/Entry-X lock acquisitions
   against the manager's lock table (an updater aimed at a page the
   coupled cursor still holds is refused and retries at the next
   boundary), so its stall is the measured wait to the boundary that
   admitted it.  The acceptance bar: chunked p95 stall < monolithic p95
   always (CI smoke), and a >= 5x reduction at full size. *)

let concurrency () =
  header "Concurrency: updater stall p95, monolithic lock vs chunked protocol";
  let module Manager = Snapdiff_core.Manager in
  let module Base_table = Snapdiff_core.Base_table in
  let module Snapshot_table = Snapdiff_core.Snapshot_table in
  let module W = Snapdiff_workload.Workload in
  let module Txn = Snapdiff_txn.Txn in
  let module Lock = Snapdiff_txn.Lock in
  let module Addr = Snapdiff_storage.Addr in
  let module Tuple = Snapdiff_storage.Tuple in
  let module Value = Snapdiff_storage.Value in
  let n = if quick then 4_000 else 20_000 in
  let updaters = 64 in
  let chunk_entries = 512 in
  (* Deterministic, well-spread arrival fractions in [0, 1). *)
  let arrival_fraction i = float_of_int (i * 61 mod 97) /. 97.0 in
  let build () =
    let clock = Snapdiff_txn.Clock.create () in
    let wal = Snapdiff_wal.Wal.create () in
    let base = W.make_base ~wal ~page_size:512 ~clock () in
    let rng = Snapdiff_util.Rng.create 7 in
    W.populate base ~rng ~n;
    let m = Manager.create () in
    Manager.register_base m base;
    ignore
      (Manager.create_snapshot m ~name:"c" ~base:(Base_table.name base)
         ~restrict:(W.restrict_fraction 0.25) ~method_:Manager.Differential ()
        : Manager.refresh_report);
    (* Churn between refreshes so the measured scan has real work. *)
    ignore (W.update_fraction base ~rng ~u:0.05 ~mix:W.payload_updates_only : int);
    (* Pre-drawn updater targets: live addresses, payload-only bumps. *)
    let live = Array.of_list (Base_table.to_user_list base) in
    let targets =
      Array.init updaters (fun i ->
          let addr, t = live.((i * 4099) mod Array.length live) in
          let bumped =
            Tuple.make
              [ Tuple.get t 0; Tuple.get t 1; Tuple.get t 2; Value.int (1000 + i) ]
          in
          (addr, bumped))
    in
    (m, base, targets)
  in
  (* One updater transaction under the locking convention, against the
     manager's own lock table; returns false if the scan holds the page. *)
  let locked_update m base ~addr tuple =
    let txn = Txn.begin_txn (Manager.txn_manager m) in
    let granted res mode =
      match Txn.try_lock txn res mode with `Granted -> true | _ -> false
    in
    let ok =
      granted (Base_table.lock_resource base) Lock.IX
      && granted (Base_table.page_lock_resource base (Addr.page addr)) Lock.IX
      && granted (Lock.Entry (Base_table.name base, addr)) Lock.X
    in
    if ok then Base_table.update base addr tuple;
    ignore ((if ok then Txn.commit txn else Txn.abort txn) : int list);
    ok
  in
  let percentile p stalls =
    let s = Array.copy stalls in
    Array.sort compare s;
    s.(int_of_float (p *. float_of_int (Array.length s - 1)))
  in
  (* Monolithic run: the refresh holds the table lock end to end, so
     every mid-refresh arrival is granted at the end. *)
  let m1, base1, targets1 = build () in
  let t0 = Unix.gettimeofday () in
  let r_mono = Manager.refresh m1 "c" in
  let mono_dur_us = (Unix.gettimeofday () -. t0) *. 1e6 in
  let mono_stalls =
    Array.init updaters (fun i -> mono_dur_us *. (1.0 -. arrival_fraction i))
  in
  Array.iteri
    (fun i (addr, tuple) ->
      if not (locked_update m1 base1 ~addr tuple) then
        violations :=
          Printf.sprintf "concurrency: post-refresh updater %d blocked" i
          :: !violations)
    targets1;
  (* Chunked run: same arrival offsets (absolute, against the monolithic
     duration), executed at the chunk-boundary yield points. *)
  let m2, base2, targets2 = build () in
  Manager.set_chunk_entries m2 chunk_entries;
  let pending = ref (List.init updaters (fun i -> i)) in
  let chunked_stalls = Array.make updaters 0.0 in
  let boundaries = ref 0 in
  let retries = ref 0 in
  let start = ref 0.0 in
  let drain ~now =
    pending :=
      List.filter
        (fun i ->
          let a = arrival_fraction i *. mono_dur_us in
          if a > now then true
          else begin
            let addr, tuple = targets2.(i) in
            if locked_update m2 base2 ~addr tuple then begin
              chunked_stalls.(i) <- now -. a;
              false
            end
            else begin
              (* The cursor holds this page: stall grows to the next
                 boundary. *)
              incr retries;
              true
            end
          end)
        !pending
  in
  Manager.set_chunk_hook m2
    (Some
       (fun () ->
         incr boundaries;
         drain ~now:((Unix.gettimeofday () -. !start) *. 1e6)));
  start := Unix.gettimeofday ();
  let r_chunked = Manager.refresh m2 "c" in
  let chunked_dur_us = (Unix.gettimeofday () -. !start) *. 1e6 in
  Manager.set_chunk_hook m2 None;
  (* Stragglers: arrivals past the refresh end never contended. *)
  drain ~now:chunked_dur_us;
  List.iter
    (fun i ->
      let addr, tuple = targets2.(i) in
      ignore (locked_update m2 base2 ~addr tuple : bool);
      chunked_stalls.(i) <- 0.0)
    !pending;
  if r_chunked.Manager.chunks <= 1 then
    violations :=
      Printf.sprintf "concurrency: chunked run took %d chunks"
        r_chunked.Manager.chunks
      :: !violations;
  (* The committed image must equal the base restriction at commit: the
     interleaved updates are payload-only on qualifying-or-not rows, and
     the catch-up replays them. *)
  let restrict = Snapdiff_expr.Eval.compile W.schema (W.restrict_fraction 0.25) in
  let expected =
    List.filter (fun (_, u) -> restrict u) (Base_table.to_user_list base2)
  in
  let committed_faithful =
    (* One more quiescent refresh folds the post-commit stragglers in. *)
    ignore (Manager.refresh m2 "c" : Manager.refresh_report);
    Snapshot_table.contents (Manager.snapshot_table m2 "c") = expected
    && Snapshot_table.validate (Manager.snapshot_table m2 "c") = Ok ()
  in
  if not committed_faithful then
    violations :=
      "concurrency: chunked snapshot diverged from the base restriction"
      :: !violations;
  let mono_p95 = percentile 0.95 mono_stalls in
  let chunked_p95 = percentile 0.95 chunked_stalls in
  let reduction = mono_p95 /. Float.max 1e-9 chunked_p95 in
  if chunked_p95 >= mono_p95 then
    violations :=
      Printf.sprintf
        "concurrency: chunked p95 stall %.1fus >= monolithic %.1fus" chunked_p95
        mono_p95
      :: !violations;
  if (not quick) && reduction < 5.0 then
    violations :=
      Printf.sprintf "concurrency: p95 stall reduction %.1fx < 5x" reduction
      :: !violations;
  let t =
    Text_table.create
      [ ("protocol", Text_table.Left); ("chunks", Text_table.Right);
        ("catch-up", Text_table.Right); ("refresh us", Text_table.Right);
        ("max hold us", Text_table.Right); ("stall p50 us", Text_table.Right);
        ("stall p95 us", Text_table.Right); ("stall max us", Text_table.Right) ]
  in
  let row name (r : Manager.refresh_report) dur stalls =
    Text_table.add_row t
      [ name; string_of_int r.Manager.chunks;
        string_of_int r.Manager.catchup_records; Printf.sprintf "%.0f" dur;
        Printf.sprintf "%.1f" r.Manager.max_lock_hold_us;
        Printf.sprintf "%.1f" (percentile 0.5 stalls);
        Printf.sprintf "%.1f" (percentile 0.95 stalls);
        Printf.sprintf "%.1f" (percentile 1.0 stalls) ]
  in
  row "monolithic" r_mono mono_dur_us mono_stalls;
  row (Printf.sprintf "chunked (%d)" chunk_entries) r_chunked chunked_dur_us
    chunked_stalls;
  Text_table.print t;
  emit
    ~params:
      [ ("n", string_of_int n); ("updaters", string_of_int updaters);
        ("chunk_entries", string_of_int chunk_entries);
        ("chunks", string_of_int r_chunked.Manager.chunks);
        ("catchup_records", string_of_int r_chunked.Manager.catchup_records);
        ("boundaries", string_of_int !boundaries);
        ("updater_retries", string_of_int !retries);
        ("mono_refresh_us", Printf.sprintf "%.1f" mono_dur_us);
        ("chunked_refresh_us", Printf.sprintf "%.1f" chunked_dur_us);
        ("mono_stall_p95_us", Printf.sprintf "%.1f" mono_p95);
        ("chunked_stall_p95_us", Printf.sprintf "%.1f" chunked_p95);
        ("stall_reduction", Printf.sprintf "%.1fx" reduction);
        ("max_lock_hold_us", Printf.sprintf "%.1f" r_chunked.Manager.max_lock_hold_us);
        ("faithful", string_of_bool committed_faithful) ]
    ~entries_scanned:r_chunked.Manager.entries_scanned
    ~messages:r_chunked.Manager.data_messages ();
  Printf.printf
    "\nupdater stall p95: monolithic %.1f us -> chunked %.1f us (%.1fx reduction)\n"
    mono_p95 chunked_p95 reduction;
  print_endline
    "(under the monolithic table lock an updater arriving mid-refresh waits\n\
    \ for the whole remaining scan; under the chunked protocol it waits at\n\
    \ most one chunk -- the same arrival schedule drives both runs, and the\n\
    \ chunked updaters take real IX/X locks against the scan's lock table)"

(* ------------------------------------------------------------------ *)
(* Real durability: file-backed WAL group commit, recovery replay time,
   and the asynchronous fuzzy checkpoint. *)

let wal_bench () =
  let module Wal = Snapdiff_wal.Wal in
  let module Recovery = Snapdiff_wal.Recovery in
  let module Manager = Snapdiff_core.Manager in
  let module Base_table = Snapdiff_core.Base_table in
  let module W = Snapdiff_workload.Workload in
  let module Heap = Snapdiff_storage.Heap in
  let module Annotations = Snapdiff_core.Annotations in
  let module Buffer_pool = Snapdiff_storage.Buffer_pool in
  header "WAL durability - group commit, recovery replay, fuzzy checkpoint";
  let with_seg f =
    let path = Filename.temp_file "snapdiff_bench" ".wal" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () -> f path)
  in
  let n = if quick then 500 else 5_000 in
  (* 1. Group-commit window sweep: every user operation is an autocommit
     transaction, so consecutive commits land back-to-back and a window of
     k lets k of them share one fsync. *)
  let t =
    Text_table.create
      [ ("window", Text_table.Right); ("txns", Text_table.Right);
        ("fsyncs", Text_table.Right); ("txns/fsync", Text_table.Right);
        ("txns/sec", Text_table.Right); ("log bytes", Text_table.Right) ]
  in
  let windows = if quick then [ 1; 4; 16 ] else [ 1; 2; 4; 8; 16; 32 ] in
  List.iter
    (fun window ->
      with_seg (fun path ->
          let clock = Snapdiff_txn.Clock.create () in
          let wal = Wal.create ~backend:(Wal.File path) ~group_commit_window:window () in
          let base = W.make_base ~wal ~name:"emp" ~page_size:512 ~clock () in
          let rng = Snapdiff_util.Rng.create 11 in
          let t0 = Unix.gettimeofday () in
          W.populate base ~rng ~n;
          let txns = ref n in
          for _ = 1 to 2 do
            txns := !txns + W.update_fraction base ~rng ~u:0.2 ~mix:W.churn
          done;
          Wal.sync wal;
          let dur = Unix.gettimeofday () -. t0 in
          let fsyncs = Wal.fsyncs wal in
          let per = float_of_int !txns /. float_of_int (max 1 fsyncs) in
          let tps = float_of_int !txns /. dur in
          Text_table.add_row t
            [ string_of_int window; string_of_int !txns; string_of_int fsyncs;
              Printf.sprintf "%.1f" per; Printf.sprintf "%.0f" tps;
              string_of_int (Wal.byte_size wal) ];
          emit
            ~params:
              [ ("experiment", "group_commit"); ("window", string_of_int window);
                ("txns", string_of_int !txns); ("fsyncs", string_of_int fsyncs);
                ("txns_per_fsync", Printf.sprintf "%.2f" per);
                ("txns_per_sec", Printf.sprintf "%.0f" tps) ]
            ~bytes:(Wal.byte_size wal) ();
          if fsyncs = 0 then violations := "wal: no fsyncs recorded" :: !violations;
          if window >= 4 && per < 2.0 then
            violations :=
              Printf.sprintf "wal: window %d batched only %.2f txns/fsync" window per
              :: !violations;
          Wal.close wal))
    windows;
  Text_table.print t;
  print_endline
    "(each committed txn is durable at its group's fsync; a larger window\n\
    \ amortizes the fsync over more commits at the price of a longer\n\
    \ committed-but-unsynced tail lost on crash)";
  (* 2. Recovery time vs retained log length: reopen the segment (torn-tail
     scan + LSN rebuild) and redo into a fresh heap. *)
  let t2 =
    Text_table.create
      [ ("records", Text_table.Right); ("log bytes", Text_table.Right);
        ("open ms", Text_table.Right); ("redo ms", Text_table.Right);
        ("rows", Text_table.Right) ]
  in
  let sizes = if quick then [ 500 ] else [ 1_000; 5_000; 20_000 ] in
  List.iter
    (fun rows ->
      with_seg (fun path ->
          let clock = Snapdiff_txn.Clock.create () in
          let wal = Wal.create ~backend:(Wal.File path) ~group_commit_window:8 () in
          let base = W.make_base ~wal ~name:"emp" ~page_size:512 ~clock () in
          let rng = Snapdiff_util.Rng.create 13 in
          W.populate base ~rng ~n:rows;
          ignore (W.update_fraction base ~rng ~u:0.5 ~mix:W.churn : int);
          Wal.sync wal;
          Wal.close wal;
          let t0 = Unix.gettimeofday () in
          let rlog = Wal.open_file path in
          let t1 = Unix.gettimeofday () in
          let heap = Heap.create ~page_size:512 (Annotations.extend_schema W.schema) in
          Recovery.redo rlog (function "emp" -> Some heap | _ -> None);
          let t2' = Unix.gettimeofday () in
          let open_ms = (t1 -. t0) *. 1e3 and redo_ms = (t2' -. t1) *. 1e3 in
          Text_table.add_row t2
            [ string_of_int (Wal.record_count rlog); string_of_int (Wal.byte_size rlog);
              Printf.sprintf "%.2f" open_ms; Printf.sprintf "%.2f" redo_ms;
              string_of_int (Heap.count heap) ];
          emit
            ~params:
              [ ("experiment", "recovery");
                ("records", string_of_int (Wal.record_count rlog));
                ("open_ms", Printf.sprintf "%.3f" open_ms);
                ("redo_ms", Printf.sprintf "%.3f" redo_ms);
                ("rows", string_of_int (Heap.count heap)) ]
            ~bytes:(Wal.byte_size rlog) ();
          if Heap.count heap = 0 then
            violations := "wal: recovery replayed zero rows" :: !violations;
          Wal.close rlog))
    sizes;
  Text_table.print t2;
  (* 3. The fuzzy checkpoint: flush the pool without blocking updaters,
     then reclaim the log behind the gated floor. *)
  with_seg (fun path ->
      let clock = Snapdiff_txn.Clock.create () in
      let wal = Wal.create ~backend:(Wal.File path) ~group_commit_window:8 () in
      let base = W.make_base ~wal ~name:"emp" ~page_size:512 ~clock () in
      let rng = Snapdiff_util.Rng.create 17 in
      W.populate base ~rng ~n;
      let m = Manager.create () in
      Manager.register_base m base;
      ignore (W.update_fraction base ~rng ~u:0.1 ~mix:W.payload_updates_only : int);
      let log_before = Wal.byte_size wal in
      let t0 = Unix.gettimeofday () in
      let cp = Manager.checkpoint m "emp" in
      let cp_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      let st = Buffer_pool.stats (Base_table.pool base) in
      let gating =
        match cp.Manager.cp_gated with
        | [] -> "none"
        | gs ->
          String.concat ","
            (List.map Snapdiff_lifecycle.Lease.gating_to_string gs)
      in
      Printf.printf
        "\nfuzzy checkpoint: %d dirty pages (%d flushed), %d bytes written\n\
         (%d page bytes avoided by sub-page ranges), %.2f ms;\n\
         log %d -> %d bytes (%d reclaimed, gated by: %s)\n"
        cp.Manager.cp_pages_snapshotted cp.Manager.cp_pages_flushed
        cp.Manager.cp_bytes_written st.Buffer_pool.writeback_bytes_saved cp_ms
        log_before (Wal.byte_size wal) cp.Manager.cp_log_bytes_reclaimed
        gating;
      emit
        ~params:
          [ ("experiment", "checkpoint");
            ("pages_snapshotted", string_of_int cp.Manager.cp_pages_snapshotted);
            ("pages_flushed", string_of_int cp.Manager.cp_pages_flushed);
            ("bytes_written", string_of_int cp.Manager.cp_bytes_written);
            ("bytes_saved", string_of_int st.Buffer_pool.writeback_bytes_saved);
            ("log_bytes_reclaimed", string_of_int cp.Manager.cp_log_bytes_reclaimed);
            ("gated", gating);
            ("checkpoint_ms", Printf.sprintf "%.2f" cp_ms) ]
        ~bytes:cp.Manager.cp_bytes_written ();
      if cp.Manager.cp_pages_flushed = 0 then
        violations := "wal: checkpoint flushed no pages" :: !violations;
      if cp.Manager.cp_log_bytes_reclaimed <= 0 then
        violations := "wal: checkpoint reclaimed no log" :: !violations;
      Wal.close wal)

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
(* MVCC epoch store: reader domains continuously pin and scan versions
   of a snapshot while refresh commits stream over the link.  Every row
   of every committed epoch carries that epoch's round tag, so a scan
   that observes two different tags at one pinned version is a torn
   read — the invariant the version ring exists to forbid.  Zero
   completed reads overlapping a commit window would mean readers were
   blocked by the commit; both violations exit nonzero. *)

let mvcc_bench () =
  let module Manager = Snapdiff_core.Manager in
  let module Snapshot_table = Snapdiff_core.Snapshot_table in
  let module Base_table = Snapdiff_core.Base_table in
  let module VS = Snapdiff_mvcc.Version_store in
  let module Schema = Snapdiff_storage.Schema in
  let module Value = Snapdiff_storage.Value in
  let module Tuple = Snapdiff_storage.Tuple in
  let module Clock = Snapdiff_txn.Clock in
  header "MVCC epoch store - pinned readers vs streaming refresh commits";
  let n = if quick then 2_000 else 20_000 in
  let retain = 4 in
  let rounds = if quick then 4 else 6 in
  let n_readers = 2 in
  let schema =
    Schema.make
      [ Schema.col ~nullable:false "id" Value.Tint;
        Schema.col ~nullable:false "tag" Value.Tint ]
  in
  (* A reader alternates between the latest version and the oldest
     retained epoch, scanning the whole pinned image and checking its
     tags are uniform. *)
  let reader snap stop =
    let reads = ref 0 and torn = ref 0 and intervals = ref [] in
    let k = ref 0 in
    while not (Atomic.get stop) do
      incr k;
      let txn =
        if !k land 1 = 0 then Snapshot_table.read_txn snap
        else
          match List.rev (Snapshot_table.versions snap) with
          | vi :: _ -> Snapshot_table.read_txn ~epoch:vi.VS.vi_epoch snap
          | [] -> Snapshot_table.read_txn snap
      in
      match txn with
      | None -> () (* the oldest epoch was evicted between list and pin *)
      | Some rt ->
        let t0 = Unix.gettimeofday () in
        let lo = ref max_int and hi = ref min_int and rows = ref 0 in
        Snapshot_table.txn_iter rt (fun _ v ->
            (match Tuple.get v 1 with
            | Value.Int x ->
              let x = Int64.to_int x in
              if x < !lo then lo := x;
              if x > !hi then hi := x
            | _ -> incr torn);
            incr rows);
        let t1 = Unix.gettimeofday () in
        Snapshot_table.release_txn rt;
        incr reads;
        if !rows > 0 && !lo <> !hi then incr torn;
        intervals := (t0, t1) :: !intervals
    done;
    (!reads, !torn, !intervals)
  in
  let t =
    Text_table.create
      [ ("u", Text_table.Right); ("commit ms", Text_table.Right);
        ("pages copied", Text_table.Right); ("bytes copied", Text_table.Right);
        ("reads", Text_table.Right); ("in-commit", Text_table.Right);
        ("torn", Text_table.Right) ]
  in
  (* u = 1.0 retags every row per round, giving the uniform-tag torn-read
     oracle; u = 0.1 touches a tenth of the rows, where a commit copies
     only the pages it writes (the oracle does not apply - a partial
     update legitimately leaves two tags in one image). *)
  List.iter
    (fun u ->
      let oracle = u >= 1.0 in
      let clock = Clock.create () in
      let base = Base_table.create ~name:"mv" ~clock schema in
      let addrs =
        Array.init n (fun i ->
            Base_table.insert base (Tuple.make [ Value.int i; Value.int 0 ]))
      in
      let m = Manager.create () in
      Manager.register_base m base;
      ignore
        (Manager.create_snapshot m ~name:"s" ~base:"mv"
           ~method_:Manager.Differential ~version_retain:retain ()
          : Manager.refresh_report);
      let snap = Manager.snapshot_table m "s" in
      let c0 k = Metrics.counter_value Metrics.global k in
      let pages0 = c0 "mvcc.pages_copied" and bytes0 = c0 "mvcc.copy_bytes" in
      let stop = Atomic.make false in
      let readers =
        Array.init n_readers (fun _ -> Domain.spawn (fun () -> reader snap stop))
      in
      let windows = ref [] in
      let commit_wall = ref 0.0 in
      for r = 1 to rounds do
        (* A contiguous block of u*n rows per round: partial updates
           cluster on pages, so page-granular capture costs separate. *)
        let block = max 1 (int_of_float (float_of_int n *. u)) in
        let lo = (r - 1) * block mod n in
        Array.iteri
          (fun i a ->
            if i >= lo && i < lo + block then
              Base_table.update base a (Tuple.make [ Value.int i; Value.int r ]))
          addrs;
        let t0 = Unix.gettimeofday () in
        ignore (Manager.refresh m "s" : Manager.refresh_report);
        let t1 = Unix.gettimeofday () in
        windows := (t0, t1) :: !windows;
        commit_wall := !commit_wall +. (t1 -. t0)
      done;
      Atomic.set stop true;
      let results = Array.map Domain.join readers in
      let reads = Array.fold_left (fun a (r, _, _) -> a + r) 0 results in
      let torn = Array.fold_left (fun a (_, t, _) -> a + t) 0 results in
      let in_commit =
        Array.fold_left
          (fun a (_, _, ivs) ->
            a
            + List.length
                (List.filter
                   (fun (r0, r1) ->
                     List.exists (fun (w0, w1) -> r0 < w1 && r1 > w0) !windows)
                   ivs))
          0 results
      in
      if oracle && torn > 0 then
        violations := Printf.sprintf "mvcc: %d torn reads at u=%.1f" torn u :: !violations;
      if reads = 0 then
        violations :=
          Printf.sprintf "mvcc: readers completed no reads at all (u=%.1f)" u :: !violations;
      if (not quick) && in_commit = 0 then
        violations :=
          Printf.sprintf
            "mvcc: no read completed while a refresh was committing (u=%.1f) - \
             readers were blocked"
            u
          :: !violations;
      let pages = c0 "mvcc.pages_copied" - pages0 in
      let bytes = c0 "mvcc.copy_bytes" - bytes0 in
      Text_table.add_row t
        [ Printf.sprintf "%.1f" u;
          Printf.sprintf "%.1f" (!commit_wall *. 1e3 /. float_of_int rounds);
          string_of_int pages; string_of_int bytes; string_of_int reads;
          string_of_int in_commit;
          (if oracle then string_of_int torn else "-") ];
      emit
        ~params:
          [ ("u", Printf.sprintf "%.1f" u);
            ("n", string_of_int n);
            ("retain", string_of_int retain); ("rounds", string_of_int rounds);
            ("commit_ms",
             Printf.sprintf "%.3f" (!commit_wall *. 1e3 /. float_of_int rounds));
            ("pages_copied", string_of_int pages);
            ("reads", string_of_int reads); ("reads_in_commit", string_of_int in_commit);
            ("torn", if oracle then string_of_int torn else "-") ]
        ~entries_scanned:(n * rounds) ~bytes ())
    [ 1.0; 0.1 ];
  Text_table.print t;
  print_endline
    "(every base row is retagged per round, so each committed epoch is a\n\
    \ uniform image; 'torn' counts pinned scans that saw two tags at once\n\
    \ and must be zero; 'in-commit' counts reads that completed while a\n\
    \ refresh commit was streaming - the never-blocked demonstration;\n\
    \ each commit copies the pages it writes, once each, and shares\n\
    \ the rest with the epochs before it)"

(* ------------------------------------------------------------------ *)
(* Vacuum: how much version memory and WAL tail a vacuum reclaims as a
   function of the retention window.  Each row builds a WAL-backed base
   with one differential snapshot retaining K epochs, runs the same
   mutate+refresh schedule, then vacuums with older-than = now (so the
   retention window alone decides what survives): wider windows retain
   more epochs and hand vacuum proportionally more version bytes, while
   the WAL truncation floor — the lease horizon — is unaffected by K.
   A vacuum that reclaims nothing for K > 1, or that truncates zero WAL
   bytes, is a violation. *)

let vacuum_bench () =
  let module Workload = Snapdiff_workload.Workload in
  let module Manager = Snapdiff_core.Manager in
  let module Base_table = Snapdiff_core.Base_table in
  let module Wal = Snapdiff_wal.Wal in
  let module Clock = Snapdiff_txn.Clock in
  let module Rng = Snapdiff_util.Rng in
  header "vacuum - reclaimed version and WAL bytes vs retention window";
  let n = if quick then 2_000 else 20_000 in
  let rounds = if quick then 6 else 10 in
  let u = 0.2 in
  let t =
    Text_table.create
      [ ("retain", Text_table.Right); ("examined", Text_table.Right);
        ("reclaimed", Text_table.Right); ("version bytes", Text_table.Right);
        ("wal bytes", Text_table.Right); ("truncated to", Text_table.Right);
        ("wall ms", Text_table.Right) ]
  in
  List.iter
    (fun retain ->
      let rng = Rng.create 0x7ACC in
      let clock = Clock.create () in
      let wal = Wal.create () in
      let base = Workload.make_base ~wal ~clock () in
      Workload.populate base ~rng ~n;
      let m = Manager.create () in
      Manager.register_base m base;
      ignore
        (Manager.create_snapshot m ~name:"v" ~base:(Base_table.name base)
           ~restrict:(Workload.restrict_fraction 0.5)
           ~method_:Manager.Differential ~version_retain:retain ()
          : Manager.refresh_report);
      for _ = 1 to rounds do
        ignore (Workload.update_fraction base ~rng ~u ~mix:Workload.churn : int);
        ignore (Manager.refresh m "v" : Manager.refresh_report)
      done;
      let t0 = Unix.gettimeofday () in
      let rep = Manager.vacuum ~older_than:(Clock.now clock) m in
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      let sv = List.hd rep.Manager.vac_snapshots in
      let wv = List.hd rep.Manager.vac_wals in
      if retain > 1 && sv.Manager.sv_reclaimed = 0 then
        violations :=
          Printf.sprintf "vacuum: nothing reclaimed with retain = %d" retain
          :: !violations;
      if wv.Manager.wv_log_bytes_reclaimed <= 0 then
        violations :=
          Printf.sprintf "vacuum: no WAL bytes truncated with retain = %d" retain
          :: !violations;
      Text_table.add_row t
        [ string_of_int retain; string_of_int sv.Manager.sv_examined;
          string_of_int sv.Manager.sv_reclaimed; string_of_int sv.Manager.sv_bytes;
          string_of_int wv.Manager.wv_log_bytes_reclaimed;
          string_of_int wv.Manager.wv_truncated_to;
          Printf.sprintf "%.1f" wall_ms ];
      emit
        ~params:
          [ ("retain", string_of_int retain); ("n", string_of_int n);
            ("rounds", string_of_int rounds); ("u", Printf.sprintf "%.1f" u);
            ("versions_reclaimed", string_of_int sv.Manager.sv_reclaimed);
            ("version_bytes", string_of_int sv.Manager.sv_bytes);
            ("wal_bytes_reclaimed", string_of_int wv.Manager.wv_log_bytes_reclaimed);
            ("truncated_to", string_of_int wv.Manager.wv_truncated_to);
            ("wall_ms", Printf.sprintf "%.3f" wall_ms) ]
        ~entries_scanned:(n * rounds)
        ~bytes:(sv.Manager.sv_bytes + wv.Manager.wv_log_bytes_reclaimed) ())
    [ 1; 2; 4; 8 ];
  Text_table.print t;
  print_endline
    "(older-than = now, so the retention window alone decides: a window of\n\
    \ K epochs hands vacuum K-1 reclaimable versions plus the WAL tail up\n\
    \ to the lease horizon; the live head always survives)"

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
    ("group", "group refresh - one scan for N snapshots vs N solo scans", group);
    ("concurrency", "chunked refresh - updater stall p95 vs the monolithic lock",
     concurrency);
    ("obs", "observability - tracing overhead, disabled vs enabled", obs);
    ("wal", "durability - group-commit sweep, recovery replay, fuzzy checkpoint",
     wal_bench);
    ("fleet", "fleet scheduler - 1k-10k snapshots under staleness SLOs", fleet_bench);
    ("mvcc", "MVCC epoch ring - pinned readers vs streaming commits",
     mvcc_bench);
    ("vacuum", "lifecycle - reclaimed version/WAL bytes vs retention window",
     vacuum_bench);
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
