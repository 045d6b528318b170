(* Tests for the analytical model and the workload generator, including the
   crucial agreement check: the closed-form expectation must match the
   measured message counts of the actual algorithms. *)

open Snapdiff_txn
open Snapdiff_core
module Model = Snapdiff_analysis.Model
module Workload = Snapdiff_workload.Workload
module Rng = Snapdiff_util.Rng
module Expr = Snapdiff_expr.Expr
module Eval = Snapdiff_expr.Eval

let checkb = Alcotest.(check bool)
let feq eps = Alcotest.(check (float eps))

let test_model_boundaries () =
  let n = 10_000 in
  (* q = 1 (no restriction): differential = ideal for every u. *)
  List.iter
    (fun u ->
      feq 1e-6 "diff = ideal at q=1"
        (Model.ideal_messages ~n ~q:1.0 ~u)
        (Model.differential_messages ~include_tail:false ~n ~q:1.0 ~u ()))
    [ 0.0; 0.1; 0.5; 0.9; 1.0 ];
  (* u = 1: differential = full. *)
  List.iter
    (fun q ->
      feq 1e-6 "diff = full at u=1" (Model.full_messages ~n ~q)
        (Model.differential_messages ~include_tail:false ~n ~q ~u:1.0 ()))
    [ 0.01; 0.25; 1.0 ];
  (* u = 0: nothing but the tail. *)
  feq 1e-9 "only tail at u=0" 1.0 (Model.differential_messages ~n ~q:0.25 ~u:0.0 ())

let test_model_ordering () =
  let n = 10_000 in
  List.iter
    (fun q ->
      List.iter
        (fun u ->
          let ideal = Model.ideal_messages ~n ~q ~u in
          let diff = Model.differential_messages ~include_tail:false ~n ~q ~u () in
          let full = Model.full_messages ~n ~q in
          checkb
            (Printf.sprintf "ideal <= diff <= full at q=%g u=%g" q u)
            true
            (ideal <= diff +. 1e-9 && diff <= full +. 1e-9))
        [ 0.01; 0.05; 0.2; 0.5; 0.8; 1.0 ])
    [ 0.01; 0.05; 0.25; 0.5; 1.0 ]

let test_model_monotone_in_u () =
  let n = 10_000 and q = 0.25 in
  let prev = ref (-1.0) in
  List.iter
    (fun u ->
      let d = Model.differential_messages ~n ~q ~u () in
      checkb "monotone" true (d >= !prev);
      prev := d)
    [ 0.0; 0.05; 0.1; 0.2; 0.4; 0.8; 1.0 ]

let test_model_superfluous_grows_with_restriction () =
  let u = 0.05 in
  let s1 = Model.superfluous_fraction ~q:0.01 ~u in
  let s25 = Model.superfluous_fraction ~q:0.25 ~u in
  let s100 = Model.superfluous_fraction ~q:1.0 ~u in
  checkb "more restrictive = more superfluous" true (s1 > s25 && s25 > s100);
  feq 1e-9 "none without restriction" 0.0 s100

let test_model_gap_variants_close () =
  let n = 10_000 in
  List.iter
    (fun (q, u) ->
      let g = Model.differential_messages ~model:Model.Geometric ~n ~q ~u () in
      let f = Model.differential_messages ~model:Model.Fixed_gap ~n ~q ~u () in
      checkb
        (Printf.sprintf "variants within 20%% at q=%g u=%g (%g vs %g)" q u g f)
        true
        (Snapdiff_util.Stats.relative_error ~actual:f ~expected:g < 0.2))
    [ (0.25, 0.1); (0.5, 0.3); (1.0, 0.7) ]

let test_pct_of_table () =
  feq 1e-9 "pct" 12.5 (Model.pct_of_table ~n:200 25.0);
  feq 1e-9 "empty table" 0.0 (Model.pct_of_table ~n:0 25.0)

(* ------------------------------------------------------------------ *)
(* Workload *)

let test_workload_selectivity_exact () =
  let clock = Clock.create () in
  let base = Workload.make_base ~clock () in
  let rng = Rng.create 1 in
  Workload.populate base ~rng ~n:5000;
  let q = 0.25 in
  let pred = Eval.compile Workload.schema (Workload.restrict_fraction q) in
  let hits =
    List.length (List.filter (fun (_, u) -> pred u) (Base_table.to_user_list base))
  in
  let measured = float_of_int hits /. 5000.0 in
  checkb
    (Printf.sprintf "selectivity %.3f close to 0.25" measured)
    true
    (Float.abs (measured -. q) < 0.03)

let test_workload_update_fraction_distinct () =
  let clock = Clock.create () in
  let base = Workload.make_base ~clock () in
  let rng = Rng.create 2 in
  Workload.populate base ~rng ~n:1000;
  let before = Base_table.mutations base in
  let ops =
    Workload.update_fraction base ~rng ~u:0.2 ~mix:Workload.payload_updates_only
  in
  Alcotest.(check int) "200 ops" 200 ops;
  Alcotest.(check int) "mutation count grew by ops" (before + 200) (Base_table.mutations base);
  Alcotest.(check int) "count unchanged (updates only)" 1000 (Base_table.count base)

let test_workload_payload_updates_keep_qualification () =
  let clock = Clock.create () in
  let base = Workload.make_base ~clock () in
  let rng = Rng.create 3 in
  Workload.populate base ~rng ~n:500;
  let quals_before =
    List.map (fun (a, u) -> (a, Snapdiff_storage.Tuple.get u 2)) (Base_table.to_user_list base)
  in
  ignore (Workload.update_fraction base ~rng ~u:1.0 ~mix:Workload.payload_updates_only : int);
  let quals_after =
    List.map (fun (a, u) -> (a, Snapdiff_storage.Tuple.get u 2)) (Base_table.to_user_list base)
  in
  checkb "qual column untouched" true (quals_before = quals_after)

let test_workload_churn_changes_population () =
  let clock = Clock.create () in
  let base = Workload.make_base ~clock () in
  let rng = Rng.create 4 in
  Workload.populate base ~rng ~n:500;
  ignore (Workload.update_fraction base ~rng ~u:0.5 ~mix:Workload.churn : int);
  checkb "some churn happened" true (Base_table.mutations base > 500)

let test_workload_zipf_runs () =
  let clock = Clock.create () in
  let base = Workload.make_base ~clock () in
  let rng = Rng.create 5 in
  Workload.populate base ~rng ~n:300;
  ignore (Workload.mutate_zipf base ~rng ~ops:200 ~theta:0.9 ~mix:Workload.payload_updates_only : int);
  checkb "ops accounted" true (Base_table.mutations base >= 400)

(* Regression for the zipf rate bug: no-op draws (update/delete landing on
   an address this run already deleted) used to count toward [ops], so the
   applied mutation rate silently undershot the nominal rate under skew +
   churn.  Now such draws are resampled: applied = nominal, and the base
   table's mutation counter agrees. *)
let test_workload_zipf_applied_rate () =
  let clock = Clock.create () in
  let base = Workload.make_base ~clock () in
  let rng = Rng.create 6 in
  Workload.populate base ~rng ~n:500;
  let before = Base_table.mutations base in
  (* High skew + churn maximizes repeat draws on deleted addresses. *)
  let applied = Workload.mutate_zipf base ~rng ~ops:1000 ~theta:0.99 ~mix:Workload.churn in
  Alcotest.(check int) "applied = nominal ops" 1000 applied;
  Alcotest.(check int) "mutation counter agrees" (before + applied)
    (Base_table.mutations base)

(* Regression for the update_fraction rate bug: an [`Insert] draw used to
   burn one of the [k] sampled addresses, so fewer than [u * n] distinct
   rows were actually touched under insert-bearing mixes.  Inserts now ride
   outside the sample: exactly [k] pre-existing rows change or disappear. *)
let test_workload_update_fraction_realized () =
  let clock = Clock.create () in
  let base = Workload.make_base ~clock () in
  let rng = Rng.create 7 in
  Workload.populate base ~rng ~n:1000;
  let before = Base_table.to_user_list base in
  let ops = Workload.update_fraction base ~rng ~u:0.3 ~mix:Workload.churn in
  checkb "inserts rode along" true (ops > 300);
  let after = Hashtbl.create 1024 in
  List.iter (fun (a, u) -> Hashtbl.replace after a u) (Base_table.to_user_list base);
  let touched =
    List.length
      (List.filter
         (fun (a, u) ->
           match Hashtbl.find_opt after a with
           | None -> true (* deleted *)
           | Some u' -> u <> u' (* updated *))
         before)
  in
  Alcotest.(check int) "exactly u*n distinct rows touched" 300 touched

let test_model_transmit_validation () =
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  checkb "q > 1 rejected" true
    (raises (fun () -> Model.transmit_probability ~model:Model.Geometric ~q:1.5 ~u:0.1));
  checkb "q < 0 rejected" true
    (raises (fun () -> Model.transmit_probability ~model:Model.Geometric ~q:(-0.1) ~u:0.1));
  checkb "u > 1 rejected" true
    (raises (fun () -> Model.transmit_probability ~model:Model.Geometric ~q:0.5 ~u:2.0));
  checkb "u < 0 rejected" true
    (raises (fun () -> Model.transmit_probability ~model:Model.Geometric ~q:0.5 ~u:(-0.2)));
  checkb "nan rejected" true
    (raises (fun () -> Model.transmit_probability ~model:Model.Geometric ~q:Float.nan ~u:0.1));
  feq 1e-9 "valid corner still fine" 0.0
    (Model.transmit_probability ~model:Model.Geometric ~q:0.5 ~u:0.0)

let test_model_observed_update_fraction () =
  feq 1e-9 "plain ratio" 0.25 (Model.observed_update_fraction ~mutations:25 ~n:100);
  feq 1e-9 "clamped at 1" 1.0 (Model.observed_update_fraction ~mutations:500 ~n:100);
  feq 1e-9 "empty table" 0.0 (Model.observed_update_fraction ~mutations:10 ~n:0);
  checkb "negative mutations rejected" true
    (match Model.observed_update_fraction ~mutations:(-1) ~n:10 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The headline agreement test: run the actual differential algorithm over
   the Figure 8 workload and compare with the closed-form expectation. *)
let test_model_matches_simulation () =
  let n = 4000 in
  List.iter
    (fun (q, u) ->
      let clock = Clock.create () in
      let base = Workload.make_base ~clock () in
      let rng = Rng.create 42 in
      Workload.populate base ~rng ~n;
      ignore (Fixup.run base ~fixup_time:(Clock.tick clock) : Fixup.stats);
      let restrict = Eval.compile Workload.schema (Workload.restrict_fraction q) in
      let snaptime = Clock.now clock in
      ignore
        (Workload.update_fraction base ~rng ~u ~mix:Workload.payload_updates_only : int);
      let count = ref 0 in
      let r =
        Differential.refresh ~base ~snaptime ~restrict:(Annotations.user_pred restrict)
          ~xmit:(fun m -> if Refresh_msg.is_data m then incr count)
          ()
      in
      ignore r;
      let expected = Model.differential_messages ~n ~q ~u () in
      let actual = float_of_int !count in
      (* Within 12% relative or 10 messages absolute (sampling noise). *)
      let err = Snapdiff_util.Stats.relative_error ~actual ~expected in
      checkb
        (Printf.sprintf "q=%g u=%g: sim %g vs model %g (err %.3f)" q u actual expected err)
        true
        (err < 0.12 || Float.abs (actual -. expected) < 10.0))
    [ (0.25, 0.05); (0.25, 0.5); (0.5, 0.2); (1.0, 0.3); (0.05, 0.1) ]

let test_ideal_matches_model () =
  let n = 4000 in
  let q = 0.25 and u = 0.2 in
  let clock = Clock.create () in
  let base = Workload.make_base ~clock () in
  let m = Manager.create () in
  Manager.register_base m base;
  let rng = Rng.create 7 in
  Workload.populate base ~rng ~n;
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp"
       ~restrict:(Workload.restrict_fraction q) ~method_:Manager.Ideal ()
      : Manager.refresh_report);
  ignore (Workload.update_fraction base ~rng ~u ~mix:Workload.payload_updates_only : int);
  let r = Manager.refresh m "s" in
  let expected = Model.ideal_messages ~n ~q ~u in
  let actual = float_of_int r.Manager.data_messages in
  checkb
    (Printf.sprintf "ideal sim %g vs model %g" actual expected)
    true
    (Snapdiff_util.Stats.relative_error ~actual ~expected < 0.12)

(* Group-scan page-decode model: boundaries, flatness in subscriber count,
   and agreement with a simulated group refresh. *)
let test_group_scan_model () =
  (* u = 0: nothing touched; u = 1: every page touched. *)
  feq 1e-9 "quiescent touches nothing" 0.0
    (Model.pages_touched ~pages:40 ~entries_per_page:16 ~u:0.0);
  feq 1e-9 "full churn touches all" 40.0
    (Model.pages_touched ~pages:40 ~entries_per_page:16 ~u:1.0);
  (* Solo cost grows linearly in subscribers; group cost is flat. *)
  let solo8 = Model.solo_scan_pages ~pages:40 ~entries_per_page:16 ~u:0.01 ~subs:8 in
  let solo1 = Model.solo_scan_pages ~pages:40 ~entries_per_page:16 ~u:0.01 ~subs:1 in
  feq 1e-9 "solo scales with subs" (8.0 *. solo1) solo8;
  let g8 = Model.group_scan_pages ~pages:40 ~entries_per_page:16 ~u:0.01 ~subs:8 in
  feq 1e-9 "group flat in subs" solo1 g8;
  checkb "group never above solo" true (g8 <= solo8);
  feq 1e-9 "no subscribers, no decodes" 0.0
    (Model.group_scan_pages ~pages:40 ~entries_per_page:16 ~u:0.3 ~subs:0)

let test_group_model_matches_simulation () =
  (* A steady-state group refresh of identical-staleness subscribers must
     decode about [pages_touched] pages per cycle, not [subs] times it. *)
  let clock = Clock.create () in
  let base = Workload.make_base ~page_size:512 ~clock () in
  let rng = Rng.create 11 in
  Workload.populate base ~rng ~n:2_000;
  let restrict = Eval.compile Workload.schema (Workload.restrict_fraction 0.5) in
  let subs = 6 in
  let snaps =
    Array.init subs (fun i ->
        ( Snapshot_table.create ~name:(Printf.sprintf "s%d" i) ~schema:Workload.schema (),
          Differential.Prune_cache.create () ))
  in
  let refresh_group () =
    let outs = Array.init subs (fun _ -> ref []) in
    let gsubs =
      Array.mapi
        (fun i (snap, cache) ->
          {
            Differential.sub_full = false;
            sub_snaptime = Snapshot_table.snaptime snap;
            sub_restrict = Annotations.user_pred restrict;
            sub_project = None;
            sub_tail_suppression = None;
            sub_prune = Some cache;
            sub_xmit = Differential.each (fun m -> outs.(i) := m :: !(outs.(i)));
          })
        snaps
    in
    let g = Differential.refresh_group ~base gsubs in
    Array.iteri
      (fun i (snap, _) -> List.iter (Snapshot_table.apply snap) (List.rev !(outs.(i))))
      snaps;
    g
  in
  ignore (refresh_group () : Differential.group_report);  (* cold: everything decodes *)
  let u = 0.01 in
  ignore
    (Workload.update_fraction base ~rng ~u ~mix:Workload.payload_updates_only : int);
  let g = refresh_group () in
  let pages = g.Differential.group_pages in
  let epp = 2_000 / pages in
  let expected = Model.group_scan_pages ~pages ~entries_per_page:epp ~u ~subs in
  let actual = float_of_int g.Differential.group_pages_decoded in
  checkb
    (Printf.sprintf "group decodes %g vs model %g (pages %d)" actual expected pages)
    true
    (Snapdiff_util.Stats.relative_error ~actual ~expected < 0.35);
  (* The whole point: far below what [subs] solo scans would decode. *)
  checkb "well under solo cost" true
    (actual < Model.solo_scan_pages ~pages ~entries_per_page:epp ~u ~subs /. 2.0)

let suite =
  [
    Alcotest.test_case "model boundaries" `Quick test_model_boundaries;
    Alcotest.test_case "model ordering" `Quick test_model_ordering;
    Alcotest.test_case "model monotone" `Quick test_model_monotone_in_u;
    Alcotest.test_case "model superfluous" `Quick test_model_superfluous_grows_with_restriction;
    Alcotest.test_case "model gap variants" `Quick test_model_gap_variants_close;
    Alcotest.test_case "pct of table" `Quick test_pct_of_table;
    Alcotest.test_case "workload selectivity" `Quick test_workload_selectivity_exact;
    Alcotest.test_case "workload update fraction" `Quick test_workload_update_fraction_distinct;
    Alcotest.test_case "workload payload-only" `Quick
      test_workload_payload_updates_keep_qualification;
    Alcotest.test_case "workload churn" `Quick test_workload_churn_changes_population;
    Alcotest.test_case "workload zipf" `Quick test_workload_zipf_runs;
    Alcotest.test_case "workload zipf applied rate" `Quick test_workload_zipf_applied_rate;
    Alcotest.test_case "workload realized fraction" `Quick
      test_workload_update_fraction_realized;
    Alcotest.test_case "model transmit validation" `Quick test_model_transmit_validation;
    Alcotest.test_case "model observed update fraction" `Quick
      test_model_observed_update_fraction;
    Alcotest.test_case "model = simulation (differential)" `Quick test_model_matches_simulation;
    Alcotest.test_case "model = simulation (ideal)" `Quick test_ideal_matches_model;
    Alcotest.test_case "group-scan page model" `Quick test_group_scan_model;
    Alcotest.test_case "group model = simulation" `Quick test_group_model_matches_simulation;
  ]
