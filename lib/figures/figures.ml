open Snapdiff_txn
open Snapdiff_core
module Rng = Snapdiff_util.Rng
module Text_table = Snapdiff_util.Text_table
module Ascii_chart = Snapdiff_util.Ascii_chart
module Eval = Snapdiff_expr.Eval
module Expr = Snapdiff_expr.Expr
module Change_log = Snapdiff_changelog.Change_log
module Link = Snapdiff_net.Link
module Model = Snapdiff_analysis.Model
module Workload = Snapdiff_workload.Workload

type point = {
  u_pct : float;
  ideal_sim : float;
  ideal_model : float;
  diff_sim : float;
  diff_model : float;
  full_sim : float;
}

type sweep = {
  q : float;
  n : int;
  points : point list;
}

let count_data f =
  let c = ref 0 in
  f (fun m -> if Refresh_msg.is_data m then incr c);
  !c

(* One experiment cell: a fresh base table, identically populated, a
   snapshot boundary, u*n distinct payload updates, then each algorithm
   measured over the same mutated table. *)
let run_cell ~seed ~n ~q ~u ~mix =
  let clock = Clock.create () in
  let base = Workload.make_base ~clock () in
  let rng = Rng.create seed in
  Workload.populate base ~rng ~n;
  (* Change capture must watch the window the ideal algorithm reports on. *)
  let log = Change_log.create () in
  ignore
    (Base_table.subscribe base (fun c -> ignore (Change_log.append log c : Change_log.seq))
      : Base_table.subscription);
  ignore (Fixup.run base ~fixup_time:(Clock.tick clock) : Fixup.stats);
  let snaptime = Clock.now clock in
  let cursor = Change_log.current_seq log in
  let restrict = Eval.compile Workload.schema (Workload.restrict_fraction q) in
  ignore (Workload.update_fraction base ~rng ~u ~mix : int);
  let ideal =
    count_data (fun xmit ->
        ignore
          (Ideal.refresh ~base ~log ~cursor ~restrict ~project:Fun.id ~xmit () : Ideal.report))
  in
  let diff =
    count_data (fun xmit ->
        ignore
          (Differential.refresh ~base ~snaptime ~restrict:(Annotations.user_pred restrict) ~xmit ()
            : Differential.report))
  in
  (* Full after differential: its pass restores annotations too, with a
     later FixupTime the differential count must not see. *)
  let full =
    count_data (fun xmit ->
        ignore
          (Differential.refresh_full ~base ~restrict:(Annotations.user_pred restrict) ~xmit ()
            : Differential.report))
  in
  (ideal, diff, full)

let message_sweep ?(seed = 20011986) ~n ~q ~u_list () =
  let pct x = Model.pct_of_table ~n (float_of_int x) in
  let points =
    List.map
      (fun u ->
        let ideal, diff, full =
          run_cell ~seed ~n ~q ~u ~mix:Workload.payload_updates_only
        in
        {
          u_pct = 100.0 *. u;
          ideal_sim = pct ideal;
          ideal_model = Model.pct_of_table ~n (Model.ideal_messages ~n ~q ~u);
          diff_sim = pct diff;
          diff_model = Model.pct_of_table ~n (Model.differential_messages ~n ~q ~u ());
          full_sim = pct full;
        })
      u_list
  in
  { q; n; points }

let paper_u_list =
  [ 0.01; 0.02; 0.05; 0.10; 0.15; 0.20; 0.30; 0.40; 0.50; 0.60; 0.70; 0.80; 0.90; 1.0 ]

let figure8 ?seed ?(n = 20_000) () =
  List.map (fun q -> message_sweep ?seed ~n ~q ~u_list:paper_u_list ()) [ 1.0; 0.5; 0.25 ]

let figure9 ?seed ?(n = 20_000) () =
  List.map (fun q -> message_sweep ?seed ~n ~q ~u_list:paper_u_list ()) [ 0.05; 0.01 ]

let render_sweep_table sweep =
  let open Text_table in
  let t =
    create
      ~title:
        (Printf.sprintf "selectivity q = %.0f%%  (base table: %d tuples)" (100.0 *. sweep.q)
           sweep.n)
      [
        ("updated %", Right); ("full %", Right); ("diff % (sim)", Right);
        ("diff % (model)", Right); ("ideal % (sim)", Right); ("ideal % (model)", Right);
      ]
  in
  List.iter
    (fun p ->
      add_row t
        [
          cell_float ~decimals:1 p.u_pct;
          cell_float ~decimals:3 p.full_sim;
          cell_float ~decimals:3 p.diff_sim;
          cell_float ~decimals:3 p.diff_model;
          cell_float ~decimals:3 p.ideal_sim;
          cell_float ~decimals:3 p.ideal_model;
        ])
    sweep.points;
  render t

let render_figure_chart ?(log_scale = false) ~title sweeps =
  let glyphs_diff = [| 'D'; 'd'; '2'; '3'; '4' |] in
  let glyphs_ideal = [| 'I'; 'i'; '!'; ':'; ';' |] in
  let glyphs_full = [| 'F'; 'f'; '='; '-'; '_' |] in
  let series =
    List.concat
      (List.mapi
         (fun i sweep ->
           let pct = Printf.sprintf "q=%.0f%%" (100.0 *. sweep.q) in
           let pts f = List.map (fun p -> (p.u_pct, f p)) sweep.points in
           [
             { Ascii_chart.label = "diff " ^ pct; glyph = glyphs_diff.(i);
               points = pts (fun p -> p.diff_sim) };
             { Ascii_chart.label = "ideal " ^ pct; glyph = glyphs_ideal.(i);
               points = pts (fun p -> p.ideal_sim) };
             { Ascii_chart.label = "full " ^ pct; glyph = glyphs_full.(i);
               points = pts (fun p -> p.full_sim) };
           ])
         sweeps)
  in
  Ascii_chart.render ~width:68 ~height:22 ~title
    ~x_label:"% of tuples updated between refreshes"
    ~y_label:"tuples sent, % of base table"
    ~y_scale:(if log_scale then Ascii_chart.Log10 else Ascii_chart.Linear)
    series

(* ------------------------------------------------------------------ *)
(* Ablations *)

type mix_row = {
  mix_name : string;
  ops : int;
  diff_msgs : int;
  ideal_msgs : int;
  full_msgs : int;
}

let churn_ablation ?(seed = 7) ?(n = 10_000) () =
  let mixes =
    [
      ("updates, payload only", Workload.payload_updates_only);
      ("updates with qual flips",
       { Workload.update_weight = 1; insert_weight = 0; delete_weight = 0; qual_flip = true });
      ("60/20/20 churn", Workload.churn);
      ("delete heavy",
       { Workload.update_weight = 1; insert_weight = 1; delete_weight = 3; qual_flip = true });
      ("insert heavy",
       { Workload.update_weight = 1; insert_weight = 3; delete_weight = 1; qual_flip = true });
    ]
  in
  List.map
    (fun (mix_name, mix) ->
      let ideal, diff, full = run_cell ~seed ~n ~q:0.25 ~u:0.2 ~mix in
      { mix_name; ops = int_of_float (0.2 *. float_of_int n); diff_msgs = diff;
        ideal_msgs = ideal; full_msgs = full })
    mixes

type maintenance_row = {
  maint_mode : string;
  base_ops : int;
  clock_ticks : int;
  annotation_writes_at_refresh : int;
  refresh_data_msgs : int;
}

let maintenance_ablation ?(seed = 11) ?(n = 10_000) ?(u = 0.1) () =
  let run mode name =
    let clock = Clock.create () in
    let base = Workload.make_base ~mode ~clock () in
    let rng = Rng.create seed in
    Workload.populate base ~rng ~n;
    (match mode with
    | Base_table.Deferred -> ignore (Fixup.run base ~fixup_time:(Clock.tick clock) : Fixup.stats)
    | Base_table.Eager -> ());
    let snaptime = Clock.now clock in
    let ticks_before = Clock.now clock in
    let ops = Workload.update_fraction base ~rng ~u ~mix:Workload.churn in
    let ticks = Clock.now clock - ticks_before in
    let restrict = Eval.compile Workload.schema (Workload.restrict_fraction 0.25) in
    let msgs = ref 0 in
    let r =
      Differential.refresh ~base ~snaptime ~restrict:(Annotations.user_pred restrict)
        ~xmit:(fun m -> if Refresh_msg.is_data m then incr msgs)
        ()
    in
    {
      maint_mode = name;
      base_ops = ops;
      clock_ticks = ticks;
      annotation_writes_at_refresh = r.Differential.fixup_writes;
      refresh_data_msgs = !msgs;
    }
  in
  [ run Base_table.Eager "eager"; run Base_table.Deferred "deferred" ]

type asap_row = {
  refresh_interval : int;
  asap_msgs : int;
  periodic_diff_msgs : int;
}

let asap_ablation ?(seed = 13) ?(n = 2_000) ?(ops = 2_000) () =
  let q = 0.25 in
  let restrict = Eval.compile Workload.schema (Workload.restrict_fraction q) in
  let run interval =
    (* ASAP site. *)
    let clock_a = Clock.create () in
    let base_a = Workload.make_base ~clock:clock_a () in
    let rng_a = Rng.create seed in
    Workload.populate base_a ~rng:rng_a ~n;
    let link = Link.create ~name:"asap" () in
    let snap_a = Snapshot_table.create ~name:"sa" ~schema:Workload.schema () in
    Link.attach link (Snapshot_table.apply_bytes snap_a);
    let asap = Asap.attach ~base:base_a ~link ~restrict ~project:Fun.id () in
    ignore (Workload.mutate_zipf base_a ~rng:rng_a ~ops ~theta:0.0 ~mix:Workload.churn : int);
    (* Periodic differential site, same script. *)
    let clock_p = Clock.create () in
    let base_p = Workload.make_base ~clock:clock_p () in
    let rng_p = Rng.create seed in
    Workload.populate base_p ~rng:rng_p ~n;
    ignore (Fixup.run base_p ~fixup_time:(Clock.tick clock_p) : Fixup.stats);
    let snap_p = Snapshot_table.create ~name:"sp" ~schema:Workload.schema () in
    let diff_msgs = ref 0 in
    let refresh () =
      let msgs = ref [] in
      ignore
        (Differential.refresh ~base:base_p ~snaptime:(Snapshot_table.snaptime snap_p)
           ~restrict:(Annotations.user_pred restrict)
           ~xmit:(fun m -> msgs := m :: !msgs)
           ()
          : Differential.report);
      List.iter
        (fun m ->
          if Refresh_msg.is_data m then incr diff_msgs;
          Snapshot_table.apply snap_p m)
        (List.rev !msgs)
    in
    refresh ();
    let done_ops = ref 0 in
    while !done_ops < ops do
      let batch = min interval (ops - !done_ops) in
      ignore (Workload.mutate_zipf base_p ~rng:rng_p ~ops:batch ~theta:0.0 ~mix:Workload.churn : int);
      done_ops := !done_ops + batch;
      refresh ()
    done;
    { refresh_interval = interval; asap_msgs = Asap.sent asap; periodic_diff_msgs = !diff_msgs }
  in
  List.map run [ 10; 100; 500; 2000 ]

type log_scan_row = {
  irrelevant_tables : int;
  log_records_scanned : int;
  relevant_records : int;
  messages : int;
}

let log_scan_ablation ?(seed = 17) ?(n = 5_000) () =
  let run irrelevant_tables =
    let wal = Snapdiff_wal.Wal.create () in
    let clock = Clock.create () in
    let base = Base_table.create ~wal ~name:"emp" ~clock Workload.schema in
    let rng = Rng.create seed in
    Workload.populate base ~rng ~n;
    let others =
      List.init irrelevant_tables (fun i ->
          let b =
            Base_table.create ~wal ~name:(Printf.sprintf "other%d" i) ~clock Workload.schema
          in
          Workload.populate b ~rng ~n:100;
          b)
    in
    let cursor = Snapdiff_wal.Wal.end_lsn wal in
    (* 5% activity on the snapshot's table... *)
    ignore
      (Workload.update_fraction base ~rng ~u:0.05 ~mix:Workload.payload_updates_only : int);
    (* ...drowned in activity on the others. *)
    List.iter
      (fun b ->
        ignore (Workload.update_fraction b ~rng ~u:1.0 ~mix:Workload.churn : int);
        ignore (Workload.update_fraction b ~rng ~u:1.0 ~mix:Workload.churn : int))
      others;
    let restrict = Eval.compile Workload.schema (Workload.restrict_fraction 0.25) in
    let msgs = ref 0 in
    let r =
      Log_based.refresh ~base ~wal ~cursor ~restrict ~project:Fun.id
        ~xmit:(fun m -> if Refresh_msg.is_data m then incr msgs)
        ()
    in
    {
      irrelevant_tables;
      log_records_scanned = r.Log_based.log_records_scanned;
      relevant_records = r.Log_based.log_records_relevant;
      messages = !msgs;
    }
  in
  List.map run [ 0; 1; 4; 16 ]

type tail_row = {
  u_pct_tail : float;
  msgs_paper : int;
  msgs_suppressed : int;
}

let tail_ablation ?(seed = 19) ?(n = 10_000) ?(q = 0.25) () =
  let run u =
    let build () =
      let clock = Clock.create () in
      let base = Workload.make_base ~clock () in
      let rng = Rng.create seed in
      Workload.populate base ~rng ~n;
      ignore (Fixup.run base ~fixup_time:(Clock.tick clock) : Fixup.stats);
      let snaptime = Clock.now clock in
      let restrict = Eval.compile Workload.schema (Workload.restrict_fraction q) in
      (* A fully synced snapshot provides the high water. *)
      let snap = Snapshot_table.create ~name:"s" ~schema:Workload.schema () in
      List.iter
        (fun (addr, user) ->
          if restrict user then
            Snapshot_table.apply snap
              (Refresh_msg.Upsert { addr; row = Snapdiff_storage.Row.of_tuple user }))
        (Base_table.to_user_list base);
      ignore (Workload.update_fraction base ~rng ~u ~mix:Workload.payload_updates_only : int);
      (base, snaptime, restrict, snap)
    in
    let base, snaptime, restrict, snap = build () in
    let paper =
      count_data (fun xmit ->
          ignore
            (Differential.refresh ~base ~snaptime ~restrict:(Annotations.user_pred restrict) ~xmit ()
              : Differential.report))
    in
    let base, snaptime, restrict, snap2 = build () in
    ignore snap;
    let suppressed =
      count_data (fun xmit ->
          ignore
            (Differential.refresh
               ~tail_suppression:(Some (Snapshot_table.high_water snap2))
               ~base ~snaptime ~restrict:(Annotations.user_pred restrict) ~xmit ()
              : Differential.report))
    in
    { u_pct_tail = 100.0 *. u; msgs_paper = paper; msgs_suppressed = suppressed }
  in
  List.map run [ 0.0; 0.001; 0.01; 0.05 ]

type amortization_row = {
  snapshots_on_base : int;
  first_refresh_fixups : int;
  later_refresh_fixups : int;  (** summed over the remaining snapshots *)
  total_data_msgs : int;
}

(* "Multiple snapshots on a single base table do not require additional
   annotations and much of the extra work is amortized over the set of
   snapshots": the first snapshot refreshed after a batch of changes pays
   the fix-up writes; the rest find the annotations already restored. *)
let amortization_ablation ?(seed = 29) ?(n = 5_000) ?(u = 0.1) () =
  let run k =
    let clock = Clock.create () in
    let base = Workload.make_base ~clock () in
    let rng = Rng.create seed in
    Workload.populate base ~rng ~n;
    let mgr = Snapdiff_core.Manager.create () in
    Snapdiff_core.Manager.register_base mgr base;
    for i = 0 to k - 1 do
      (* Different restrictions per site, all differential. *)
      let q = 0.1 +. (0.8 *. float_of_int i /. float_of_int (max 1 (k - 1))) in
      ignore
        (Snapdiff_core.Manager.create_snapshot mgr
           ~name:(Printf.sprintf "s%d" i)
           ~base:"emp"
           ~restrict:(Workload.restrict_fraction (Float.min 0.9 q))
           ~method_:Snapdiff_core.Manager.Differential ()
          : Snapdiff_core.Manager.refresh_report)
    done;
    ignore (Workload.update_fraction base ~rng ~u ~mix:Workload.payload_updates_only : int);
    let reports =
      List.init k (fun i -> Snapdiff_core.Manager.refresh mgr (Printf.sprintf "s%d" i))
    in
    match reports with
    (* [run] is only called with k in {1, 2, 4, 8}: at least one report. *)
    | [] -> assert false
    | first :: rest ->
      {
        snapshots_on_base = k;
        first_refresh_fixups = first.Snapdiff_core.Manager.fixup_writes;
        later_refresh_fixups =
          List.fold_left (fun acc r -> acc + r.Snapdiff_core.Manager.fixup_writes) 0 rest;
        total_data_msgs =
          List.fold_left
            (fun acc r -> acc + r.Snapdiff_core.Manager.data_messages)
            0 reports;
      }
  in
  List.map run [ 1; 2; 4; 8 ]

type stepwise_row = {
  generation : string;
  data_msgs : int;
  note : string;
}

(* The paper's stepwise development, quantified: apply one random script of
   updates/deletes/inserts identically to each algorithm generation and
   count what each transmits.  All three reuse the lowest free address on
   insert, so the address layouts coincide. *)
let stepwise_ablation ?(seed = 41) ?(n = 2_000) ?(u = 0.10) () =
  let module S = Snapdiff_storage in
  let schema =
    S.Schema.make
      [ S.Schema.col ~nullable:false "id" S.Value.Tint;
        S.Schema.col ~nullable:false "qual" S.Value.Tint ]
  in
  let row id qual = S.Tuple.make [ S.Value.int id; S.Value.int qual ] in
  let rng0 = Rng.create seed in
  let init = List.init n (fun i -> (i, Rng.int rng0 100)) in
  (* One script over entry slots 1..n: 60% update / 20% delete / 20%
     reinsert; indexes are 1-based addresses in the dense space. *)
  let rng = Rng.create (seed + 1) in
  let ops = int_of_float (u *. float_of_int n) in
  let script =
    List.init ops (fun _ ->
        let slot = 1 + Rng.int rng n in
        match Rng.int rng 5 with
        | 0 -> `Delete slot
        | 1 -> `Reinsert (slot, Rng.int rng 100)
        | _ -> `Update (slot, Rng.int rng 100))
  in
  let restrict t =
    match S.Tuple.get t 1 with S.Value.Int q -> Int64.to_int q < 25 | _ -> false
  in
  let count_stream f =
    let c = ref 0 in
    f (fun m -> if Refresh_msg.is_data m then incr c);
    !c
  in
  (* Generation 1: dense. *)
  let dense_msgs =
    let clock = Clock.create () in
    let d = Dense.create ~capacity:n ~schema ~clock () in
    List.iteri (fun i (id, q) -> Dense.set d ~addr:(i + 1) (row id q)) init;
    let snaptime = Clock.now clock in
    List.iter
      (fun op ->
        match op with
        | `Update (a, q) | `Reinsert (a, q) -> Dense.set d ~addr:a (row a q)
        | `Delete a -> Dense.remove d ~addr:a)
      script;
    count_stream (fun xmit ->
        ignore (Dense.refresh d ~snaptime ~restrict ~project:Fun.id ~xmit : Dense.report))
  in
  (* Generation 2: empty regions. *)
  let regions_msgs =
    let clock = Clock.create () in
    let r = Regions.create ~capacity:n ~schema ~clock () in
    List.iteri (fun i (id, q) -> Regions.insert_at r ~addr:(i + 1) (row id q)) init;
    let snaptime = Clock.now clock in
    List.iter
      (fun op ->
        match op with
        | `Update (a, q) -> (
          try Regions.update r ~addr:a (row a q)
          with Not_found -> Regions.insert_at r ~addr:a (row a q))
        | `Delete a -> ( try Regions.delete r ~addr:a with Not_found -> ())
        | `Reinsert (a, q) -> (
          try Regions.update r ~addr:a (row a q)
          with Not_found -> Regions.insert_at r ~addr:a (row a q)))
      script;
    count_stream (fun xmit ->
        ignore (Regions.refresh r ~snaptime ~restrict ~project:Fun.id ~xmit : Regions.report))
  in
  (* Generations 3/4: PrevAddr annotations over the real heap (eager and
     deferred transmit identically; run deferred). *)
  let prevaddr_msgs =
    let clock = Clock.create () in
    let base = Base_table.create ~name:"t" ~clock schema in
    let addrs =
      Array.of_list (List.map (fun (id, q) -> Base_table.insert base (row id q)) init)
    in
    ignore (Fixup.run base ~fixup_time:(Clock.tick clock) : Fixup.stats);
    let snaptime = Clock.now clock in
    List.iter
      (fun op ->
        let addr_of slot = addrs.(slot - 1) in
        match op with
        | `Update (a, q) -> (
          try Base_table.update base (addr_of a) (row a q) with Not_found -> ())
        | `Delete a -> ( try Base_table.delete base (addr_of a) with Not_found -> ())
        | `Reinsert (a, q) -> (
          match Base_table.get base (addr_of a) with
          | Some _ -> Base_table.update base (addr_of a) (row a q)
          | None -> ignore (Base_table.insert base (row a q) : S.Addr.t)))
      script;
    count_stream (fun xmit ->
        ignore
          (Differential.refresh ~base ~snaptime ~restrict:(Annotations.user_pred restrict) ~xmit ()
            : Differential.report))
  in
  [
    { generation = "1. simple dense space"; data_msgs = dense_msgs;
      note = "every changed address, one message each" };
    { generation = "2. explicit empty regions"; data_msgs = regions_msgs;
      note = "deletion runs combined; no tail needed" };
    { generation = "3/4. PrevAddr annotations"; data_msgs = prevaddr_msgs;
      note = "regions folded into entries + 1 tail" };
  ]

type wire_row = {
  wire_name : string;
  bytes_per_sec : float;
  latency_us : float;
  full_seconds : float;
  diff_seconds : float;
}

(* What the message savings buy in wall-clock terms on period-appropriate
   links: replay one refresh's byte stream through links with different
   bandwidth/latency and read the simulated transfer clock. *)
let wire_ablation ?(seed = 37) ?(n = 10_000) ?(u = 0.05) () =
  let q = 0.25 in
  (* Produce the two message streams once. *)
  let clock = Clock.create () in
  let base = Workload.make_base ~clock () in
  let rng = Rng.create seed in
  Workload.populate base ~rng ~n;
  ignore (Fixup.run base ~fixup_time:(Clock.tick clock) : Fixup.stats);
  let snaptime = Clock.now clock in
  let restrict = Eval.compile Workload.schema (Workload.restrict_fraction q) in
  ignore (Workload.update_fraction base ~rng ~u ~mix:Workload.payload_updates_only : int);
  let diff_stream = ref [] in
  ignore
    (Differential.refresh ~base ~snaptime ~restrict:(Annotations.user_pred restrict)
       ~xmit:(fun m -> diff_stream := m :: !diff_stream)
       ()
      : Differential.report);
  (* Full second: its pass restores annotations the differential scan reads. *)
  let full_stream = ref [] in
  ignore
    (Differential.refresh_full ~base ~restrict:(Annotations.user_pred restrict)
       ~xmit:(fun m -> full_stream := m :: !full_stream)
       ()
      : Differential.report);
  let wires =
    [
      (* 9600 baud leased line, painful per-message turnaround. *)
      ("9600 baud (1986 WAN)", 1_200.0, 30_000.0);
      (* 10 Mbps shared Ethernet. *)
      ("10 Mbps LAN (1986 LAN)", 1.25e6, 500.0);
      (* 1 Gbps datacenter link. *)
      ("1 Gbps (modern)", 1.25e8, 50.0);
    ]
  in
  List.map
    (fun (wire_name, bytes_per_sec, latency_us) ->
      let replay stream =
        let link = Link.create ~bytes_per_sec ~latency_us () in
        Link.attach link (fun _ _ -> ());
        List.iter (fun m -> Link.send link (Refresh_msg.encode m)) (List.rev stream);
        Link.simulated_time_us link /. 1e6
      in
      {
        wire_name;
        bytes_per_sec;
        latency_us;
        full_seconds = replay !full_stream;
        diff_seconds = replay !diff_stream;
      })
    wires

type cascade_row = {
  fanout : int;  (** cascaded children per parent *)
  parent_msgs : int;  (** parent refresh data messages *)
  cascade_msgs_total : int;  (** sent to all children *)
  independent_msgs_total : int;
      (** the same children defined directly on the base table instead *)
  children_faithful : bool;
      (** each child = the restriction of its parent's committed image *)
}

(* Cascading children off a parent snapshot versus defining each child as
   its own snapshot on the base table: each child diffs two images of the
   parent and costs the base table nothing extra. *)
let cascade_ablation ?(seed = 31) ?(n = 5_000) ?(u = 0.1) () =
  let module Manager = Snapdiff_core.Manager in
  let module Cascade = Snapdiff_core.Cascade in
  let module Snapshot_table = Snapdiff_core.Snapshot_table in
  let child_restrict i tuple =
    match Snapdiff_storage.Tuple.get tuple 2 with
    | Snapdiff_storage.Value.Int q ->
      Int64.to_int q mod 10 = i  (* disjoint slices of the parent *)
    | _ -> false
  in
  let run fanout =
    (* Cascaded setup. *)
    let clock = Clock.create () in
    let base = Workload.make_base ~clock () in
    let rng = Rng.create seed in
    Workload.populate base ~rng ~n;
    let mgr = Manager.create () in
    Manager.register_base mgr base;
    ignore
      (Manager.create_snapshot mgr ~name:"parent" ~base:"emp"
         ~restrict:(Workload.restrict_fraction 0.5) ~method_:Manager.Differential ()
        : Manager.refresh_report);
    let parent = Manager.snapshot_table mgr "parent" in
    let children =
      List.init fanout (fun i ->
          Cascade.attach ~upstream:parent ~name:(Printf.sprintf "c%d" i)
            ~restrict:(child_restrict i) ())
    in
    let refresh_children () =
      List.fold_left (fun acc c -> acc + (Cascade.refresh c).Manager.data_messages) 0 children
    in
    ignore (refresh_children () : int);
    ignore (Workload.update_fraction base ~rng ~u ~mix:Workload.payload_updates_only : int);
    let parent_report = Manager.refresh mgr "parent" in
    let cascade_msgs_total = refresh_children () in
    let children_faithful =
      List.for_all
        (fun (i, c) ->
          Snapshot_table.contents (Cascade.table c)
          = List.filter (fun (_, t) -> child_restrict i t) (Snapshot_table.contents parent)
          && Cascade.held_epoch c = Snapshot_table.last_committed_epoch parent)
        (List.mapi (fun i c -> (i, c)) children)
    in
    (* Independent setup: same children directly on the base. *)
    let clock2 = Clock.create () in
    let base2 = Workload.make_base ~clock:clock2 () in
    let rng2 = Rng.create seed in
    Workload.populate base2 ~rng:rng2 ~n;
    let mgr2 = Manager.create () in
    Manager.register_base mgr2 base2;
    let parent_pred = Eval.compile Workload.schema (Workload.restrict_fraction 0.5) in
    for i = 0 to fanout - 1 do
      (* Child predicate = parent restriction AND slice; expressed directly. *)
      let qual_slice =
        Expr.(
          Cmp (Eq, Arith (Mod, Col "qual", Const (Snapdiff_storage.Value.int 10)),
               Const (Snapdiff_storage.Value.int i)))
      in
      ignore
        (Manager.create_snapshot mgr2
           ~name:(Printf.sprintf "d%d" i)
           ~base:"emp"
           ~restrict:Expr.(And (Workload.restrict_fraction 0.5, qual_slice))
           ~method_:Manager.Differential ()
          : Manager.refresh_report)
    done;
    ignore parent_pred;
    ignore (Workload.update_fraction base2 ~rng:rng2 ~u ~mix:Workload.payload_updates_only : int);
    let independent_msgs_total =
      List.fold_left
        (fun acc i ->
          acc + (Manager.refresh mgr2 (Printf.sprintf "d%d" i)).Manager.data_messages)
        0
        (List.init fanout Fun.id)
    in
    {
      fanout;
      parent_msgs = parent_report.Manager.data_messages;
      cascade_msgs_total;
      independent_msgs_total;
      children_faithful;
    }
  in
  List.map run [ 1; 2; 4; 8 ]

type skew_row = {
  theta : float;
  ops_skew : int;
  diff_msgs_skew : int;
  ideal_msgs_skew : int;
}

let skew_ablation ?(seed = 23) ?(n = 10_000) ?(ops = 5_000) () =
  let q = 0.25 in
  let run theta =
    let clock = Clock.create () in
    let base = Workload.make_base ~clock () in
    let rng = Rng.create seed in
    Workload.populate base ~rng ~n;
    let log = Change_log.create () in
    ignore
    (Base_table.subscribe base (fun c -> ignore (Change_log.append log c : Change_log.seq))
      : Base_table.subscription);
    ignore (Fixup.run base ~fixup_time:(Clock.tick clock) : Fixup.stats);
    let snaptime = Clock.now clock in
    let cursor = Change_log.current_seq log in
    let restrict = Eval.compile Workload.schema (Workload.restrict_fraction q) in
    ignore (Workload.mutate_zipf base ~rng ~ops ~theta ~mix:Workload.payload_updates_only : int);
    let ideal =
      count_data (fun xmit ->
          ignore
            (Ideal.refresh ~base ~log ~cursor ~restrict ~project:Fun.id ~xmit ()
              : Ideal.report))
    in
    let diff =
      count_data (fun xmit ->
          ignore
            (Differential.refresh ~base ~snaptime ~restrict:(Annotations.user_pred restrict) ~xmit ()
              : Differential.report))
    in
    { theta; ops_skew = ops; diff_msgs_skew = diff; ideal_msgs_skew = ideal }
  in
  List.map run [ 0.0; 0.5; 0.9; 0.99 ]

type faults_row = {
  fault_name : string;
  fault_batch : int;
  fault_armed : bool;
  refresh_rounds : int;
  attempts_total : int;
  aborted_streams : int;
  escalations : int;
  refreshes_failed : int;
  wire_messages : int;
  faults_hit : int;
  converged : bool;
}

(* The refresh transport under adversarial links: every fault plan either
   converges (possibly escalating to a full refresh) or fails the refresh
   atomically -- the snapshot keeps its previous image and SnapTime, so a
   later round on a healed line covers the whole gap.  Wire messages
   (against the clean-line row) measure the retry tax.  Every plan runs
   under both framings — one message per frame, and the default batched
   frames — since a lost or garbled frame takes a different number of
   messages with it in each.  A plan is stated in logical messages and
   armed per frame, so at [b] messages a frame it is translated: a
   message rate [p] becomes [1 - (1-p)^b], the chance that a full frame
   carries a hit message, and "crash after 3 msgs" fails the frame that
   carries the fourth message.  A partition is already stated in sends
   (frames).  The burst stays armed until its first loss, so every armed
   plan injects at any [n]; [faults_hit] reports how much it did. *)
let faults_ablation ?(seed = 41) ?(n = 10_000) ?(q = 0.25) ?(rounds = 6) () =
  let module Manager = Snapdiff_core.Manager in
  let run fault_batch (fault_name, fault_armed, arm) =
    let clock = Clock.create () in
    let base = Workload.make_base ~clock () in
    let rng = Rng.create seed in
    Workload.populate base ~rng ~n;
    let mgr = Manager.create ~seed ~batch_size:fault_batch () in
    Manager.register_base mgr base;
    ignore
      (Manager.create_snapshot mgr ~name:"s" ~base:"emp"
         ~restrict:(Workload.restrict_fraction q) ~method_:Manager.Differential ()
        : Manager.refresh_report);
    let link = Manager.snapshot_link mgr "s" in
    Link.reset_stats link;
    (* A cascade child of [s], refreshed after each round's parent
       refresh; its link runs the same plan on another seed, translated
       at the child's own framing: a cascade batches at the default size
       whatever its parent's. *)
    let even_qual t = match t.(2) with Snapdiff_storage.Value.Int q -> Int64.rem q 2L = 0L | _ -> false in
    let child =
      Cascade.attach ~upstream:(Manager.snapshot_table mgr "s") ~name:"c" ~restrict:even_qual ()
    in
    ignore (Cascade.refresh child : Manager.refresh_report);
    let attempts = ref 0 and aborted = ref 0 and escal = ref 0 and failed = ref 0 in
    for round = 1 to rounds do
      ignore (Workload.update_fraction base ~rng ~u:0.02 ~mix:Workload.churn : int);
      arm link ~seed ~batch:fault_batch ~round;
      arm (Cascade.link child) ~seed:(seed + 1000) ~batch:Refresh_msg.default_batch_size ~round;
      (match Manager.refresh mgr "s" with
      | r ->
        attempts := !attempts + r.Manager.attempts;
        aborted := !aborted + r.Manager.aborts;
        if r.Manager.escalated then incr escal
      | exception Manager.Refresh_failed { attempts = a; _ } ->
        attempts := !attempts + a;
        aborted := !aborted + a;
        incr failed);
      ignore (Cascade.refresh child : Manager.refresh_report)
    done;
    let st = Link.stats link in
    let wire_messages = st.Link.messages in
    let faults_hit =
      st.Link.injected_drops + st.Link.injected_corruptions + st.Link.injected_failures
    in
    (* SnapTime only advances on commit, so one refresh on a clean line
       converges no matter how many rounds failed. *)
    Link.clear_faults link;
    Link.clear_faults (Cascade.link child);
    ignore (Manager.refresh mgr "s" : Manager.refresh_report);
    ignore (Cascade.refresh child : Manager.refresh_report);
    let restrict = Eval.compile Workload.schema (Workload.restrict_fraction q) in
    let expected = List.filter (fun (_, u) -> restrict u) (Base_table.to_user_list base) in
    let snap = Manager.snapshot_table mgr "s" in
    {
      fault_name;
      fault_batch;
      fault_armed;
      refresh_rounds = rounds;
      attempts_total = !attempts;
      aborted_streams = !aborted;
      escalations = !escal;
      refreshes_failed = !failed;
      wire_messages;
      faults_hit;
      converged =
        Snapshot_table.contents snap = expected
        && Snapshot_table.validate snap = Ok ()
        && Snapshot_table.contents (Cascade.table child) = List.filter (fun (_, t) -> even_qual t) expected
        && Cascade.held_epoch child = Snapshot_table.last_committed_epoch snap;
    }
  in
  let per_frame p ~batch = 1.0 -. ((1.0 -. p) ** float_of_int batch) in
  let plans =
    [
      ("clean line", false, fun _ ~seed:_ ~batch:_ ~round:_ -> ());
      ( "drop 5%",
        true,
        fun l ~seed ~batch ~round ->
          Link.inject_faults l ~drop_prob:(per_frame 0.05 ~batch) ~seed:(seed + round) () );
      ( "drop 5%, burst to first loss",
        true,
        fun l ~seed ~batch ~round ->
          if round = 1 then Link.inject_faults l ~drop_prob:(per_frame 0.05 ~batch) ~seed ()
          else if (Link.stats l).Link.injected_drops > 0 then Link.clear_faults l );
      ( "corrupt 5%",
        true,
        fun l ~seed ~batch ~round ->
          Link.inject_faults l ~corrupt_prob:(per_frame 0.05 ~batch) ~seed:(seed + round) () );
      ( "crash after 3 msgs",
        true,
        fun l ~seed ~batch ~round ->
          Link.inject_faults l ~fail_after:(3 / batch) ~seed:(seed + round) ()
      );
      ( "partition, sends 4-12",
        true,
        fun l ~seed ~batch:_ ~round ->
          if round = 1 then Link.inject_faults l ~partitions:[ (4, 12) ] ~seed () );
    ]
  in
  List.concat_map (fun batch -> List.map (run batch) plans) [ 1; Refresh_msg.default_batch_size ]

type prune_row = {
  prune_page_size : int;
  prune_mix : string;
  prune_u_pct : float;
  prune_n : int;
  prune_pages : int;
  pruned_scanned : int;
  pruned_skipped : int;
  pruned_msgs : int;
  unpruned_scanned : int;
  unpruned_msgs : int;
  prune_identical : bool;
}

(* Scan pruning: the same update activity refreshed by a pruned and an
   unpruned differential snapshot on one base table.  The unpruned scan
   decodes every entry every time; the pruned scan decodes only pages
   whose summary cannot prove them irrelevant, so its cost tracks change
   volume.  Page size is swept because it is the pruning granularity: one
   update dirties a whole page, so smaller pages isolate changes better.
   Payload-only updates never change whether an entry qualifies; updates
   that redraw [qual] do, so a pending deletion can cross a skipped page,
   whose cached first qualifying entry then carries it. *)
let prune_ablation ?(seed = 43) ?(n = 20_000) ?(u_list = [ 0.001; 0.01; 0.05; 0.2 ]) ()
    =
  let module Manager = Snapdiff_core.Manager in
  let q = 0.25 in
  let encode_contents snap =
    let buf = Buffer.create 4096 in
    List.iter
      (fun (addr, values) ->
        Buffer.add_bytes buf
          (Refresh_msg.encode
             (Refresh_msg.Upsert { addr; row = Snapdiff_storage.Row.of_tuple values })))
      (Snapshot_table.contents snap);
    Buffer.contents buf
  in
  let run (mix_name, mix) page_size =
    let clock = Clock.create () in
    let base = Workload.make_base ~page_size ~clock () in
    let rng = Rng.create seed in
    Workload.populate base ~rng ~n;
    let mgr = Manager.create () in
    Manager.register_base mgr base;
    let mk name prune =
      ignore
        (Manager.create_snapshot mgr ~name ~base:"emp"
           ~restrict:(Workload.restrict_fraction q) ~method_:Manager.Differential ~prune ()
          : Manager.refresh_report)
    in
    mk "pruned" true;
    mk "plain" false;
    (* Warm-up refresh: the first pruned refresh pays one full decode to
       build summaries and the qualification cache. *)
    ignore (Manager.refresh mgr "pruned" : Manager.refresh_report);
    ignore (Manager.refresh mgr "plain" : Manager.refresh_report);
    List.map
      (fun u ->
        ignore (Workload.update_fraction base ~rng ~u ~mix : int);
        let rp = Manager.refresh mgr "pruned" in
        let ru = Manager.refresh mgr "plain" in
        let identical =
          rp.Manager.data_messages = ru.Manager.data_messages
          && rp.Manager.link_bytes = ru.Manager.link_bytes
          && encode_contents (Manager.snapshot_table mgr "pruned")
             = encode_contents (Manager.snapshot_table mgr "plain")
        in
        {
          prune_page_size = page_size;
          prune_mix = mix_name;
          prune_u_pct = 100.0 *. u;
          prune_n = n;
          prune_pages = Base_table.data_pages base;
          pruned_scanned = rp.Manager.entries_scanned;
          pruned_skipped = rp.Manager.entries_skipped;
          pruned_msgs = rp.Manager.data_messages;
          unpruned_scanned = ru.Manager.entries_scanned;
          unpruned_msgs = ru.Manager.data_messages;
          prune_identical = identical;
        })
      u_list
  in
  List.concat_map
    (fun mix -> List.concat_map (run mix) [ 4096; 512 ])
    [ ("payload", Workload.payload_updates_only);
      ("qual_flip", { Workload.payload_updates_only with qual_flip = true }) ]

type wire_batch_row = {
  batch_u_pct : float;
  batch_threshold : int;
  batch_data_msgs : int;  (** logical data messages — the paper's metric *)
  batch_frames : int;  (** physical frames on the wire *)
  batch_logical : int;  (** logical messages carried, incl. bracketing *)
  batch_bytes : int;
}

(* Many messages per frame at full selectivity and low churn: the per-message
   framing overhead (link header + epoch/seq/checksum) dominates short
   streams, and coalescing k data messages per frame divides the physical
   message count by up to k without touching the logical stream. *)
let wire_batching_ablation ?(seed = 47) ?(n = 20_000) ?(u_list = [ 0.01; 0.05 ]) () =
  let module Manager = Snapdiff_core.Manager in
  let run u threshold =
    let clock = Clock.create () in
    let base = Workload.make_base ~clock () in
    let rng = Rng.create seed in
    Workload.populate base ~rng ~n;
    let mgr = Manager.create ~batch_size:threshold () in
    Manager.register_base mgr base;
    ignore
      (Manager.create_snapshot mgr ~name:"s" ~base:"emp" ~method_:Manager.Differential ()
        : Manager.refresh_report);
    ignore (Workload.update_fraction base ~rng ~u ~mix:Workload.payload_updates_only : int);
    let r = Manager.refresh mgr "s" in
    {
      batch_u_pct = 100.0 *. u;
      batch_threshold = threshold;
      batch_data_msgs = r.Manager.data_messages;
      batch_frames = r.Manager.link_messages;
      batch_logical = r.Manager.link_logical_messages;
      batch_bytes = r.Manager.link_bytes;
    }
  in
  List.concat_map (fun u -> List.map (run u) [ 1; 8; 64 ]) u_list
