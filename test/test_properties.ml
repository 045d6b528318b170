(* Property tests for the central invariant of the paper: after ANY refresh
   method runs, the snapshot equals the restriction+projection of the base
   table — for arbitrary operation scripts, restrictions, and refresh
   points, under both maintenance modes.  Plus structural invariants
   (fix-up idempotence, region tiling, codec roundtrips). *)

open Snapdiff_storage
open Snapdiff_txn
open Snapdiff_core
module Expr = Snapdiff_expr.Expr
module Gen = QCheck2.Gen

let emp_schema =
  Schema.make
    [ Schema.col ~nullable:false "name" Value.Tstring;
      Schema.col ~nullable:false "salary" Value.Tint ]

let emp name salary = Tuple.make [ Value.str name; Value.int salary ]

(* Operation scripts: indices are resolved against the live address list at
   execution time (mod its length), so every script is executable. *)
type op =
  | Ins of int  (* salary *)
  | Upd of int * int  (* victim index, new salary *)
  | Del of int  (* victim index *)
  | Refresh

let op_gen =
  Gen.frequency
    [
      (4, Gen.map (fun s -> Ins s) (Gen.int_range 0 19));
      (4, Gen.map2 (fun i s -> Upd (i, s)) (Gen.int_range 0 1000) (Gen.int_range 0 19));
      (3, Gen.map (fun i -> Del i) (Gen.int_range 0 1000));
      (2, Gen.pure Refresh);
    ]

let script_gen = Gen.list_size (Gen.int_range 0 60) op_gen

(* threshold in [0,20]: 0 = empty snapshot, 20 = everything qualifies. *)
let scenario_gen = Gen.pair script_gen (Gen.int_range 0 20)

let salary t = match Tuple.get t 1 with Value.Int s -> Int64.to_int s | _ -> -1

let expected_restricted base threshold =
  List.filter_map
    (fun (addr, u) -> if salary u < threshold then Some (addr, u) else None)
    (Base_table.to_user_list base)

let pick_live base i =
  let live = Base_table.to_user_list base in
  match live with
  | [] -> None
  | _ -> Some (fst (List.nth live (i mod List.length live)))

let fail_report = QCheck2.Test.fail_report

(* Drive one method through the Manager over a random script; check
   faithfulness at every refresh point. *)
let faithful_via_manager ~mode ~method_ (script, threshold) =
  let clock = Clock.create () in
  let wal = Snapdiff_wal.Wal.create () in
  let base = Base_table.create ~mode ~wal ~name:"emp" ~clock emp_schema in
  let m = Manager.create () in
  Manager.register_base m base;
  (* Seed rows so refreshes have something to chew on. *)
  for i = 0 to 7 do
    ignore (Base_table.insert base (emp (Printf.sprintf "seed%d" i) (i * 3 mod 20)) : Addr.t)
  done;
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp"
       ~restrict:Expr.(col "salary" <. int threshold)
       ~method_ ()
      : Manager.refresh_report);
  let check_faithful where =
    let got = Snapshot_table.contents (Manager.snapshot_table m "s") in
    let want = expected_restricted base threshold in
    if got <> want then
      fail_report
        (Printf.sprintf "%s: snapshot has %d entries, base view has %d" where
           (List.length got) (List.length want));
    match Snapshot_table.validate (Manager.snapshot_table m "s") with
    | Ok () -> ()
    | Error e -> fail_report ("snapshot invariant: " ^ e)
  in
  check_faithful "after create";
  let n = ref 0 in
  List.iter
    (fun op ->
      incr n;
      match op with
      | Ins s -> ignore (Base_table.insert base (emp (Printf.sprintf "x%d" !n) s) : Addr.t)
      | Upd (i, s) -> (
        match pick_live base i with
        | Some addr -> Base_table.update base addr (emp (Printf.sprintf "u%d" !n) s)
        | None -> ())
      | Del i -> (
        match pick_live base i with
        | Some addr -> Base_table.delete base addr
        | None -> ())
      | Refresh ->
        ignore (Manager.refresh m "s" : Manager.refresh_report);
        check_faithful (Printf.sprintf "after refresh at op %d" !n))
    script;
  ignore (Manager.refresh m "s" : Manager.refresh_report);
  check_faithful "final";
  true

let op_str = function
  | Ins s -> Printf.sprintf "Ins %d" s
  | Upd (i, s) -> Printf.sprintf "Upd(%d,%d)" i s
  | Del i -> Printf.sprintf "Del %d" i
  | Refresh -> "Refresh"

let print_scenario (script, threshold) =
  Printf.sprintf "threshold=%d script=[%s]" threshold
    (String.concat "; " (List.map op_str script))

let prop_faithful ~name ~mode ~method_ =
  QCheck2.Test.make ~name ~count:150 ~print:print_scenario scenario_gen
    (faithful_via_manager ~mode ~method_)

let prop_differential_deferred =
  prop_faithful ~name:"differential faithful (deferred)" ~mode:Base_table.Deferred
    ~method_:Manager.Differential

let prop_differential_eager =
  prop_faithful ~name:"differential faithful (eager)" ~mode:Base_table.Eager
    ~method_:Manager.Differential

let prop_full =
  prop_faithful ~name:"full faithful" ~mode:Base_table.Deferred ~method_:Manager.Full

let prop_ideal =
  prop_faithful ~name:"ideal faithful" ~mode:Base_table.Deferred ~method_:Manager.Ideal

let prop_log_based =
  prop_faithful ~name:"log-based faithful" ~mode:Base_table.Deferred ~method_:Manager.Log_based

let prop_auto =
  prop_faithful ~name:"auto faithful" ~mode:Base_table.Deferred ~method_:Manager.Auto

(* Tail suppression must not break faithfulness. *)
let prop_tail_suppression_faithful =
  QCheck2.Test.make ~name:"tail suppression faithful" ~count:100 scenario_gen
    (fun (script, threshold) ->
      let clock = Clock.create () in
      let base = Base_table.create ~name:"emp" ~clock emp_schema in
      let m = Manager.create () in
      Manager.register_base m base;
      for i = 0 to 7 do
        ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) (i * 3 mod 20)) : Addr.t)
      done;
      ignore
        (Manager.create_snapshot m ~name:"s" ~base:"emp"
           ~restrict:Expr.(col "salary" <. int threshold)
           ~method_:Manager.Differential ~tail_suppression:true ()
          : Manager.refresh_report);
      let n = ref 0 in
      List.iter
        (fun op ->
          incr n;
          match op with
          | Ins s -> ignore (Base_table.insert base (emp (Printf.sprintf "x%d" !n) s) : Addr.t)
          | Upd (i, s) -> (
            match pick_live base i with
            | Some addr -> Base_table.update base addr (emp (Printf.sprintf "u%d" !n) s)
            | None -> ())
          | Del i -> (
            match pick_live base i with
            | Some addr -> Base_table.delete base addr
            | None -> ())
          | Refresh -> ignore (Manager.refresh m "s" : Manager.refresh_report))
        script;
      ignore (Manager.refresh m "s" : Manager.refresh_report);
      Snapshot_table.contents (Manager.snapshot_table m "s")
      = expected_restricted base threshold)

(* Quiescence: an immediate second differential refresh transmits at most
   the tail message, and annotations are a fixpoint. *)
let prop_quiescent_refresh =
  QCheck2.Test.make ~name:"quiescent differential refresh sends only tail" ~count:100
    scenario_gen
    (fun (script, threshold) ->
      let clock = Clock.create () in
      let base = Base_table.create ~name:"emp" ~clock emp_schema in
      let n = ref 0 in
      List.iter
        (fun op ->
          incr n;
          match op with
          | Ins s -> ignore (Base_table.insert base (emp (Printf.sprintf "x%d" !n) s) : Addr.t)
          | Upd (i, s) -> (
            match pick_live base i with
            | Some addr -> Base_table.update base addr (emp (Printf.sprintf "u%d" !n) s)
            | None -> ())
          | Del i -> (
            match pick_live base i with
            | Some addr -> Base_table.delete base addr
            | None -> ())
          | Refresh -> ())
        script;
      let restrict t = salary t < threshold in
      let run snaptime =
        let count = ref 0 in
        let r =
          Differential.refresh ~base ~snaptime ~restrict:(Annotations.user_pred restrict)
            ~xmit:(fun m -> if Refresh_msg.is_data m then incr count)
            ()
        in
        (r, !count)
      in
      let r1, _ = run Clock.never in
      let r2, data2 = run r1.Differential.new_snaptime in
      data2 = 1 && r2.Differential.fixup_writes = 0)

(* Fix-up restores the exact predecessor chain. *)
let prop_fixup_restores_chain =
  QCheck2.Test.make ~name:"fixup restores predecessor chain" ~count:150 script_gen
    (fun script ->
      let clock = Clock.create () in
      let base = Base_table.create ~name:"emp" ~clock emp_schema in
      let n = ref 0 in
      List.iter
        (fun op ->
          incr n;
          match op with
          | Ins s -> ignore (Base_table.insert base (emp (Printf.sprintf "x%d" !n) s) : Addr.t)
          | Upd (i, s) -> (
            match pick_live base i with
            | Some addr -> Base_table.update base addr (emp (Printf.sprintf "u%d" !n) s)
            | None -> ())
          | Del i -> (
            match pick_live base i with
            | Some addr -> Base_table.delete base addr
            | None -> ())
          | Refresh ->
            ignore (Fixup.run base ~fixup_time:(Clock.tick clock) : Fixup.stats))
        script;
      ignore (Fixup.run base ~fixup_time:(Clock.tick clock) : Fixup.stats);
      (* Chain check: each entry's prev_addr is exactly its predecessor. *)
      let prev = ref Addr.zero in
      let ok = ref true in
      List.iter
        (fun (addr, _) ->
          (match Base_table.get_annotations base addr with
          | Some { Annotations.prev_addr = Some p; timestamp = Some _ } ->
            if p <> !prev then ok := false
          | _ -> ok := false);
          prev := addr)
        (Base_table.to_user_list base);
      (* Idempotence. *)
      let again = Fixup.run base ~fixup_time:(Clock.tick clock) in
      !ok && again.Fixup.writes = 0)

(* The eager and deferred disciplines transmit to the same final snapshot
   state from the same script. *)
let prop_eager_deferred_equivalent =
  QCheck2.Test.make ~name:"eager = deferred snapshot state" ~count:100 scenario_gen
    (fun (script, threshold) ->
      let run mode =
        let clock = Clock.create () in
        let base = Base_table.create ~mode ~name:"emp" ~clock emp_schema in
        let snap = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
        let restrict t = salary t < threshold in
        let refresh () =
          let msgs = ref [] in
          ignore
            (Differential.refresh ~base ~snaptime:(Snapshot_table.snaptime snap) ~restrict:(Annotations.user_pred restrict)
               ~xmit:(fun m -> msgs := m :: !msgs)
               ()
              : Differential.report);
          List.iter (Snapshot_table.apply snap) (List.rev !msgs)
        in
        let n = ref 0 in
        List.iter
          (fun op ->
            incr n;
            match op with
            | Ins s ->
              ignore (Base_table.insert base (emp (Printf.sprintf "x%d" !n) s) : Addr.t)
            | Upd (i, s) -> (
              match pick_live base i with
              | Some addr -> Base_table.update base addr (emp (Printf.sprintf "u%d" !n) s)
              | None -> ())
            | Del i -> (
              match pick_live base i with
              | Some addr -> Base_table.delete base addr
              | None -> ())
            | Refresh -> refresh ())
          script;
        refresh ();
        Snapshot_table.contents snap
      in
      run Base_table.Deferred = run Base_table.Eager)

(* Dense algorithm vs a model map over a small address space. *)
let dense_op_gen =
  Gen.frequency
    [
      (3, Gen.map2 (fun a s -> `Set (a, s)) (Gen.int_range 1 12) (Gen.int_range 0 19));
      (2, Gen.map (fun a -> `Remove a) (Gen.int_range 1 12));
      (1, Gen.pure `Refresh);
    ]

let prop_dense_faithful =
  QCheck2.Test.make ~name:"dense algorithm faithful" ~count:200
    (Gen.pair (Gen.list_size (Gen.int_range 0 50) dense_op_gen) (Gen.int_range 0 20))
    (fun (script, threshold) ->
      let clock = Clock.create () in
      let d = Dense.create ~capacity:12 ~schema:emp_schema ~clock () in
      let snap = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
      let restrict t = salary t < threshold in
      let refresh () =
        let msgs = ref [] in
        ignore
          (Dense.refresh d ~snaptime:(Snapshot_table.snaptime snap) ~restrict ~project:Fun.id
             ~xmit:(fun m -> msgs := m :: !msgs)
            : Dense.report);
        List.iter (Snapshot_table.apply snap) (List.rev !msgs)
      in
      List.iteri
        (fun i op ->
          match op with
          | `Set (a, s) -> Dense.set d ~addr:a (emp (Printf.sprintf "d%d" i) s)
          | `Remove a -> Dense.remove d ~addr:a
          | `Refresh -> refresh ())
        script;
      refresh ();
      let want = List.filter (fun (_, t) -> restrict t) (Dense.entries d) in
      Snapshot_table.contents snap = want)

(* Regions algorithm: faithfulness + tiling invariant throughout. *)
let regions_op_gen =
  Gen.frequency
    [
      (3, Gen.map (fun s -> `Ins s) (Gen.int_range 0 19));
      (2, Gen.map2 (fun a s -> `Upd (a, s)) (Gen.int_range 1 12) (Gen.int_range 0 19));
      (2, Gen.map (fun a -> `Del a) (Gen.int_range 1 12));
      (1, Gen.pure `Refresh);
    ]

let prop_regions_faithful =
  QCheck2.Test.make ~name:"regions algorithm faithful + tiled" ~count:200
    (Gen.pair (Gen.list_size (Gen.int_range 0 50) regions_op_gen) (Gen.int_range 0 20))
    (fun (script, threshold) ->
      let clock = Clock.create () in
      let r = Regions.create ~capacity:12 ~schema:emp_schema ~clock () in
      let snap = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
      let restrict t = salary t < threshold in
      let refresh () =
        let msgs = ref [] in
        ignore
          (Regions.refresh r ~snaptime:(Snapshot_table.snaptime snap) ~restrict ~project:Fun.id
             ~xmit:(fun m -> msgs := m :: !msgs)
            : Regions.report);
        List.iter (Snapshot_table.apply snap) (List.rev !msgs)
      in
      let ok = ref true in
      List.iteri
        (fun i op ->
          (match op with
          | `Ins s -> (
            match Regions.insert r (emp (Printf.sprintf "r%d" i) s) with
            | (_ : int) -> ()
            | exception Failure _ -> ())
          | `Upd (a, s) -> (
            try Regions.update r ~addr:a (emp (Printf.sprintf "u%d" i) s)
            with Not_found -> ())
          | `Del a -> ( try Regions.delete r ~addr:a with Not_found -> ())
          | `Refresh -> refresh ());
          if Regions.validate r <> Ok () then ok := false)
        script;
      refresh ();
      let want = List.filter (fun (_, t) -> restrict t) (Regions.entries r) in
      !ok && Snapshot_table.contents snap = want)

(* Message bounds: a differential refresh never transmits more than the
   number of currently qualified entries plus the one tail message, and
   never less than the ideal algorithm's net qualified changes would
   require upserts for. *)
let prop_message_bounds =
  QCheck2.Test.make ~name:"differential message bounds" ~count:150
    ~print:print_scenario scenario_gen
    (fun (script, threshold) ->
      let clock = Clock.create () in
      let base = Base_table.create ~name:"emp" ~clock emp_schema in
      for i = 0 to 7 do
        ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) (i * 3 mod 20)) : Addr.t)
      done;
      ignore (Fixup.run base ~fixup_time:(Clock.tick clock) : Fixup.stats);
      let snaptime = Clock.now clock in
      let n = ref 0 in
      List.iter
        (fun op ->
          incr n;
          match op with
          | Ins s -> ignore (Base_table.insert base (emp (Printf.sprintf "x%d" !n) s) : Addr.t)
          | Upd (i, s) -> (
            match pick_live base i with
            | Some addr -> Base_table.update base addr (emp (Printf.sprintf "u%d" !n) s)
            | None -> ())
          | Del i -> (
            match pick_live base i with
            | Some addr -> Base_table.delete base addr
            | None -> ())
          | Refresh -> ())
        script;
      let restrict t = salary t < threshold in
      let qualified =
        List.length (List.filter (fun (_, u) -> restrict u) (Base_table.to_user_list base))
      in
      let data = ref 0 in
      ignore
        (Differential.refresh ~base ~snaptime ~restrict:(Annotations.user_pred restrict)
           ~xmit:(fun m -> if Refresh_msg.is_data m then incr data)
           ()
          : Differential.report);
      !data <= qualified + 1)

(* Heap vs an association-list model: random op interleavings agree on
   contents, count, and address-order iteration; structural validation
   holds throughout. *)
let prop_heap_model =
  QCheck2.Test.make ~name:"heap matches model" ~count:150
    Gen.(
      list_size (int_range 0 120)
        (frequency
           [
             (4, map (fun s -> `Ins s) (int_range 0 50));
             (2, map2 (fun i s -> `Upd (i, s)) (int_range 0 1000) (int_range 0 50));
             (2, map (fun i -> `Del i) (int_range 0 1000));
           ]))
    (fun script ->
      let heap = Heap.create ~page_size:256 ~frames:4 emp_schema in
      let model : (Addr.t * Tuple.t) list ref = ref [] in
      let ok = ref true in
      List.iteri
        (fun step op ->
          match op with
          | `Ins s ->
            let t = emp (Printf.sprintf "m%d" step) s in
            let addr = Heap.insert heap t in
            if List.mem_assoc addr !model then ok := false;
            model := (addr, t) :: !model
          | `Upd (i, s) -> (
            match !model with
            | [] -> ()
            | l ->
              let addr, _ = List.nth l (i mod List.length l) in
              let t = emp (Printf.sprintf "u%d" step) s in
              Heap.update heap addr t;
              model := (addr, t) :: List.remove_assoc addr !model)
          | `Del i -> (
            match !model with
            | [] -> ()
            | l ->
              let addr, _ = List.nth l (i mod List.length l) in
              Heap.delete heap addr;
              model := List.remove_assoc addr !model))
        script;
      let expected = List.sort (fun (a, _) (b, _) -> Addr.compare a b) !model in
      let got = Heap.to_list heap in
      !ok
      && got = expected
      && Heap.count heap = List.length expected
      && Heap.validate heap = Ok ())

(* Stepwise-generation ordering: on the same script over the same address
   space, the regions variant never transmits more than the dense one
   (combining deletion runs can only help), and both remain faithful. *)
(* Stepwise-generation ordering, in the regime where it provably holds:
   updates and deletes but no address reuse.  (With delete+reinsert churn
   the regions variant can transmit a stamped remnant region the dense
   variant would not - found by this very property before the regime was
   restricted; the stepwise ablation measures the practical case.) *)
let print_dr (script, threshold) =
  let op = function
    | `Upd (a, s) -> Printf.sprintf "Upd(%d,%d)" a s
    | `Del a -> Printf.sprintf "Del %d" a
  in
  Printf.sprintf "threshold=%d [%s]" threshold (String.concat "; " (List.map op script))

let prop_dense_vs_regions_ordering =
  QCheck2.Test.make ~name:"regions <= dense (no address reuse)" ~count:150
    ~print:print_dr
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 40)
           (oneof
              [
                map2 (fun a s -> `Upd (a, s)) (int_range 1 15) (int_range 0 19);
                map (fun a -> `Del a) (int_range 1 15);
              ]))
        (int_range 0 20))
    (fun (script, threshold) ->
      let cap = 15 in
      let restrict t = salary t < threshold in
      let clock_d = Clock.create () in
      let dense = Dense.create ~capacity:cap ~schema:emp_schema ~clock:clock_d () in
      let clock_r = Clock.create () in
      let regions = Regions.create ~capacity:cap ~schema:emp_schema ~clock:clock_r () in
      (* Populate every address BEFORE the snapshot is taken. *)
      for a = 1 to cap do
        let t = emp (Printf.sprintf "init%d" a) (a mod 20) in
        Dense.set dense ~addr:a t;
        Regions.insert_at regions ~addr:a t
      done;
      let snap_d = Clock.now clock_d in
      let snap_r = Clock.now clock_r in
      (* Post-snapshot: updates of live entries, deletions; never reuse. *)
      List.iteri
        (fun i op ->
          match op with
          | `Upd (a, s) ->
            let t = emp (Printf.sprintf "u%d" i) s in
            if Dense.get dense ~addr:a <> None then begin
              Dense.set dense ~addr:a t;
              Regions.update regions ~addr:a t
            end
          | `Del a ->
            if Dense.get dense ~addr:a <> None then begin
              Dense.remove dense ~addr:a;
              Regions.delete regions ~addr:a
            end)
        script;
      let count f =
        let c = ref 0 in
        f (fun m -> if Refresh_msg.is_data m then incr c);
        !c
      in
      let d =
        count (fun xmit ->
            ignore
              (Dense.refresh dense ~snaptime:snap_d ~restrict ~project:Fun.id ~xmit
                : Dense.report))
      in
      let r =
        count (fun xmit ->
            ignore
              (Regions.refresh regions ~snaptime:snap_r ~restrict ~project:Fun.id ~xmit
                : Regions.report))
      in
      r <= d)

(* The tentpole equivalence: a pruned, batched differential refresh over a
   lossy link reaches exactly the same snapshot state as an unpruned,
   unbatched one and as the ideal algorithm — for random scripts, random
   fault seeds, both maintenance modes, and varying batch thresholds.
   Small pages make the page-summary skip logic actually fire. *)
let equiv_gen =
  Gen.quad scenario_gen Gen.bool
    (Gen.oneofl [ 1; 4; 32 ])
    (Gen.option (Gen.int_range 0 1000))

let print_equiv (sc, eager, batch, seed) =
  Printf.sprintf "%s mode=%s batch=%d fault_seed=%s" (print_scenario sc)
    (if eager then "eager" else "deferred")
    batch
    (match seed with None -> "-" | Some s -> string_of_int s)

let prop_pruned_batched_ideal_equiv =
  QCheck2.Test.make ~name:"pruned+batched = unpruned = ideal" ~count:80
    ~print:print_equiv equiv_gen
    (fun ((script, threshold), eager, batch, fault_seed) ->
      let mode = if eager then Base_table.Eager else Base_table.Deferred in
      let clock = Clock.create () in
      let base = Base_table.create ~mode ~page_size:256 ~name:"emp" ~clock emp_schema in
      let retry = { Manager.default_retry_policy with max_attempts = 60 } in
      let m = Manager.create ~retry ~batch_size:batch () in
      Manager.register_base m base;
      for i = 0 to 7 do
        ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) (i * 3 mod 20)) : Addr.t)
      done;
      let restrict = Expr.(col "salary" <. int threshold) in
      let lossy = Snapdiff_net.Link.create ~name:"lossy" () in
      ignore
        (Manager.create_snapshot m ~name:"pruned" ~base:"emp" ~restrict
           ~method_:Manager.Differential ~link:lossy ~prune:true ()
          : Manager.refresh_report);
      ignore
        (Manager.create_snapshot m ~name:"plain" ~base:"emp" ~restrict
           ~method_:Manager.Differential ~prune:false ()
          : Manager.refresh_report);
      ignore
        (Manager.create_snapshot m ~name:"ideal" ~base:"emp" ~restrict
           ~method_:Manager.Ideal ()
          : Manager.refresh_report);
      (* Arm the fault plan only after the initial population, so every
         subsequent pruned stream fights drops and corruptions. *)
      (match fault_seed with
      | Some seed ->
        Snapdiff_net.Link.inject_faults lossy ~drop_prob:0.03 ~corrupt_prob:0.02 ~seed ()
      | None -> ());
      let check_all where =
        let want = expected_restricted base threshold in
        List.iter
          (fun name ->
            ignore (Manager.refresh m name : Manager.refresh_report);
            let got = Snapshot_table.contents (Manager.snapshot_table m name) in
            if got <> want then
              fail_report
                (Printf.sprintf "%s: %s has %d entries, base view has %d" where name
                   (List.length got) (List.length want)))
          [ "pruned"; "plain"; "ideal" ]
      in
      let n = ref 0 in
      List.iter
        (fun op ->
          incr n;
          match op with
          | Ins s -> ignore (Base_table.insert base (emp (Printf.sprintf "x%d" !n) s) : Addr.t)
          | Upd (i, s) -> (
            match pick_live base i with
            | Some addr -> Base_table.update base addr (emp (Printf.sprintf "u%d" !n) s)
            | None -> ())
          | Del i -> (
            match pick_live base i with
            | Some addr -> Base_table.delete base addr
            | None -> ())
          | Refresh -> check_all (Printf.sprintf "refresh at op %d" !n))
        script;
      check_all "final";
      true)

(* Page summaries are not persisted: they must be rebuilt after buffer-pool
   eviction pressure (Second_chance, 3 frames) and after dropping the
   Base_table and re-attaching to the same pool ([on_pool] restart).  The
   per-snapshot qualification cache deliberately survives the restart —
   its stale tokens must all miss against the rebuilt summaries. *)
let prop_pruned_eviction_restart =
  QCheck2.Test.make ~name:"pruned refresh exact across eviction and restart" ~count:60
    ~print:print_scenario scenario_gen
    (fun (script, threshold) ->
      let store = Page_store.in_memory ~page_size:256 () in
      let pool = Buffer_pool.create ~frames:3 ~policy:Buffer_pool.Second_chance store in
      let clock = Clock.create () in
      let base = ref (Base_table.on_pool ~name:"emp" ~clock pool emp_schema) in
      let snap_p = Snapshot_table.create ~name:"p" ~schema:emp_schema () in
      let snap_u = Snapshot_table.create ~name:"u" ~schema:emp_schema () in
      let cache = Differential.Prune_cache.create () in
      let restrict t = salary t < threshold in
      let refresh_one ?prune snap =
        let msgs = ref [] in
        ignore
          (Differential.refresh ?prune ~base:!base
             ~snaptime:(Snapshot_table.snaptime snap) ~restrict:(Annotations.user_pred restrict)
             ~xmit:(fun m -> msgs := m :: !msgs)
             ()
            : Differential.report);
        List.iter (Snapshot_table.apply snap) (List.rev !msgs)
      in
      let check where =
        refresh_one ~prune:cache snap_p;
        refresh_one snap_u;
        let want = expected_restricted !base threshold in
        if Snapshot_table.contents snap_p <> want then
          fail_report (where ^ ": pruned snapshot diverged from base view");
        if Snapshot_table.contents snap_u <> want then
          fail_report (where ^ ": unpruned snapshot diverged from base view")
      in
      check "initial";
      let restart_at = List.length script / 2 in
      let n = ref 0 in
      List.iter
        (fun op ->
          incr n;
          if !n = restart_at then begin
            Base_table.flush !base;
            base := Base_table.on_pool ~name:"emp" ~clock pool emp_schema
          end;
          match op with
          | Ins s -> ignore (Base_table.insert !base (emp (Printf.sprintf "x%d" !n) s) : Addr.t)
          | Upd (i, s) -> (
            match pick_live !base i with
            | Some addr -> Base_table.update !base addr (emp (Printf.sprintf "u%d" !n) s)
            | None -> ())
          | Del i -> (
            match pick_live !base i with
            | Some addr -> Base_table.delete !base addr
            | None -> ())
          | Refresh -> check (Printf.sprintf "refresh at op %d" !n))
        script;
      check "final";
      true)

(* Deterministic regression for the slot-reuse hazard: an insert into a
   reclaimed slot re-aligns the predecessor chain through the pages after
   it, so a later deletion of that same entry leaves those pages looking
   untouched (no timestamp newer than SnapTime).  A skip rule that checked
   only the page's max timestamp would never decode them and the snapshot
   would keep the deleted row; the chain-alignment conditions force the
   decode.  Verified against the unpruned scan at every step. *)
let test_prune_insert_reuse_delete () =
  let clock = Clock.create () in
  let base = Base_table.create ~page_size:256 ~name:"emp" ~clock emp_schema in
  let addrs =
    Array.init 12 (fun i -> Base_table.insert base (emp (Printf.sprintf "s%d" i) i))
  in
  let snap = Snapshot_table.create ~name:"p" ~schema:emp_schema () in
  let cache = Differential.Prune_cache.create () in
  let restrict _ = true in
  let refresh where =
    let msgs = ref [] in
    ignore
      (Differential.refresh ~prune:cache ~base ~snaptime:(Snapshot_table.snaptime snap)
         ~restrict:(Annotations.user_pred restrict)
         ~xmit:(fun m -> msgs := m :: !msgs)
         ()
        : Differential.report);
    List.iter (Snapshot_table.apply snap) (List.rev !msgs);
    Alcotest.(check bool)
      (where ^ ": snapshot = base") true
      (Snapshot_table.contents snap = Base_table.to_user_list base)
  in
  refresh "populate";
  (* Free a mid-table slot, publish the deletion, let the pages settle. *)
  Base_table.delete base addrs.(5);
  refresh "after delete";
  refresh "quiescent";
  (* Reuse the slot, publish the insert (this repoints the successor's
     chain), then delete it again: the only evidence is the dangling
     predecessor pointer on a page with no fresh timestamps. *)
  let a_new = Base_table.insert base (emp "reused" 99) in
  Alcotest.(check bool) "slot was reused" true (a_new = addrs.(5));
  refresh "after reuse";
  Base_table.delete base a_new;
  refresh "after delete of reused";
  Alcotest.(check bool)
    "deleted entry is gone" true
    (not (List.mem_assoc a_new (Snapshot_table.contents snap)))

(* Message codec roundtrip over random values. *)
let value_gen =
  Gen.oneof
    [
      Gen.pure Value.Null;
      Gen.map (fun i -> Value.Int (Int64.of_int i)) Gen.int;
      Gen.map (fun f -> Value.Float f) Gen.float;
      Gen.map (fun s -> Value.Str s) (Gen.string_size (Gen.int_range 0 40));
      Gen.map (fun b -> Value.Bool b) Gen.bool;
    ]

let tuple_gen = Gen.map Array.of_list (Gen.list_size (Gen.int_range 0 8) value_gen)

let msg_gen =
  Gen.oneof
    [
      Gen.map2
        (fun a t -> Refresh_msg.Entry { addr = abs a; prev_qual = abs a / 2; row = Row.of_tuple t })
        Gen.int tuple_gen;
      Gen.map (fun a -> Refresh_msg.Tail { last_qual = abs a }) Gen.int;
      Gen.map2 (fun a b -> Refresh_msg.Region { lo = min (abs a) (abs b); hi = max (abs a) (abs b) }) Gen.int Gen.int;
      Gen.map2 (fun a t -> Refresh_msg.Upsert { addr = abs a;
          row = Row.of_tuple t }) Gen.int tuple_gen;
      Gen.map (fun a -> Refresh_msg.Remove { addr = abs a }) Gen.int;
      Gen.pure Refresh_msg.Clear;
      Gen.map (fun ts -> Refresh_msg.Snaptime (abs ts)) Gen.int;
    ]

(* Each message raw, and all of them as one frame: a frame carries any
   number of messages, a lone one unwrapped. *)
let prop_msg_roundtrip =
  QCheck2.Test.make ~name:"refresh message codec roundtrip" ~count:500
    (Gen.list_size (Gen.int_range 0 6) msg_gen)
    (fun ms ->
      let _, got = Refresh_msg.decode_framed (Refresh_msg.encode_framed ~epoch:1 ~seq:0 ms) in
      List.for_all (fun m -> Refresh_msg.equal m (Refresh_msg.decode (Refresh_msg.encode m))) ms
      && List.equal Refresh_msg.equal ms got)

(* ---- Group refresh ----------------------------------------------------- *)

(* The group scan must be indistinguishable, per subscriber, from a
   sequence of solo refreshes in the same order.  Twin universes replay
   the same script; the group universe's scan ticks the clock once per
   subscriber and the solo universe once per refresh, so the clocks stay
   in lockstep and even the Snaptime trailers must match byte for byte.
   [prune_mask] mixes cached and uncached subscribers in one group —
   their skip decisions differ per page, which is exactly where the
   demultiplexing could leak one subscriber's state into another's
   stream.  [full_mask] makes subscribers full or differential, rotated
   by one bit at each refresh, so one snapshot switches kinds: a full
   pass fills the qualification cache the next differential pass reads. *)
let group_gen =
  Gen.quad scenario_gen Gen.bool (Gen.int_range 2 3)
    (Gen.pair (Gen.int_range 0 7) (Gen.int_range 0 7))

let print_group (sc, eager, nsubs, (prune_mask, full_mask)) =
  Printf.sprintf "%s mode=%s nsubs=%d prune_mask=%d full_mask=%d" (print_scenario sc)
    (if eager then "eager" else "deferred")
    nsubs prune_mask full_mask

let bytes_of_stream ms =
  String.concat "" (List.map (fun m -> Bytes.to_string (Refresh_msg.encode m)) ms)

let prop_group_solo_byte_identity =
  QCheck2.Test.make ~name:"group refresh stream = solo stream, byte for byte" ~count:80
    ~print:print_group group_gen
    (fun ((script, threshold), eager, nsubs, (prune_mask, full_mask)) ->
      let mode = if eager then Base_table.Eager else Base_table.Deferred in
      let mk_base () =
        let clock = Clock.create () in
        let base = Base_table.create ~mode ~page_size:256 ~name:"emp" ~clock emp_schema in
        for i = 0 to 7 do
          ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) (i * 3 mod 20)) : Addr.t)
        done;
        base
      in
      let base_g = mk_base () in
      let base_s = mk_base () in
      let thresholds = Array.init nsubs (fun i -> (threshold + (i * 7)) mod 21) in
      let mk_side () =
        Array.init nsubs (fun i ->
            ( Snapshot_table.create ~name:(Printf.sprintf "s%d" i) ~schema:emp_schema (),
              if (prune_mask lsr i) land 1 = 1 then
                Some (Differential.Prune_cache.create ())
              else None ))
      in
      let side_g = mk_side () in
      let side_s = mk_side () in
      let restrict_of th t = salary t < th in
      let refreshes = ref 0 in
      let full i = (full_mask lsr ((i + !refreshes) mod 3)) land 1 = 1 in
      let group_streams () =
        let outs = Array.init nsubs (fun _ -> ref []) in
        let gsubs =
          Array.mapi
            (fun i (snap, prune) ->
              {
                Differential.sub_full = full i;
                sub_snaptime = Snapshot_table.snaptime snap;
                sub_restrict = Annotations.user_pred (restrict_of thresholds.(i));
                sub_project = None;
                sub_tail_suppression = None;
                sub_prune = prune;
                sub_xmit = Differential.each (fun m -> outs.(i) := m :: !(outs.(i)));
              })
            side_g
        in
        let g = Differential.refresh_group ~base:base_g gsubs in
        (* The physical decode count never exceeds what the subscribers
           were charged. *)
        if g.Differential.group_decodes_saved < 0 then
          fail_report "group scan decoded more pages than its subscribers consumed";
        (Array.map (fun o -> List.rev !o) outs, g.Differential.group_pages_decoded)
      in
      let solo_streams () =
        let decoded = ref 0 in
        let streams =
          Array.mapi
            (fun i (snap, prune) ->
              let out = ref [] in
              let restrict = Annotations.user_pred (restrict_of thresholds.(i)) in
              let xmit m = out := m :: !out in
              let r =
                if full i then Differential.refresh_full ?prune ~base:base_s ~restrict ~xmit ()
                else
                  Differential.refresh ?prune ~base:base_s
                    ~snaptime:(Snapshot_table.snaptime snap) ~restrict ~xmit ()
              in
              decoded := !decoded + r.Differential.pages_decoded;
              List.rev !out)
            side_s
        in
        (streams, !decoded)
      in
      let check where =
        let gs, group_decoded = group_streams () in
        let ss, solo_decoded = solo_streams () in
        (* The amortization: one scan decodes no more pages than the solo
           scans of its subscribers do between them. *)
        if group_decoded > solo_decoded then
          fail_report
            (Printf.sprintf "%s: group scan decoded %d pages, the solo scans %d" where
               group_decoded solo_decoded);
        for i = 0 to nsubs - 1 do
          if bytes_of_stream gs.(i) <> bytes_of_stream ss.(i) then
            fail_report
              (Printf.sprintf "%s: subscriber %d group stream <> solo stream" where i);
          List.iter (Snapshot_table.apply (fst side_g.(i))) gs.(i);
          List.iter (Snapshot_table.apply (fst side_s.(i))) ss.(i);
          let want =
            List.filter_map
              (fun (a, u) -> if salary u < thresholds.(i) then Some (a, u) else None)
              (Base_table.to_user_list base_g)
          in
          if Snapshot_table.contents (fst side_g.(i)) <> want then
            fail_report (Printf.sprintf "%s: subscriber %d diverged from base view" where i)
        done;
        incr refreshes
      in
      check "initial";
      let n = ref 0 in
      List.iter
        (fun op ->
          incr n;
          (match op with
          | Ins s ->
            ignore (Base_table.insert base_g (emp (Printf.sprintf "x%d" !n) s) : Addr.t);
            ignore (Base_table.insert base_s (emp (Printf.sprintf "x%d" !n) s) : Addr.t)
          | Upd (i, s) -> (
            match pick_live base_g i with
            | Some addr ->
              Base_table.update base_g addr (emp (Printf.sprintf "u%d" !n) s);
              Base_table.update base_s addr (emp (Printf.sprintf "u%d" !n) s)
            | None -> ())
          | Del i -> (
            match pick_live base_g i with
            | Some addr ->
              Base_table.delete base_g addr;
              Base_table.delete base_s addr
            | None -> ())
          | Refresh -> check (Printf.sprintf "refresh at op %d" !n)))
        script;
      check "final";
      true)

(* Pruning never changes a stream, message for message.  Twin universes
   replay one script: a group of pruned subscribers on one base, their
   unpruned twins on the other, so both clocks tick alike and even the
   Snaptime trailers must match.  Low thresholds leave most entries
   unqualified, so a changed unqualified entry sets [Deletion] and the
   next qualifier is often on a later page the summaries would skip; the
   projections (all columns, one, both reordered) make a cached row that
   ignored the subscriber's projection visible on the wire.  A subscriber
   runs full at every fifth refresh, rotated by its index, so a full
   pass's rows fill the cache a differential pass reads. *)
let stream_identity_gen =
  Gen.triple script_gen Gen.bool
    (Gen.triple (Gen.int_range 1 8) (Gen.int_range 1 8) (Gen.int_range 1 8))

let prop_pruned_stream_identity =
  QCheck2.Test.make ~name:"pruned stream = unpruned stream, message for message" ~count:150
    ~print:(fun (script, eager, (a, b, c)) ->
      Printf.sprintf "%s mode=%s thresholds=%d,%d,%d"
        (print_scenario (script, 0))
        (if eager then "eager" else "deferred")
        a b c)
    stream_identity_gen
    (fun (script, eager, (t0, t1, t2)) ->
      let mode = if eager then Base_table.Eager else Base_table.Deferred in
      let mk_base () =
        let clock = Clock.create () in
        let base = Base_table.create ~mode ~page_size:256 ~name:"emp" ~clock emp_schema in
        for i = 0 to 39 do
          ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) (i * 7 mod 20)) : Addr.t)
        done;
        base
      in
      let thresholds = [| t0; t1; t2 |] in
      let projections = [| None; Some [| 1 |]; Some [| 1; 0 |] |] in
      let side pruned =
        ( mk_base (),
          Array.map (fun _ -> if pruned then Some (Differential.Prune_cache.create ()) else None)
            thresholds,
          Array.map (fun _ -> Clock.never) thresholds )
      in
      let pruned = side true and plain = side false in
      let refreshes = ref 0 in
      let streams (base, caches, snaptimes) =
        let outs = Array.map (fun _ -> ref []) thresholds in
        let subs =
          Array.mapi
            (fun i th ->
              {
                Differential.sub_full = (!refreshes + i) mod 5 = 0;
                sub_snaptime = snaptimes.(i);
                sub_restrict = Annotations.user_pred (fun t -> salary t < th);
                sub_project = projections.(i);
                sub_tail_suppression = None;
                sub_prune = caches.(i);
                sub_xmit =
                  Differential.each (fun m -> outs.(i) := Refresh_msg.encode m :: !(outs.(i)));
              })
            thresholds
        in
        let g = Differential.refresh_group ~base subs in
        Array.iteri
          (fun i r -> snaptimes.(i) <- r.Differential.new_snaptime)
          g.Differential.sub_reports;
        Array.map (fun o -> List.rev !o) outs
      in
      let check where =
        let ps = streams pruned and us = streams plain in
        Array.iteri
          (fun i p ->
            if List.length p <> List.length us.(i) then
              fail_report
                (Printf.sprintf "%s: subscriber %d sent %d messages pruned, %d unpruned" where i
                   (List.length p) (List.length us.(i)));
            List.iteri
              (fun k (mp, mu) ->
                if not (Bytes.equal mp mu) then
                  fail_report
                    (Printf.sprintf "%s: subscriber %d message %d: pruned %s, unpruned %s" where
                       i k
                       (Format.asprintf "%a" Refresh_msg.pp (Refresh_msg.decode mp))
                       (Format.asprintf "%a" Refresh_msg.pp (Refresh_msg.decode mu))))
              (List.combine p us.(i)))
          ps;
        incr refreshes
      in
      let (base_p, _, _), (base_u, _, _) = (pruned, plain) in
      check "initial";
      let n = ref 0 in
      List.iter
        (fun op ->
          incr n;
          match op with
          | Ins s ->
            ignore (Base_table.insert base_p (emp (Printf.sprintf "x%d" !n) s) : Addr.t);
            ignore (Base_table.insert base_u (emp (Printf.sprintf "x%d" !n) s) : Addr.t)
          | Upd (i, s) -> (
            match pick_live base_p i with
            | Some addr ->
              Base_table.update base_p addr (emp (Printf.sprintf "u%d" !n) s);
              Base_table.update base_u addr (emp (Printf.sprintf "u%d" !n) s)
            | None -> ())
          | Del i -> (
            match pick_live base_p i with
            | Some addr ->
              Base_table.delete base_p addr;
              Base_table.delete base_u addr
            | None -> ())
          | Refresh -> check (Printf.sprintf "refresh at op %d" !n))
        script;
      check "final";
      true)

(* A pending deletion carried onto an unchanged page rides the cache:
   the entry that stops qualifying at the end of page p sets [Deletion],
   and page p+1's first qualifier goes out from the cache with the
   deletion's gap, so the scan decodes page p alone.  The stream equals
   an unpruned twin's and the snapshot drops the row. *)
let test_carried_deletion_decodes_changed_page () =
  List.iter
    (fun mode ->
      let where = if mode = Base_table.Eager then "eager" else "deferred" in
      let mk () =
        let clock = Clock.create () in
        let base = Base_table.create ~mode ~page_size:256 ~name:"emp" ~clock emp_schema in
        let addrs =
          Array.init 30 (fun i -> Base_table.insert base (emp (Printf.sprintf "s%d" i) 5))
        in
        (base, addrs)
      in
      let base, addrs = mk () and twin, _ = mk () in
      let snap = Snapshot_table.create ~name:"p" ~schema:emp_schema () in
      let cache = Differential.Prune_cache.create () in
      let twin_snaptime = ref Clock.never in
      let restrict = Annotations.user_pred (fun t -> salary t < 10) in
      let refresh () =
        let msgs = ref [] and twin_msgs = ref [] in
        let g =
          Differential.refresh_group ~base
            [| { Differential.sub_full = false; sub_snaptime = Snapshot_table.snaptime snap;
                 sub_restrict = restrict; sub_project = None; sub_tail_suppression = None;
                 sub_prune = Some cache; sub_xmit = Differential.each (fun m -> msgs := m :: !msgs) } |]
        in
        let r =
          Differential.refresh ~base:twin ~snaptime:!twin_snaptime ~restrict
            ~xmit:(fun m -> twin_msgs := m :: !twin_msgs)
            ()
        in
        twin_snaptime := r.Differential.new_snaptime;
        Alcotest.(check string)
          (where ^ ": stream = unpruned twin's")
          (bytes_of_stream (List.rev !twin_msgs))
          (bytes_of_stream (List.rev !msgs));
        List.iter (Snapshot_table.apply snap) (List.rev !msgs);
        g
      in
      ignore (refresh () : Differential.group_report);
      ignore (refresh () : Differential.group_report);
      let on_page p = Array.to_list addrs |> List.filter (fun a -> Addr.page a = p) in
      let page1 = on_page 1 and page2 = on_page 2 in
      Alcotest.(check bool) (where ^ ": three pages or more") true
        (page2 <> [] && on_page 3 <> []);
      let victim = List.nth page1 (List.length page1 - 1) in
      Base_table.update base victim (emp "gone" 50);
      Base_table.update twin victim (emp "gone" 50);
      let g = refresh () in
      let r = g.Differential.sub_reports.(0) in
      Alcotest.(check int) (where ^ ": pages decoded") 1 g.Differential.group_pages_decoded;
      Alcotest.(check int) (where ^ ": entries scanned") (List.length page1)
        r.Differential.entries_scanned;
      Alcotest.(check int)
        (where ^ ": entries skipped, page 2's among them")
        (Array.length addrs - List.length page1)
        r.Differential.entries_skipped;
      Alcotest.(check int) (where ^ ": page 2's first entry and the tail") 2
        r.Differential.data_messages;
      Alcotest.(check bool) (where ^ ": row dropped") false
        (List.mem_assoc victim (Snapshot_table.contents snap));
      Alcotest.(check bool) (where ^ ": snapshot = restricted base") true
        (Snapshot_table.contents snap = expected_restricted base 10))
    [ Base_table.Deferred; Base_table.Eager ]

(* Satellite: per-subscriber qualification caches under a group scan must
   never cross-contaminate.  Two subscribers with different restrictions
   share every page of a tiny pool-backed table (3 frames, second chance,
   so summaries are constantly evicted and rebuilt), the base table is
   dropped and re-attached to the pool mid-script, and both subscribers'
   group streams must remain byte-identical to their solo twins. *)
let prop_group_prune_isolation =
  QCheck2.Test.make
    ~name:"group prune caches isolated across eviction and restart" ~count:50
    ~print:print_scenario scenario_gen
    (fun (script, threshold) ->
      let thresholds = [| threshold; (threshold + 11) mod 21 |] in
      let mk () =
        let store = Page_store.in_memory ~page_size:256 () in
        let pool = Buffer_pool.create ~frames:3 ~policy:Buffer_pool.Second_chance store in
        let clock = Clock.create () in
        (pool, ref (Base_table.on_pool ~name:"emp" ~clock pool emp_schema), clock)
      in
      let pool_g, base_g, clock_g = mk () in
      let pool_s, base_s, clock_s = mk () in
      ignore (clock_g, clock_s);
      let mk_side () =
        Array.init 2 (fun i ->
            ( Snapshot_table.create ~name:(Printf.sprintf "s%d" i) ~schema:emp_schema (),
              Differential.Prune_cache.create () ))
      in
      let side_g = mk_side () in
      let side_s = mk_side () in
      let restrict_of th t = salary t < th in
      let check where =
        let outs = Array.init 2 (fun _ -> ref []) in
        let gsubs =
          Array.mapi
            (fun i (snap, cache) ->
              {
                Differential.sub_full = false;
                sub_snaptime = Snapshot_table.snaptime snap;
                sub_restrict = Annotations.user_pred (restrict_of thresholds.(i));
                sub_project = None;
                sub_tail_suppression = None;
                sub_prune = Some cache;
                sub_xmit = Differential.each (fun m -> outs.(i) := m :: !(outs.(i)));
              })
            side_g
        in
        ignore (Differential.refresh_group ~base:!base_g gsubs : Differential.group_report);
        Array.iteri
          (fun i (snap, cache) ->
            let out = ref [] in
            ignore
              (Differential.refresh ~prune:cache ~base:!base_s
                 ~snaptime:(Snapshot_table.snaptime snap)
                 ~restrict:(Annotations.user_pred (restrict_of thresholds.(i)))
                 ~xmit:(fun m -> out := m :: !out)
                 ()
                : Differential.report);
            let gms = List.rev !(outs.(i)) in
            let sms = List.rev !out in
            if bytes_of_stream gms <> bytes_of_stream sms then
              fail_report
                (Printf.sprintf "%s: subscriber %d group stream <> solo stream" where i);
            List.iter (Snapshot_table.apply (fst side_g.(i))) gms;
            List.iter (Snapshot_table.apply snap) sms;
            let want =
              List.filter_map
                (fun (a, u) -> if salary u < thresholds.(i) then Some (a, u) else None)
                (Base_table.to_user_list !base_g)
            in
            if Snapshot_table.contents (fst side_g.(i)) <> want then
              fail_report (Printf.sprintf "%s: subscriber %d diverged" where i))
          side_s
      in
      check "initial";
      let restart_at = List.length script / 2 in
      let n = ref 0 in
      List.iter
        (fun op ->
          incr n;
          if !n = restart_at then begin
            Base_table.flush !base_g;
            base_g := Base_table.on_pool ~name:"emp" ~clock:clock_g pool_g emp_schema;
            Base_table.flush !base_s;
            base_s := Base_table.on_pool ~name:"emp" ~clock:clock_s pool_s emp_schema
          end;
          match op with
          | Ins s ->
            ignore (Base_table.insert !base_g (emp (Printf.sprintf "x%d" !n) s) : Addr.t);
            ignore (Base_table.insert !base_s (emp (Printf.sprintf "x%d" !n) s) : Addr.t)
          | Upd (i, s) -> (
            match pick_live !base_g i with
            | Some addr ->
              Base_table.update !base_g addr (emp (Printf.sprintf "u%d" !n) s);
              Base_table.update !base_s addr (emp (Printf.sprintf "u%d" !n) s)
            | None -> ())
          | Del i -> (
            match pick_live !base_g i with
            | Some addr ->
              Base_table.delete !base_g addr;
              Base_table.delete !base_s addr
            | None -> ())
          | Refresh -> check (Printf.sprintf "refresh at op %d" !n))
        script;
      check "final";
      true)

(* Manager-level fault isolation: three differential snapshots refresh as
   one group; the middle one's link fights a seeded fault plan.  A twin
   universe runs the same script fault-free.  The healthy members'
   logical streams must be identical across universes (modulo Snaptime
   values, which legitimately diverge once the faulty member's solo
   retries tick the clock), their contents faithful every round, and the
   faulty member must either converge or hold a consistent image — its
   failures must never leak into the others' streams. *)
let normalize_msg = function Refresh_msg.Snaptime _ -> Refresh_msg.Snaptime 0 | m -> m

let group_fault_gen =
  Gen.triple scenario_gen (Gen.oneofl [ 1; 4; 32 ]) (Gen.int_range 0 1000)

let print_group_fault (sc, batch, seed) =
  Printf.sprintf "%s batch=%d fault_seed=%d" (print_scenario sc) batch seed

let prop_group_fault_isolation =
  QCheck2.Test.make ~name:"group refresh: a failed arm never perturbs the others"
    ~count:60 ~print:print_group_fault group_fault_gen
    (fun ((script, threshold), batch, fault_seed) ->
      let mk_universe () =
        let clock = Clock.create () in
        let base = Base_table.create ~page_size:256 ~name:"emp" ~clock emp_schema in
        let retry = { Manager.default_retry_policy with max_attempts = 60 } in
        let m = Manager.create ~retry ~batch_size:batch () in
        Manager.register_base m base;
        for i = 0 to 7 do
          ignore (Base_table.insert base (emp (Printf.sprintf "s%d" i) (i * 3 mod 20)) : Addr.t)
        done;
        let links = Array.init 3 (fun i -> Snapdiff_net.Link.create ~name:(Printf.sprintf "l%d" i) ()) in
        let names = [| "a"; "b"; "c" |] in
        Array.iteri
          (fun i name ->
            ignore
              (Manager.create_snapshot m ~name ~base:"emp"
                 ~restrict:Expr.(col "salary" <. int ((threshold + (i * 5)) mod 21))
                 ~method_:Manager.Differential ~link:links.(i) ()
                : Manager.refresh_report))
          names;
        (* Tap the healthy links: record each frame's logical messages and
           forward it to the receiver unchanged. *)
        let taps =
          Array.map
            (fun name ->
              let table = Manager.snapshot_table m name in
              let acc = ref [] in
              let link = Manager.snapshot_link m name in
              Snapdiff_net.Link.attach link (fun b len ->
                  (match Refresh_msg.decode_framed (Bytes.sub b 0 len) with
                  | _, msgs -> acc := List.rev_append msgs !acc
                  | exception Refresh_msg.Corrupt _ -> ());
                  Snapshot_table.apply_bytes table b len);
              acc)
            names
        in
        (m, base, taps)
      in
      let m_f, base_f, taps_f = mk_universe () in
      let m_c, base_c, taps_c = mk_universe () in
      (* Arm faults on "b" in the faulty universe only, after population. *)
      Snapdiff_net.Link.inject_faults (Manager.snapshot_link m_f "b") ~drop_prob:0.05
        ~corrupt_prob:0.03 ~seed:fault_seed ();
      let check where =
        let res_f = Manager.refresh_all m_f in
        let res_c = Manager.refresh_all m_c in
        (* Healthy members commit in the group in both universes. *)
        List.iter
          (fun name ->
            (match List.assoc name res_f with
            | Ok r ->
              if r.Manager.group_size <> 3 then
                fail_report
                  (Printf.sprintf "%s: %s group_size = %d, want 3" where name
                     r.Manager.group_size)
            | Error _ -> fail_report (Printf.sprintf "%s: healthy member %s failed" where name));
            match List.assoc name res_c with
            | Ok _ -> ()
            | Error _ -> fail_report (Printf.sprintf "%s: clean-universe %s failed" where name))
          [ "a"; "c" ];
        (* Healthy streams identical across universes, Snaptime values aside. *)
        Array.iteri
          (fun i name ->
            if name <> "b" then begin
              let norm acc = List.rev_map normalize_msg !acc in
              let sf = norm taps_f.(i) in
              let sc = norm taps_c.(i) in
              if
                List.length sf <> List.length sc
                || not (List.for_all2 Refresh_msg.equal sf sc)
              then
                fail_report
                  (Printf.sprintf "%s: %s's stream perturbed by the faulty sibling" where
                     name)
            end)
          [| "a"; "b"; "c" |];
        (* Faithfulness per universe; the faulty member may legitimately
           have failed, but then must hold a consistent (stale) image. *)
        List.iter
          (fun (m, base, res) ->
            List.iter
              (fun (name, outcome) ->
                let table = Manager.snapshot_table m name in
                (match Snapshot_table.validate table with
                | Ok () -> ()
                | Error e ->
                  fail_report (Printf.sprintf "%s: %s invariant: %s" where name e));
                let th =
                  match name with
                  | "a" -> threshold mod 21
                  | "b" -> (threshold + 5) mod 21
                  | _ -> (threshold + 10) mod 21
                in
                let want =
                  List.filter_map
                    (fun (a, u) -> if salary u < th then Some (a, u) else None)
                    (Base_table.to_user_list base)
                in
                match outcome with
                | Ok _ ->
                  if Snapshot_table.contents table <> want then
                    fail_report
                      (Printf.sprintf "%s: %s committed but diverged from base view" where
                         name)
                | Error (Manager.Refresh_failed _) -> ()
                | Error e -> raise e)
              res)
          [ (m_f, base_f, res_f); (m_c, base_c, res_c) ]
      in
      check "initial";
      let n = ref 0 in
      List.iter
        (fun op ->
          incr n;
          match op with
          | Ins s ->
            ignore (Base_table.insert base_f (emp (Printf.sprintf "x%d" !n) s) : Addr.t);
            ignore (Base_table.insert base_c (emp (Printf.sprintf "x%d" !n) s) : Addr.t)
          | Upd (i, s) -> (
            match pick_live base_f i with
            | Some addr ->
              Base_table.update base_f addr (emp (Printf.sprintf "u%d" !n) s);
              Base_table.update base_c addr (emp (Printf.sprintf "u%d" !n) s)
            | None -> ())
          | Del i -> (
            match pick_live base_f i with
            | Some addr ->
              Base_table.delete base_f addr;
              Base_table.delete base_c addr
            | None -> ())
          | Refresh -> check (Printf.sprintf "refresh at op %d" !n))
        script;
      check "final";
      true)

(* Regression: method switches on a deferred-mode base.  The fleet
   scheduler (or [Manager.set_method]) may route a snapshot to the full
   method and later back to differential.  A full refresh ships rows whose
   annotations are still NULL (inserted since the last fix-up); unless it
   primes the annotations, such a row stays out of the PrevAddr chain and
   its later delete leaves no anomaly for the differential scan to find,
   so the deleted row survives in the snapshot.  Priming used to depend on
   the snapshot being [Auto]; it must depend on the base mode and the
   method only.  A log-based refresh ships such rows too, so the
   differential refresh after one must not trust the chain either.  One
   or two snapshots, refreshed solo or through [refresh_all], monolithic
   or chunked, each routed Full, Differential or Log_based at random
   before every refresh. *)
type switch_round = {
  sw_ops : op list;
  sw_methods : Manager.method_spec list;  (* one per snapshot *)
  sw_all : bool;  (* refresh through refresh_all instead of one by one *)
}

let switch_gen =
  let round nsnaps =
    Gen.map3
      (fun sw_ops sw_methods sw_all -> { sw_ops; sw_methods; sw_all })
      (Gen.list_size (Gen.int_range 1 6)
         (Gen.frequency
            [
              (4, Gen.map (fun s -> Ins s) (Gen.int_range 0 19));
              (2, Gen.map2 (fun i s -> Upd (i, s)) (Gen.int_range 0 1000) (Gen.int_range 0 19));
              (2, Gen.map (fun i -> Del i) (Gen.int_range 0 1000));
              (* A negative victim counts back through the inserted rows,
                 newest first: recent inserts are the rows a skipped
                 priming pass leaves out of the chain. *)
              (3, Gen.map (fun i -> Del (-i)) (Gen.int_range 1 3));
            ]))
      (Gen.list_repeat nsnaps
         (Gen.frequencyl
            [ (3, Manager.Full); (3, Manager.Differential); (2, Manager.Log_based) ]))
      Gen.bool
  in
  Gen.(
    pair (int_range 1 2) bool >>= fun (nsnaps, chunked) ->
    pair (pure (nsnaps, chunked)) (pair (int_range 6 20) (list_repeat 30 (round nsnaps))))

let print_switch ((nsnaps, chunked), (threshold, rounds)) =
  Printf.sprintf "nsnaps=%d chunked=%b threshold=%d rounds=[%s]" nsnaps chunked threshold
    (String.concat "; "
       (List.map
          (fun r ->
            Printf.sprintf "{%s | %s%s}"
              (String.concat "," (List.map op_str r.sw_ops))
              (String.concat ","
                 (List.map
                    (function
                      | Manager.Full -> "F"
                      | Manager.Log_based -> "L"
                      | _ -> "D")
                    r.sw_methods))
              (if r.sw_all then " all" else ""))
          rounds))

let prop_method_switch_keeps_deletes =
  QCheck2.Test.make ~name:"method switches on a deferred base miss no delete"
    ~count:150 ~print:print_switch switch_gen
    (fun ((nsnaps, chunked), (threshold, rounds)) ->
      let clock = Clock.create () in
      let base =
        Base_table.create ~mode:Base_table.Deferred ~page_size:256
          ~wal:(Snapdiff_wal.Wal.create ()) ~name:"emp" ~clock emp_schema
      in
      let m = Manager.create ~chunk_entries:(if chunked then 4 else max_int) () in
      Manager.register_base m base;
      for i = 0 to 7 do
        ignore (Base_table.insert base (emp (Printf.sprintf "seed%d" i) (i * 3 mod 20)) : Addr.t)
      done;
      let names = List.init nsnaps (Printf.sprintf "s%d") in
      List.iteri
        (fun i name ->
          ignore
            (Manager.create_snapshot m ~name ~base:"emp"
               ~restrict:Expr.(col "salary" <. int ((threshold + (i * 7)) mod 21))
               ~method_:Manager.Differential ()
              : Manager.refresh_report))
        names;
      let n = ref 0 in
      let inserted = ref [] in  (* newest first *)
      List.iteri
        (fun round r ->
          List.iter
            (fun op ->
              incr n;
              match op with
              | Ins s ->
                inserted := Base_table.insert base (emp (Printf.sprintf "x%d" !n) s) :: !inserted
              | Upd (i, s) -> (
                match pick_live base i with
                | Some addr -> Base_table.update base addr (emp (Printf.sprintf "u%d" !n) s)
                | None -> ())
              | Del i -> (
                let victim =
                  if i >= 0 then pick_live base i
                  else begin
                    inserted := List.filter (fun a -> Base_table.get base a <> None) !inserted;
                    List.nth_opt !inserted (-i - 1)
                  end
                in
                match victim with
                | Some addr -> Base_table.delete base addr
                | None -> ())
              | Refresh -> ())
            r.sw_ops;
          List.iter2 (Manager.set_method m) names r.sw_methods;
          if r.sw_all then
            List.iter
              (fun (name, res) ->
                match res with
                | Ok (_ : Manager.refresh_report) -> ()
                | Error e -> fail_report (name ^ ": " ^ Printexc.to_string e))
              (Manager.refresh_all m)
          else
            List.iter (fun name -> ignore (Manager.refresh m name : Manager.refresh_report)) names;
          List.iteri
            (fun i name ->
              let th = (threshold + (i * 7)) mod 21 in
              let want =
                List.filter (fun (_, u) -> salary u < th) (Base_table.to_user_list base)
              in
              if Snapshot_table.contents (Manager.snapshot_table m name) <> want then
                fail_report
                  (Printf.sprintf "round %d: %s has %d entries, base view has %d" round name
                     (List.length (Snapshot_table.contents (Manager.snapshot_table m name)))
                     (List.length want)))
            names)
        rounds;
      true)

(* ------------------------------------------------------------------ *)
(* The fix-up write is an in-place patch of the annotation tail. *)

let record_bytes base addr =
  Buffer_pool.with_page (Base_table.pool base) (Addr.page addr) (fun page ->
      (`Clean, Option.get (Page.read page (Addr.slot addr))))

let stored_rows base =
  let acc = ref [] in
  Base_table.iter_stored base (fun addr stored -> acc := (addr, stored) :: !acc);
  List.rev !acc

(* The bytes a whole-row rewrite of [old] with the entry's current
   annotations would have stored. *)
let rewrite_of base addr old =
  Codec.tuple_bytes
    (Annotations.with_annotations old (Option.get (Base_table.get_annotations base addr)))

(* Over random histories on Deferred and Eager bases: after every
   operation and every refresh, each surviving record's bytes equal a
   whole-row rewrite of its previous row with its current annotations
   (eager successor maintenance and the scan's fix-up both patch); and a
   refresh leaves dirty exactly the 18-byte tails of the records whose
   annotations it changed — none at all on an eager base. *)
let prop_tail_patch_is_rewrite =
  QCheck2.Test.make ~name:"annotation tail patch = whole-row rewrite" ~count:120
    ~print:(fun (eager, sc) -> Printf.sprintf "eager=%b %s" eager (print_scenario sc))
    (Gen.pair Gen.bool scenario_gen)
    (fun (eager, (script, threshold)) ->
      let mode = if eager then Base_table.Eager else Base_table.Deferred in
      let clock = Clock.create () in
      let base = Base_table.create ~mode ~page_size:512 ~name:"emp" ~clock emp_schema in
      let m = Manager.create () in
      Manager.register_base m base;
      for i = 0 to 7 do
        ignore (Base_table.insert base (emp (Printf.sprintf "seed%d" i) (i * 3 mod 20)) : Addr.t)
      done;
      ignore
        (Manager.create_snapshot m ~name:"s" ~base:"emp"
           ~restrict:Expr.(col "salary" <. int threshold)
           ~method_:Manager.Differential ()
          : Manager.refresh_report);
      let check where ?(except = Addr.zero) before =
        List.iter
          (fun (addr, old) ->
            if addr <> except && Base_table.get base addr <> None then
              if not (Bytes.equal (record_bytes base addr) (rewrite_of base addr old)) then
                fail_report
                  (Printf.sprintf "%s: record %d differs from its whole-row rewrite" where addr))
          before
      in
      let refresh where =
        let before = stored_rows base in
        Base_table.flush base;
        let r = Manager.refresh m "s" in
        check where before;
        let changed =
          List.filter_map
            (fun (addr, old) ->
              if Base_table.get_annotations base addr <> Some (snd (Annotations.split old)) then
                Some addr
              else None)
            before
        in
        if r.Manager.fixup_writes <> List.length changed then
          fail_report (Printf.sprintf "%s: %d writes for %d changed rows" where
                         r.Manager.fixup_writes (List.length changed));
        if r.Manager.sender.Manager.fixup_bytes <> Annotations.tail_bytes * List.length changed
        then fail_report (Printf.sprintf "%s: fixup_bytes is not 18 per write" where);
        for p = 1 to Base_table.data_pages base do
          Buffer_pool.with_page (Base_table.pool base) p (fun page ->
              let tails = ref [] in
              Page.iter_live_spans page (fun slot ~off ~len ->
                  if List.mem (Addr.make ~page:p ~slot) changed then
                    tails := (off + len - Annotations.tail_bytes, Annotations.tail_bytes) :: !tails);
              let tails = List.sort compare !tails in
              let dirty = Page.dirty_ranges page in
              let within (o, l) = List.exists (fun (d, dl) -> d <= o && o + l <= d + dl) in
              let ok =
                if List.length tails <= 4 then dirty = tails
                else
                  (* More tails than tracked spans: the closest get merged,
                     so every tail is covered and nothing outside the
                     first..last tail is dirty. *)
                  let lo = fst (List.hd tails) in
                  let hi = List.fold_left (fun acc (o, l) -> max acc (o + l)) 0 tails in
                  List.for_all (fun t -> within t dirty) tails
                  && List.for_all (fun (d, dl) -> lo <= d && d + dl <= hi) dirty
              in
              if not ok then
                fail_report (Printf.sprintf "%s: page %d dirty outside the patched tails" where p);
              (`Clean, ()))
        done
      in
      let n = ref 0 in
      List.iter
        (fun op ->
          incr n;
          let where = Printf.sprintf "op %d (%s)" !n (op_str op) in
          let before = stored_rows base in
          match op with
          | Ins s ->
            let user = emp (Printf.sprintf "x%d" !n) s in
            let addr = Base_table.insert base user in
            check where before;
            let ann = Option.get (Base_table.get_annotations base addr) in
            if not
                 (Bytes.equal (record_bytes base addr)
                    (Codec.tuple_bytes (Annotations.annotate user ann)))
            then fail_report (where ^ ": inserted record differs from its encoding")
          | Upd (i, s) -> (
            match pick_live base i with
            | Some addr ->
              Base_table.update base addr (emp (Printf.sprintf "u%d" !n) s);
              check where ~except:addr before
            | None -> ())
          | Del i -> (
            match pick_live base i with
            | Some addr ->
              Base_table.delete base addr;
              check where before
            | None -> ())
          | Refresh -> refresh where)
        script;
      refresh "final";
      Snapshot_table.contents (Manager.snapshot_table m "s")
      = expected_restricted base threshold)

(* A table adopted with [on_pool] over rows written with SQL NULL
   annotations (1-byte fields, so no fixed-width tail): the scan rewrites
   those rows whole instead of patching, the chain comes out exact, and
   refreshes on top of it stay faithful — afterwards every write is an
   18-byte patch. *)
let test_null_annotation_fallback () =
  let pool = Buffer_pool.create ~frames:16 (Page_store.in_memory ~page_size:512 ()) in
  (* Half-empty pages: each row grows by 16 bytes when its NULLs become
     integers, so a packed page could not take the rewrite. *)
  let heap = Heap.on_pool ~fill_factor:0.5 pool (Annotations.extend_schema emp_schema) in
  for i = 0 to 29 do
    let user = emp (Printf.sprintf "n%d" i) (i mod 20) in
    ignore (Heap.insert heap (Array.append user [| Value.Null; Value.Null |]) : Addr.t)
  done;
  Heap.flush heap;
  let clock = Clock.create () in
  let base = Base_table.on_pool ~name:"emp" ~clock pool emp_schema in
  let before = stored_rows base in
  Alcotest.(check bool) "adopted rows carry no tail" false
    (List.exists (fun (_, t) -> Annotations.patchable t) before);
  let sent = ref 0 in
  let r =
    Differential.refresh ~base ~snaptime:Clock.never
      ~restrict:(Annotations.user_pred (fun t -> salary t < 10))
      ~xmit:(function Refresh_msg.Entry _ -> incr sent | _ -> ())
      ()
  in
  Alcotest.(check int) "every row rewritten" 30 r.Differential.fixup_writes;
  Alcotest.(check int) "whole rows written"
    (List.fold_left (fun acc (a, old) -> acc + Bytes.length (rewrite_of base a old)) 0 before)
    r.Differential.fixup_bytes;
  Alcotest.(check int) "every qualifying row sent" 20 !sent;
  let prev = ref Addr.zero in
  List.iter
    (fun (addr, old) ->
      Alcotest.(check bool) "record = whole-row rewrite" true
        (Bytes.equal (record_bytes base addr) (rewrite_of base addr old));
      (match Base_table.get_annotations base addr with
      | Some { Annotations.prev_addr = Some p; timestamp = Some _ } ->
        Alcotest.(check int) "chain exact" !prev p
      | _ -> Alcotest.fail "annotation left NULL");
      prev := addr)
    before;
  let m = Manager.create () in
  Manager.register_base m base;
  ignore
    (Manager.create_snapshot m ~name:"s" ~base:"emp"
       ~restrict:Expr.(col "salary" <. int 10)
       ~method_:Manager.Differential ()
      : Manager.refresh_report);
  let live () = List.map fst (Base_table.to_user_list base) in
  List.iteri (fun i a -> if i mod 4 = 0 then Base_table.update base a (emp "u" (i mod 13))) (live ());
  List.iteri (fun i a -> if i mod 7 = 3 then Base_table.delete base a) (live ());
  ignore (Base_table.insert base (emp "new1" 2) : Addr.t);
  ignore (Base_table.insert base (emp "new2" 18) : Addr.t);
  let r = Manager.refresh m "s" in
  Alcotest.(check bool) "refresh wrote annotations" true (r.Manager.fixup_writes > 0);
  Alcotest.(check int) "now 18 bytes per write" (18 * r.Manager.fixup_writes)
    r.Manager.sender.Manager.fixup_bytes;
  Alcotest.(check bool) "snapshot faithful" true
    (Snapshot_table.contents (Manager.snapshot_table m "s") = expected_restricted base 10)

(* ---- Stream apply = model --------------------------------------------- *)

(* The receiver applies a stream as one address-ordered merge: one
   successor probe per Entry on the snapshot's page directory, gap
   victims deleted as the probe meets them.  Against an assoc-map model of
   Figure 4's semantics, over random images and random streams: Entry with
   gaps, Region, Tail, a Clear now and then, and catch-up Upsert/Remove in
   any order.  Images of up to 400 rows over 600 addresses fill ten
   64-address pages, so the stream's inserts and deletes create, copy
   and empty pages between probes.  Each stream arrives framed one
   message per frame and batched [k] per frame; both must commit the
   model's image.  With one frame dropped or garbled, neither the image
   nor the committed epoch may move. *)
module IntMap = Map.Make (Int)

let stream_span = 600

let row_gen = Gen.map (fun v -> emp (Printf.sprintf "r%d" v) v) (Gen.int_range 0 99)

let image_gen =
  Gen.map
    (fun rows -> IntMap.bindings (IntMap.of_seq (List.to_seq rows)))
    (Gen.list_size (Gen.int_range 0 400)
       (Gen.pair (Gen.int_range 0 (stream_span - 1)) row_gen))

let stream_gen =
  let open Gen in
  let* clear = map (fun i -> i = 0) (int_range 0 7) in
  let* addrs = list_size (int_range 0 80) (int_range 0 (stream_span - 1)) in
  let addrs = List.sort_uniq compare addrs in
  let* picks = list_repeat (List.length addrs) (triple (int_range 0 9) nat row_gen) in
  let* tail = opt (int_range 0 20) in
  let* catchup =
    list_size (int_range 0 20)
      (oneof
         [ map2 (fun addr values -> Refresh_msg.Upsert { addr; row = Row.of_tuple values })
             (int_range 0 (stream_span - 1)) row_gen;
           map (fun addr -> Refresh_msg.Remove { addr }) (int_range 0 (stream_span - 1)) ])
  in
  (* Address order: each step starts after the previous one's address. *)
  let prev = ref (-1) in
  let ordered =
    List.map2
      (fun addr (kind, r, values) ->
        let from = !prev in
        prev := addr;
        let within = r mod (addr - from) in
        if kind < 7 then Refresh_msg.Entry { addr; prev_qual = from + within;
            row = Row.of_tuple values }
        else Refresh_msg.Region { lo = from + 1 + within; hi = addr })
      addrs picks
  in
  let tail = Option.map (fun d -> Refresh_msg.Tail { last_qual = !prev + d }) tail in
  return
    ((if clear then [ Refresh_msg.Clear ] else [])
    @ ordered @ Option.to_list tail @ catchup)

let model_apply m = function
  | Refresh_msg.Entry { addr; prev_qual; row } ->
    IntMap.add addr (Row.to_tuple row) (IntMap.filter (fun a _ -> a <= prev_qual || a >= addr) m)
  | Refresh_msg.Region { lo; hi } -> IntMap.filter (fun a _ -> a < lo || a > hi) m
  | Refresh_msg.Tail { last_qual } -> IntMap.filter (fun a _ -> a <= last_qual) m
  | Refresh_msg.Upsert { addr; row } -> IntMap.add addr (Row.to_tuple row) m
  | Refresh_msg.Remove { addr } -> IntMap.remove addr m
  | Refresh_msg.Clear -> IntMap.empty
  | _ -> m

(* The writer's framing, each frame as the messages it carries: runs of
   up to [k] data messages share a frame; any other message ends the run
   and travels alone. *)
let frames_of ~k msgs =
  let close run acc = if run = [] then acc else List.rev run :: acc in
  let rec go acc run n = function
    | [] -> List.rev (close run acc)
    | m :: rest when Refresh_msg.is_data m ->
      if n + 1 >= k then go (close (m :: run) acc) [] 0 rest else go acc (m :: run) (n + 1) rest
    | m :: rest -> go ([ m ] :: close run acc) [] 0 rest
  in
  go [] [] 0 msgs

(* What a link does with a frame: lend its bytes to the receiver. *)
let deliver snap b = Snapshot_table.apply_bytes snap b (Bytes.length b)

let send_frames snap ~epoch frames =
  List.iteri (fun seq ms -> deliver snap (Refresh_msg.encode_framed ~epoch ~seq ms)) frames

type stream_fault = No_fault | Drop of int | Garble of int * int * int  (* frame, byte, mask *)

let stream_case_gen =
  Gen.(
    quad image_gen stream_gen (int_range 2 70)
      (frequency
         [ (2, pure No_fault);
           (1, map (fun i -> Drop i) nat);
           (1, map3 (fun i b x -> Garble (i, b, x)) nat nat (int_range 1 255)) ]))

let print_stream_case (image, stream, k, fault) =
  Printf.sprintf "image %d rows, k=%d, fault=%s, stream:\n%s" (List.length image) k
    (match fault with
    | No_fault -> "none"
    | Drop i -> Printf.sprintf "drop %d" i
    | Garble (i, b, x) -> Printf.sprintf "garble frame %d byte %d ^ %d" i b x)
    (String.concat "\n" (List.map (Format.asprintf "%a" Refresh_msg.pp) stream))

let prop_stream_apply_model =
  QCheck2.Test.make ~name:"stream apply = model, batched or not, faults atomic" ~count:150
    ~print:print_stream_case stream_case_gen
    (fun (image, stream, k, fault) ->
      let load () =
        let snap = Snapshot_table.create ~name:"s" ~schema:emp_schema () in
        send_frames snap ~epoch:1
          (frames_of ~k:64
             (List.map (fun (addr, values) -> Refresh_msg.Upsert { addr;
                 row = Row.of_tuple values }) image
             @ [ Refresh_msg.Snaptime 1 ]));
        snap
      in
      let stream = stream @ [ Refresh_msg.Snaptime 2 ] in
      let expected =
        IntMap.bindings
          (List.fold_left model_apply (IntMap.of_seq (List.to_seq image)) stream)
      in
      (* Until the marker every read sees the pre-commit image: contents,
         count, an index lookup, and a pin of the head. *)
      let check_unchanged ~k ~frame snap before =
        let fail what = fail_report (Printf.sprintf "k=%d: after frame %d, %s" k frame what) in
        if Snapshot_table.contents snap <> before then fail "contents left the pre-commit image";
        if Snapshot_table.count snap <> List.length before then fail "count left the pre-commit image";
        let probe = match List.nth_opt before frame with Some (_, row) -> row.(1) | None -> Value.int 0 in
        List.iter
          (fun v ->
            let scan = List.filter_map (fun (a, row) -> if Value.equal row.(1) v then Some a else None) before in
            if Snapshot_table.lookup snap ~column:"salary" v <> scan then
              fail "an index lookup left the pre-commit image")
          [ probe; Value.int (frame * 7 mod 100) ];
        let rt = Snapshot_table.read_txn_exn snap in
        if Snapshot_table.txn_contents rt <> before then fail "a head pin left the pre-commit image";
        Snapshot_table.release_txn rt
      in
      let check_committed k =
        let snap = load () in
        Snapshot_table.create_index snap ~column:"salary";
        let before = Snapshot_table.contents snap in
        let frames = frames_of ~k stream in
        let last = List.length frames - 1 in
        List.iteri
          (fun seq ms ->
            deliver snap (Refresh_msg.encode_framed ~epoch:2 ~seq ms);
            if seq < last then check_unchanged ~k ~frame:seq snap before)
          frames;
        if Snapshot_table.last_committed_epoch snap <> 2 then
          fail_report (Printf.sprintf "k=%d: epoch 2 not committed" k);
        if Snapshot_table.contents snap <> expected then
          fail_report (Printf.sprintf "k=%d: image differs from the model" k);
        if Snapshot_table.validate snap <> Ok () then
          fail_report (Printf.sprintf "k=%d: page table fails validate" k)
      in
      check_committed 1;
      check_committed k;
      (match fault with
      | No_fault -> ()
      | Drop _ | Garble _ ->
        List.iter
          (fun k ->
            let snap = load () in
            let before = Snapshot_table.contents snap in
            let frames =
              List.mapi
                (fun seq ms -> Refresh_msg.encode_framed ~epoch:2 ~seq ms)
                (frames_of ~k stream)
            in
            let nf = List.length frames in
            let frames =
              match fault with
              | Drop i -> List.filteri (fun j _ -> j <> i mod nf) frames
              | Garble (i, b, x) ->
                List.mapi
                  (fun j f ->
                    if j <> i mod nf then f
                    else begin
                      let f = Bytes.copy f in
                      let p = b mod Bytes.length f in
                      Bytes.set f p (Char.chr (Char.code (Bytes.get f p) lxor x));
                      f
                    end)
                  frames
              | No_fault -> frames
            in
            List.iter (deliver snap) frames;
            if Snapshot_table.last_committed_epoch snap <> 1 then
              fail_report (Printf.sprintf "k=%d: a faulted stream committed" k);
            if Snapshot_table.contents snap <> before then
              fail_report (Printf.sprintf "k=%d: a faulted stream changed the image" k);
            (* The retry commits on top of the pre-fault image. *)
            send_frames snap ~epoch:3 (frames_of ~k stream);
            if Snapshot_table.last_committed_epoch snap <> 3 then
              fail_report (Printf.sprintf "k=%d: the retry after a fault did not commit" k);
            if Snapshot_table.contents snap <> expected then
              fail_report (Printf.sprintf "k=%d: the retry after a fault differs from the model" k);
            if Snapshot_table.validate snap <> Ok () then
              fail_report (Printf.sprintf "k=%d: the retry after a fault fails validate" k))
          [ 1; k ]);
      true)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_differential_deferred;
      prop_differential_eager;
      prop_full;
      prop_ideal;
      prop_log_based;
      prop_auto;
      prop_tail_suppression_faithful;
      prop_quiescent_refresh;
      prop_fixup_restores_chain;
      prop_eager_deferred_equivalent;
      prop_dense_faithful;
      prop_regions_faithful;
      prop_heap_model;
      prop_message_bounds;
      prop_dense_vs_regions_ordering;
      prop_msg_roundtrip;
      prop_pruned_batched_ideal_equiv;
      prop_pruned_eviction_restart;
      prop_group_solo_byte_identity;
      prop_pruned_stream_identity;
      prop_group_prune_isolation;
      prop_group_fault_isolation;
      prop_method_switch_keeps_deletes;
      prop_tail_patch_is_rewrite;
      prop_stream_apply_model;
    ]
  @ [ Alcotest.test_case "prune: reused-slot delete not hidden" `Quick
        test_prune_insert_reuse_delete;
      Alcotest.test_case "prune: a carried deletion decodes only the changed page" `Quick
        test_carried_deletion_decodes_changed_page;
      Alcotest.test_case "NULL-annotation rows: whole-row fallback" `Quick
        test_null_annotation_fallback ]
