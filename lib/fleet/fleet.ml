module Manager = Snapdiff_core.Manager
module Base_table = Snapdiff_core.Base_table
module Snapshot_table = Snapdiff_core.Snapshot_table
module Model = Snapdiff_analysis.Model
module Metrics = Snapdiff_obs.Metrics
module Trace = Snapdiff_obs.Trace

let c_ticks = Metrics.counter Metrics.global "fleet.ticks"
let c_refreshes = Metrics.counter Metrics.global "fleet.refreshes"
let c_misses = Metrics.counter Metrics.global "fleet.slo_misses"
let c_deferrals = Metrics.counter Metrics.global "fleet.deferrals"
let c_pulled_in = Metrics.counter Metrics.global "fleet.pulled_in"
let c_shed = Metrics.counter Metrics.global "fleet.shed_full"
let c_grouped = Metrics.counter Metrics.global "fleet.grouped"
let c_failures = Metrics.counter Metrics.global "fleet.failures"
let c_pinned_reads = Metrics.counter Metrics.global "fleet.pinned_reads"
let g_registered = Metrics.gauge Metrics.global "fleet.registered"
let g_queue_depth = Metrics.gauge Metrics.global "fleet.queue_depth"
let h_staleness = Metrics.histogram Metrics.global "fleet.staleness_at_commit_us"
let h_lateness = Metrics.histogram Metrics.global "fleet.lateness_us"
let h_decision = Metrics.histogram Metrics.global "fleet.decision_us"
let h_batch = Metrics.histogram Metrics.global "fleet.dispatch_batch"

let log_src = Logs.Src.create "snapdiff.fleet" ~doc:"fleet scheduler events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  lookahead_us : float;
  capacity : int;
  max_deferrals : int;
  pull_in_us : float;
  overload_ops : int;
  shed_catchup_records : int;
  log_record_weight : float;
}

let default_config =
  {
    lookahead_us = 50_000.0;
    capacity = 1024;
    max_deferrals = 3;
    pull_in_us = 100_000.0;
    overload_ops = 512;
    shed_catchup_records = 1024;
    log_record_weight = 0.25;
  }

(* Binary min-heap on deadline with lazy invalidation: an entry whose
   deadline moved (refresh committed, or it was pulled into a sibling's
   scan) leaves its old key behind; stale keys are recognized on pop
   because they no longer equal the entry's current deadline. *)
module Heap = struct
  type t = {
    mutable ks : float array;
    mutable vs : string array;
    mutable n : int;
  }

  let create () = { ks = Array.make 64 0.0; vs = Array.make 64 ""; n = 0 }

  let swap h i j =
    let k = h.ks.(i) and v = h.vs.(i) in
    h.ks.(i) <- h.ks.(j);
    h.vs.(i) <- h.vs.(j);
    h.ks.(j) <- k;
    h.vs.(j) <- v

  let push h k v =
    let cap = Array.length h.ks in
    if h.n = cap then begin
      let ks = Array.make (2 * cap) 0.0 in
      let vs = Array.make (2 * cap) "" in
      Array.blit h.ks 0 ks 0 cap;
      Array.blit h.vs 0 vs 0 cap;
      h.ks <- ks;
      h.vs <- vs
    end;
    h.ks.(h.n) <- k;
    h.vs.(h.n) <- v;
    let i = ref h.n in
    h.n <- h.n + 1;
    while !i > 0 && h.ks.((!i - 1) / 2) > h.ks.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let peek_key h = if h.n = 0 then None else Some h.ks.(0)

  let pop h =
    let k = h.ks.(0) and v = h.vs.(0) in
    h.n <- h.n - 1;
    h.ks.(0) <- h.ks.(h.n);
    h.vs.(0) <- h.vs.(h.n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.n && h.ks.(l) < h.ks.(!m) then m := l;
      if r < h.n && h.ks.(r) < h.ks.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        swap h !i !m;
        i := !m
      end
    done;
    (k, v)
end

type entry = {
  e_name : string;
  e_base : string;
  e_slo_us : float;
  mutable e_last_commit_us : float;
  mutable e_deadline_us : float;
  mutable e_deferrals : int;  (* current consecutive streak *)
  mutable e_refreshes : int;
  mutable e_misses : int;
}

type t = {
  mgr : Manager.t;
  cfg : config;
  entries : (string, entry) Hashtbl.t;
  base_members : (string, string list) Hashtbl.t;  (* base -> registered member names *)
  base_marks : (string, int) Hashtbl.t;  (* base -> mutations at last tick *)
  heap : Heap.t;
  mutable now : float;
  mutable n_ticks : int;
  mutable n_refreshes : int;
  mutable n_misses : int;
  mutable n_deferred : int;
  mutable n_pulled_in : int;
  mutable n_shed : int;
  mutable n_grouped : int;
  mutable n_failures : int;
  mutable max_queue : int;
  mutable n_full : int;
  mutable n_diff : int;
  mutable n_log : int;
  mutable pinned_reads : int;  (* reads served per dispatch at the pre-refresh version *)
  mutable n_pinned_reads : int;
}

let create ?(config = default_config) mgr =
  if config.lookahead_us < 0.0 then invalid_arg "Fleet.create: negative lookahead";
  if config.capacity < 1 then invalid_arg "Fleet.create: capacity must be positive";
  if config.max_deferrals < 0 then invalid_arg "Fleet.create: negative max_deferrals";
  {
    mgr;
    cfg = config;
    entries = Hashtbl.create 64;
    base_members = Hashtbl.create 8;
    base_marks = Hashtbl.create 8;
    heap = Heap.create ();
    now = 0.0;
    n_ticks = 0;
    n_refreshes = 0;
    n_misses = 0;
    n_deferred = 0;
    n_pulled_in = 0;
    n_shed = 0;
    n_grouped = 0;
    n_failures = 0;
    max_queue = 0;
    n_full = 0;
    n_diff = 0;
    n_log = 0;
    pinned_reads = 0;
    n_pinned_reads = 0;
  }

let config t = t.cfg

let set_pinned_reads t n =
  if n < 0 then invalid_arg "Fleet.set_pinned_reads: negative read count";
  t.pinned_reads <- n

let pinned_reads t = t.pinned_reads

let manager t = t.mgr

let now_us t = t.now

let entry t name =
  match Hashtbl.find_opt t.entries name with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Fleet: snapshot %s is not registered" name)

let register t ~name ~slo_us =
  if slo_us <= 0.0 || not (Float.is_finite slo_us) then
    invalid_arg "Fleet.register: SLO must be positive and finite";
  if Hashtbl.mem t.entries name then
    invalid_arg (Printf.sprintf "Fleet.register: %s already registered" name);
  ignore (Manager.snapshot_table t.mgr name : Snapshot_table.t);
  let base = Manager.snapshot_base t.mgr name in
  let e =
    {
      e_name = name;
      e_base = base;
      e_slo_us = slo_us;
      e_last_commit_us = t.now;
      e_deadline_us = t.now +. slo_us;
      e_deferrals = 0;
      e_refreshes = 0;
      e_misses = 0;
    }
  in
  Hashtbl.replace t.entries name e;
  Hashtbl.replace t.base_members base
    (name :: Option.value (Hashtbl.find_opt t.base_members base) ~default:[]);
  if not (Hashtbl.mem t.base_marks base) then
    Hashtbl.replace t.base_marks base (Base_table.mutations (Manager.base t.mgr base));
  Heap.push t.heap e.e_deadline_us name;
  Metrics.set g_registered (float_of_int (Hashtbl.length t.entries))

let unregister t name =
  match Hashtbl.find_opt t.entries name with
  | None -> ()
  | Some e ->
    Hashtbl.remove t.entries name;
    (match Hashtbl.find_opt t.base_members e.e_base with
    | Some members -> (
      match List.filter (fun n -> n <> name) members with
      | [] ->
        Hashtbl.remove t.base_members e.e_base;
        Hashtbl.remove t.base_marks e.e_base
      | rest -> Hashtbl.replace t.base_members e.e_base rest)
    | None -> ());
    Metrics.set g_registered (float_of_int (Hashtbl.length t.entries))

let registered t =
  List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) t.entries [])

let slo_us t name = (entry t name).e_slo_us

let deadline_us t name = (entry t name).e_deadline_us

let staleness_us t name = t.now -. (entry t name).e_last_commit_us

(* Due members: everything whose deadline falls within the lookahead
   horizon.  Stale heap keys (the entry's deadline has moved since the
   push) are dropped; the live key for the new deadline is already in the
   heap. *)
let pop_due t =
  let horizon = t.now +. t.cfg.lookahead_us in
  let rec go acc =
    match Heap.peek_key t.heap with
    | Some k when k <= horizon ->
      let k, name = Heap.pop t.heap in
      (match Hashtbl.find_opt t.entries name with
      | Some e when e.e_deadline_us = k -> go (e :: acc)
      | _ -> go acc)
    | _ -> acc
  in
  List.sort
    (fun a b -> compare (a.e_deadline_us, a.e_name) (b.e_deadline_us, b.e_name))
    (go [])

let spiking t base =
  let muts = Base_table.mutations (Manager.base t.mgr base) in
  let mark = Option.value (Hashtbl.find_opt t.base_marks base) ~default:muts in
  muts - mark > t.cfg.overload_ops

(* Cost-model method choice for one dispatch, fed by observed churn: the
   live mutation count since the snapshot's last refresh gives u (and the
   WAL catch-up backlog), the report history gives the log-based method's
   observed records-to-messages yield.  Under an updater spike, a backlog
   past the shed threshold forces a full refresh — the one stream whose
   cost does not grow with the un-replayed log tail. *)
let choose t e ~spike =
  let m = t.mgr in
  let b = Manager.base m e.e_base in
  let n = Base_table.count b in
  let q = Manager.selectivity_estimate m e.e_name in
  let records = Manager.mutations_since_refresh m e.e_name in
  let u = Model.observed_update_fraction ~mutations:records ~n in
  if spike && records > t.cfg.shed_catchup_records then (Manager.Full, true)
  else begin
    let full = Model.full_messages ~n ~q in
    let diff = Model.differential_messages ~n ~q ~u () in
    let log =
      if Base_table.wal b = None then Float.infinity
      else begin
        let yield =
          match
            List.find_opt
              (fun r ->
                r.Manager.method_used = Manager.Used_log_based
                && r.Manager.log_records_scanned > 0)
              (Manager.report_history ~limit:8 m e.e_name)
          with
          | Some r ->
            float_of_int r.Manager.data_messages
            /. float_of_int r.Manager.log_records_scanned
          | None ->
            if records = 0 then 0.0
            else Model.ideal_messages ~n ~q ~u /. float_of_int records
        in
        (yield +. t.cfg.log_record_weight) *. float_of_int records
      end
    in
    if diff <= full && diff <= log then (Manager.Differential, false)
    else if log <= full then (Manager.Log_based, false)
    else (Manager.Full, false)
  end

type tick_report = {
  tr_now_us : float;
  tr_due : int;
  tr_dispatched : int;
  tr_results : (string * (Manager.refresh_report, exn) result) list;
  tr_grouped : int;
  tr_pulled_in : int;
  tr_deferred : int;
  tr_shed_full : int;
  tr_slo_misses : int;
  tr_failures : int;
  tr_queue_depth : int;
  tr_pinned_reads : int;
}

let tick t ~now_us =
  if now_us < t.now then invalid_arg "Fleet.tick: time must not go backwards";
  t.now <- now_us;
  t.n_ticks <- t.n_ticks + 1;
  Metrics.incr c_ticks;
  let dispatch, n_due, n_deferred, n_pulled =
    Metrics.time h_decision (fun () ->
        let due = pop_due t in
        let n_due = List.length due in
        let spikes = Hashtbl.create 8 in
        let spike base =
          match Hashtbl.find_opt spikes base with
          | Some s -> s
          | None ->
            let s = spiking t base in
            Hashtbl.replace spikes base s;
            s
        in
        (* Backpressure rule 1: members of a spiking base that are due
           only through the lookahead are deferred — unless the base has
           a member already past deadline this tick, in which case the
           scan is being paid for anyway and they ride it. *)
        let urgent_bases = Hashtbl.create 8 in
        List.iter
          (fun e ->
            if e.e_deadline_us <= t.now then Hashtbl.replace urgent_bases e.e_base ())
          due;
        let kept, spike_deferred =
          List.partition
            (fun e ->
              e.e_deadline_us <= t.now
              || e.e_deferrals >= t.cfg.max_deferrals
              || (not (spike e.e_base))
              || Hashtbl.mem urgent_bases e.e_base)
            due
        in
        (* Admission control: at most [capacity] dispatches, most urgent
           first; a member out of deferral budget is always admitted. *)
        let rec admit n acc defer = function
          | [] -> (List.rev acc, List.rev defer)
          | e :: tl ->
            if n < t.cfg.capacity || e.e_deferrals >= t.cfg.max_deferrals then
              admit (n + 1) (e :: acc) defer tl
            else admit n acc (e :: defer) tl
        in
        let admitted, capacity_deferred = admit 0 [] [] kept in
        let deferred = spike_deferred @ capacity_deferred in
        List.iter
          (fun e ->
            e.e_deferrals <- e.e_deferrals + 1;
            t.n_deferred <- t.n_deferred + 1;
            Metrics.incr c_deferrals;
            Heap.push t.heap e.e_deadline_us e.e_name)
          deferred;
        (* Backpressure rule 2: a spiking base whose scan dispatches this
           tick pulls its near-due siblings in, so they share the scan
           instead of forcing another one moments later. *)
        let in_flight = Hashtbl.create 16 in
        List.iter (fun e -> Hashtbl.replace in_flight e.e_name ()) admitted;
        List.iter (fun e -> Hashtbl.replace in_flight e.e_name ()) deferred;
        let pulled =
          List.concat_map
            (fun (base : string) ->
              if not (spike base) then []
              else if not (List.exists (fun e -> e.e_base = base) admitted) then []
              else
                List.filter_map
                  (fun name ->
                    match Hashtbl.find_opt t.entries name with
                    | Some e
                      when (not (Hashtbl.mem in_flight name))
                           && e.e_deadline_us <= t.now +. t.cfg.pull_in_us ->
                      Some e
                    | _ -> None)
                  (Option.value (Hashtbl.find_opt t.base_members base) ~default:[]))
            (Hashtbl.fold (fun b _ acc -> b :: acc) spikes [])
        in
        List.iter
          (fun _ ->
            t.n_pulled_in <- t.n_pulled_in + 1;
            Metrics.incr c_pulled_in)
          pulled;
        let dispatch =
          List.sort
            (fun a b -> compare (a.e_deadline_us, a.e_name) (b.e_deadline_us, b.e_name))
            (admitted @ pulled)
        in
        (* Route each dispatch through the cost model. *)
        let dispatch =
          List.map
            (fun e ->
              let spec, shed = choose t e ~spike:(spike e.e_base) in
              if shed then begin
                t.n_shed <- t.n_shed + 1;
                Metrics.incr c_shed;
                Trace.event "fleet.shed"
                  ~attrs:[ ("snapshot", e.e_name); ("base", e.e_base) ]
              end;
              (match spec with
              | Manager.Full -> t.n_full <- t.n_full + 1
              | Manager.Differential -> t.n_diff <- t.n_diff + 1
              | Manager.Log_based -> t.n_log <- t.n_log + 1
              | _ -> ());
              Manager.set_method t.mgr e.e_name spec;
              (e, shed))
            dispatch
        in
        (dispatch, n_due, List.length deferred, List.length pulled))
  in
  let shed_n = List.length (List.filter snd dispatch) in
  (* Pin the pre-refresh version of every member about to be refreshed:
     readers served from these transactions keep observing the old
     consistent image while (and after) the refresh commits, without
     blocking it.  The pin alone keeps each version: a concurrent
     [Manager.vacuum] parks it on the zombie list instead of freeing it.
     Served and released after the dispatch below. *)
  let pins =
    if t.pinned_reads = 0 then []
    else
      List.filter_map
        (fun (e, _) ->
          match Manager.read_txn t.mgr e.e_name with
          | Some rt -> Some (rt, Snapshot_table.txn_snaptime rt)
          | None -> None)
        dispatch
  in
  let release_pins () =
    List.iter (fun (rt, _) -> Snapshot_table.release_txn rt) pins
  in
  let results =
    match dispatch with
    | [] -> []
    | _ -> (
      try
        Trace.with_span "fleet.tick"
          ~attrs:
            [ ("now_us", Printf.sprintf "%.0f" t.now);
              ("dispatch", string_of_int (List.length dispatch)) ]
          (fun () ->
            Manager.refresh_all ~only:(List.map (fun (e, _) -> e.e_name) dispatch)
              t.mgr)
      with exn ->
        release_pins ();
        raise exn)
  in
  (* Serve the configured reads from each pinned transaction.  Each read
     must still see the pre-refresh snaptime — the version was pinned, so
     the refresh that just committed cannot have touched it. *)
  let pinned_served = ref 0 in
  List.iter
    (fun (rt, snaptime_before) ->
      let want = t.pinned_reads in
      let n = ref 0 in
      (try
         Snapshot_table.txn_iter rt (fun _ _ ->
             incr n;
             if !n >= want then raise Exit)
       with Exit -> ());
      if Snapshot_table.txn_snaptime rt <> snaptime_before then
        Log.err (fun m ->
            m "fleet: pinned read transaction drifted from snaptime %d to %d"
              snaptime_before
              (Snapshot_table.txn_snaptime rt));
      pinned_served := !pinned_served + !n)
    pins;
  release_pins ();
  t.n_pinned_reads <- t.n_pinned_reads + !pinned_served;
  Metrics.add c_pinned_reads !pinned_served;
  Metrics.observe h_batch (float_of_int (List.length dispatch));
  let misses = ref 0 in
  let failures = ref 0 in
  let grouped = ref 0 in
  List.iter
    (fun (name, result) ->
      let e = entry t name in
      match result with
      | Ok (r : Manager.refresh_report) ->
        let staleness = t.now -. e.e_last_commit_us in
        Metrics.observe h_staleness staleness;
        if staleness > e.e_slo_us then begin
          incr misses;
          e.e_misses <- e.e_misses + 1;
          t.n_misses <- t.n_misses + 1;
          Metrics.incr c_misses;
          Metrics.observe h_lateness (staleness -. e.e_slo_us)
        end;
        if r.Manager.group_size > 1 then begin
          incr grouped;
          t.n_grouped <- t.n_grouped + 1;
          Metrics.incr c_grouped
        end;
        e.e_last_commit_us <- t.now;
        e.e_deadline_us <- t.now +. e.e_slo_us;
        e.e_deferrals <- 0;
        e.e_refreshes <- e.e_refreshes + 1;
        t.n_refreshes <- t.n_refreshes + 1;
        Metrics.incr c_refreshes;
        Heap.push t.heap e.e_deadline_us e.e_name
      | Error exn ->
        incr failures;
        t.n_failures <- t.n_failures + 1;
        Metrics.incr c_failures;
        Log.info (fun m ->
            m "fleet: refresh %s failed: %s" name (Printexc.to_string exn));
        (* Still due: same deadline, retried next tick. *)
        Heap.push t.heap e.e_deadline_us e.e_name)
    results;
  (* Refresh the per-base churn marks for the next tick's spike test. *)
  Hashtbl.iter
    (fun base _ ->
      Hashtbl.replace t.base_marks base (Base_table.mutations (Manager.base t.mgr base)))
    t.base_members;
  let queue_depth = n_deferred + !failures in
  if queue_depth > t.max_queue then t.max_queue <- queue_depth;
  Metrics.set g_queue_depth (float_of_int queue_depth);
  {
    tr_now_us = t.now;
    tr_due = n_due;
    tr_dispatched = List.length results;
    tr_results = results;
    tr_grouped = !grouped;
    tr_pulled_in = n_pulled;
    tr_deferred = n_deferred;
    tr_shed_full = shed_n;
    tr_slo_misses = !misses;
    tr_failures = !failures;
    tr_queue_depth = queue_depth;
    tr_pinned_reads = !pinned_served;
  }

type snapshot_stats = {
  ss_slo_us : float;
  ss_deadline_us : float;
  ss_last_commit_us : float;
  ss_refreshes : int;
  ss_slo_misses : int;
  ss_deferrals : int;
}

let snapshot_stats t name =
  let e = entry t name in
  {
    ss_slo_us = e.e_slo_us;
    ss_deadline_us = e.e_deadline_us;
    ss_last_commit_us = e.e_last_commit_us;
    ss_refreshes = e.e_refreshes;
    ss_slo_misses = e.e_misses;
    ss_deferrals = e.e_deferrals;
  }

type stats = {
  st_registered : int;
  st_ticks : int;
  st_refreshes : int;
  st_slo_misses : int;
  st_deferred : int;
  st_pulled_in : int;
  st_shed_full : int;
  st_grouped : int;
  st_failures : int;
  st_max_queue_depth : int;
  st_full : int;
  st_differential : int;
  st_log_based : int;
  st_pinned_reads : int;
}

let stats t =
  {
    st_registered = Hashtbl.length t.entries;
    st_ticks = t.n_ticks;
    st_refreshes = t.n_refreshes;
    st_slo_misses = t.n_misses;
    st_deferred = t.n_deferred;
    st_pulled_in = t.n_pulled_in;
    st_shed_full = t.n_shed;
    st_grouped = t.n_grouped;
    st_failures = t.n_failures;
    st_max_queue_depth = t.max_queue;
    st_full = t.n_full;
    st_differential = t.n_diff;
    st_log_based = t.n_log;
    st_pinned_reads = t.n_pinned_reads;
  }

let miss_rate st =
  if st.st_refreshes = 0 then 0.0
  else float_of_int st.st_slo_misses /. float_of_int st.st_refreshes
