(* Measurement plumbing shared by the workloads: a nanosecond monotonic
   clock, sample sets with percentiles, the span tracer, and the report
   every workload fills in. *)

let now_us () = Int64.to_float (Monotonic_clock.now ()) /. 1e3

(* ------------------------------------------------------------------ *)
(* Sample sets *)

module Samples = struct
  (* Values with the time each was taken. *)
  type t = { mutable a : float array; mutable at : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; at = Array.make 256 0.0; n = 0 }

  let add_at t x ~at =
    if t.n = Array.length t.a then begin
      let grow v =
        let b = Array.make (2 * t.n) 0.0 in
        Array.blit v 0 b 0 t.n;
        b
      in
      t.a <- grow t.a;
      t.at <- grow t.at
    end;
    t.a.(t.n) <- x;
    t.at.(t.n) <- at;
    t.n <- t.n + 1

  let add t x = add_at t x ~at:(now_us ())
  let count t = t.n
  let last t = t.a.(t.n - 1)

  let concat l =
    let s = create () in
    List.iter (fun x -> for i = 0 to x.n - 1 do add_at s x.a.(i) ~at:x.at.(i) done) l;
    s

  let max t = Array.fold_left Float.max 0.0 (Array.sub t.a 0 t.n)

  (* Linear interpolation between closest ranks; 0 when empty. *)
  let quantile_of s q =
    let n = Array.length s in
    if n = 0 then 0.0
    else begin
      Array.sort Float.compare s;
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then s.(n - 1) else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
    end

  let quantile t q = quantile_of (Array.sub t.a 0 t.n) q

  (* Samples strictly above the q-quantile: a reported tail needs at least
     ten beyond it. *)
  let beyond t q = t.n - 1 - int_of_float (q *. float_of_int (t.n - 1))

  (* Index ranges [lo, hi) of consecutive two-second windows. *)
  let windows t =
    let acc = ref [] and lo = ref 0 in
    for i = 1 to t.n - 1 do
      if t.at.(i) -. t.at.(!lo) >= 2e6 then begin
        acc := (!lo, i) :: !acc;
        lo := i
      end
    done;
    if t.n > 0 then acc := (!lo, t.n) :: !acc;
    List.rev !acc

  let median_of l = quantile_of (Array.of_list l) 0.5

  (* The median over two-second windows of each window's q-quantile,
     counting only windows with at least ten samples beyond q.  A
     whole-run tail is set by the run's single worst stall (on a shared
     disk, one slow fsync); this is not.  Falls back to [quantile] when
     no window qualifies.  Returns the value and the windows used. *)
  let windowed t q =
    let need = int_of_float (Float.ceil (10.0 /. (1.0 -. q))) in
    let per =
      List.filter_map
        (fun (lo, hi) -> if hi - lo >= need then Some (quantile_of (Array.sub t.a lo (hi - lo)) q) else None)
        (windows t)
    in
    match per with [] -> (quantile t q, 0) | l -> (median_of l, List.length l)
end

(* Throughput: completed operations per second of measured time, logged
   per loop iteration (value = operations, with the busy time beside
   it).  Reported as the median over two-second windows of each window's
   rate, so a transient stall moves one window, not the run. *)
module Throughput = struct
  type t = { ops : Samples.t; busy_us : Samples.t }

  let create () = { ops = Samples.create (); busy_us = Samples.create () }

  let add t ~ops ~busy_us =
    let at = now_us () in
    Samples.add_at t.ops (float_of_int ops) ~at;
    Samples.add_at t.busy_us busy_us ~at

  let total t =
    let sum s = Array.fold_left ( +. ) 0.0 (Array.sub s.Samples.a 0 s.Samples.n) in
    (sum t.ops, sum t.busy_us)

  let rate t =
    let ops, busy = total t in
    if busy = 0.0 then 0.0 else ops /. (busy /. 1e6)

  let windowed t =
    let sum s lo hi = Array.fold_left ( +. ) 0.0 (Array.sub s.Samples.a lo (hi - lo)) in
    match Samples.windows t.ops with
    | [] -> rate t
    | ws -> Samples.median_of (List.map (fun (lo, hi) -> sum t.ops lo hi /. (sum t.busy_us lo hi /. 1e6)) ws)
end

(* ------------------------------------------------------------------ *)
(* Host-speed probe.  On a shared host every wall time drifts with the
   host: on a shared 2-vCPU Xeon, a pure-CPU loop with no engine code in
   it ran up to ~1.5x slower for seconds to minutes at a time, and
   refresh times followed it, so ten runs of the same code spread past
   any usable bound.  The probe is a fixed piece of the benchmark's own
   work of the kind the engine does (hash-table inserts of fresh small
   strings, a sort with polymorphic compare, a list build; no engine
   call) timed right after each refresh request.  A refresh's time over
   the time of the probe run beside it cancels most of the drift: that
   quotient is [refresh_rel]. *)

module Probe = struct
  let tbl = Hashtbl.create 1024
  let keys = Array.make 512 0

  (* About 0.3 ms. *)
  let slice () =
    let st = ref 12345 in
    Hashtbl.reset tbl;
    for i = 0 to 511 do
      st := ((!st * 1103515245) + 12345) land 0x3fffffff;
      Hashtbl.replace tbl (!st land 0xffff) (string_of_int i, i);
      keys.(i) <- !st
    done;
    Array.sort compare keys;
    let l = ref [] in
    for i = 0 to 511 do
      l := (keys.(i), i) :: !l
    done;
    ignore (Sys.opaque_identity (List.length !l) : int)

  (* The probe's time in microseconds over eight slices; [between] runs
     untimed after each (oltp_concurrent serves arrivals there). *)
  let time ?(between = ignore) () =
    let total = ref 0.0 in
    for _ = 1 to 8 do
      let t0 = now_us () in
      slice ();
      total := !total +. (now_us () -. t0);
      between ()
    done;
    !total
end

(* Refresh times relative to the probe, and the probe's own times. *)
type relative = { rel : Samples.t; probe : Samples.t }

let relative () = { rel = Samples.create (); probe = Samples.create () }

(* Time the probe after a refresh request that took [d] (us). *)
let probe_after ?between r d =
  let t = Probe.time ?between () in
  Samples.add r.probe t;
  Samples.add r.rel (d /. t)

(* ------------------------------------------------------------------ *)
(* Span tracer.  Spans are recorded by the benchmark around each call it
   makes into a layer; each carries an id, its parent span, the operation
   it belongs to, a name ("layer.call") and its interval.  Kept in memory
   (struct of arrays) and written out when the run ends.  Disabled, a
   span costs one branch. *)

module Trace = struct
  let on = ref false
  let n = ref 0
  let ids = ref [||]
  let parents = ref [||]
  let ops = ref [||]
  let starts = ref [||]
  let stops = ref [||]
  let names = ref [||]
  let next_id = ref 1
  let cur_span = ref 0
  let cur_op = ref 0

  let grow () =
    let cap = max 1024 (2 * !n) in
    let g a d =
      let b = Array.make cap d in
      Array.blit a 0 b 0 !n;
      b
    in
    ids := g !ids 0;
    parents := g !parents 0;
    ops := g !ops 0;
    starts := g !starts 0.0;
    stops := g !stops 0.0;
    names := g !names ""

  let push ~id ~parent ~op ~name ~t0 ~t1 =
    if !n = Array.length !ids then grow ();
    let i = !n in
    !ids.(i) <- id;
    !parents.(i) <- parent;
    !ops.(i) <- op;
    !names.(i) <- name;
    !starts.(i) <- t0;
    !stops.(i) <- t1;
    n := i + 1

  (* Run [f] as a span.  [root] starts a new operation whose parent is
     the enclosing span (an updater served from a refresh's chunk hook
     is its own operation, caused by the refresh). *)
  let run ~root name f =
    let id = !next_id in
    incr next_id;
    let parent = !cur_span and op0 = !cur_op in
    let op = if root || op0 = 0 then id else op0 in
    cur_span := id;
    cur_op := op;
    let t0 = now_us () in
    let finish () =
      let t1 = now_us () in
      cur_span := parent;
      cur_op := op0;
      push ~id ~parent ~op ~name ~t0 ~t1;
      t1 -. t0
    in
    match f () with
    | v -> (v, finish ())
    | exception e ->
      ignore (finish () : float);
      raise e

  let clear () =
    n := 0;
    next_id := 1;
    cur_span := 0;
    cur_op := 0

  let layer name =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name

  (* Self time per layer (a span's duration minus the part its children
     cover) and a structural check: every operation's spans form one
     tree, and every child lies inside its parent's interval. *)
  let analyse () =
    let idx = Hashtbl.create (2 * !n + 1) in
    for i = 0 to !n - 1 do
      Hashtbl.replace idx !ids.(i) i
    done;
    let child_time = Array.make !n 0.0 in
    let problems = ref [] in
    let roots = Hashtbl.create 1024 in
    for i = 0 to !n - 1 do
      let d = !stops.(i) -. !starts.(i) in
      let p = !parents.(i) in
      let same_op =
        match Hashtbl.find_opt idx p with
        | Some j ->
          child_time.(j) <- child_time.(j) +. d;
          if !starts.(i) < !starts.(j) || !stops.(i) > !stops.(j) then
            problems := Printf.sprintf "span %d escapes parent %d" !ids.(i) p :: !problems;
          !ops.(j) = !ops.(i)
        | None ->
          if p <> 0 then problems := Printf.sprintf "span %d: parent %d missing" !ids.(i) p :: !problems;
          false
      in
      if not same_op then begin
        if Hashtbl.mem roots !ops.(i) then
          problems := Printf.sprintf "operation %d has two roots" !ops.(i) :: !problems;
        Hashtbl.replace roots !ops.(i) ();
        if !ops.(i) <> !ids.(i) then
          problems := Printf.sprintf "operation %d rooted at span %d" !ops.(i) !ids.(i) :: !problems
      end
    done;
    let self = Hashtbl.create 16 in
    for i = 0 to !n - 1 do
      let l = layer !names.(i) in
      let s = !stops.(i) -. !starts.(i) -. child_time.(i) in
      Hashtbl.replace self l (s +. Option.value ~default:0.0 (Hashtbl.find_opt self l))
    done;
    let layers = List.sort compare (Hashtbl.fold (fun l s acc -> (l, s) :: acc) self []) in
    (layers, Hashtbl.length roots, !problems)

  let write path =
    let oc = open_out path in
    for i = 0 to !n - 1 do
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n"
        !ids.(i) !parents.(i) !ops.(i) !names.(i) !starts.(i) !stops.(i)
    done;
    close_out oc
end

(* [timed s name f]: run [f], add its duration in microseconds to [s],
   and record it as a span when tracing.  One clock pair serves both. *)
let timed s name f =
  if !Trace.on then begin
    let v, d = Trace.run ~root:false name f in
    Samples.add s d;
    v
  end
  else begin
    let t0 = now_us () in
    let v = f () in
    let t1 = now_us () in
    Samples.add_at s (t1 -. t0) ~at:t1;
    v
  end

(* A span with no sample set of its own. *)
let span name f = if !Trace.on then fst (Trace.run ~root:false name f) else f ()

(* The root span of one operation. *)
let op name f = if !Trace.on then fst (Trace.run ~root:true name f) else f ()

(* ------------------------------------------------------------------ *)
(* Report *)

type metric = { name : string; unit_ : string; value : float }

type report = {
  mutable metrics : metric list;  (** reverse order of emission *)
  mutable notes : string list;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let report = { metrics = []; notes = []; attempted = 0; failed = 0; failures = [] }

let metric name unit_ value =
  let value = if Float.is_finite value then value else 0.0 in
  report.metrics <- { name; unit_; value } :: List.filter (fun m -> m.name <> name) report.metrics

let note fmt = Printf.ksprintf (fun s -> report.notes <- s :: report.notes) fmt

let fail fmt =
  Printf.ksprintf
    (fun s ->
      report.failed <- report.failed + 1;
      report.failures <- s :: report.failures)
    fmt

let attempt k = report.attempted <- report.attempted + k

let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

(* A latency metric pair: median and a named tail, with the sample
   count and the number of samples beyond the tail in the notes.
   [windowed] takes both as medians over two-second windows. *)
let latency ?(windowed = false) ~scale name unit_ s tails =
  List.iter
    (fun (label, q) ->
      if windowed then begin
        let v, w = Samples.windowed s q in
        metric (name ^ "." ^ label) unit_ (v *. scale);
        note "%s.%s: median over %d two-second windows of n=%d samples" name label w (Samples.count s)
      end
      else begin
        metric (name ^ "." ^ label) unit_ (Samples.quantile s q *. scale);
        if q > 0.5 then
          note "%s.%s: n=%d, %d beyond" name label (Samples.count s) (Samples.beyond s q)
      end)
    (("p50", 0.5) :: tails)

let emit_relative r =
  latency ~scale:1.0 "refresh_rel" "ratio" r.rel [ ("p80", 0.80) ];
  latency ~scale:1e-3 "host_probe_ms" "ms" r.probe []

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------------ *)
(* Engine counters as deltas over a measured phase: [Metrics.reset] at
   phase start zeroes every counter and histogram in place. *)

module M = Snapdiff_obs.Metrics

let phase_start () = M.reset M.global
let counter name = M.counter_value M.global name
let hist_q name q = M.quantile (M.histogram M.global name) q

(* Median of several set-up timings. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k = 0 then 0.0 else if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* The measured loop runs until [deadline] (absolute, microseconds) or
   [max_iters] iterations, whichever first; the self-check bounds runs by
   iterations so counts repeat exactly. *)
type budget = { seconds : float; max_iters : int }

let budget_deadline b = now_us () +. (b.seconds *. 1e6)

(* Layers the benchmark traces around; the root span of each operation
   belongs to "client", the benchmark's own work. *)
let traced_layers = [ "client"; "base_table"; "manager"; "snapshot_table"; "txn"; "wal"; "fleet" ]

(* Measured phases.  Untraced, one phase over the whole budget.  Traced,
   half the budget untraced and half traced on the same state; the
   difference in operation throughput between the halves is the tracing
   overhead, and the per-layer numbers come from the traced half.
   [rate] gives a phase's completed operations per second. *)
let phases ~trace ~budget ~out measure rate =
  if not trace then begin
    phase_start ();
    measure budget
  end
  else begin
    let half = { budget with seconds = budget.seconds /. 2.0 } in
    phase_start ();
    let a = measure half in
    Trace.clear ();
    Trace.on := true;
    phase_start ();
    let b = Fun.protect ~finally:(fun () -> Trace.on := false) (fun () -> measure half) in
    let layers, nops, problems = Trace.analyse () in
    let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 layers in
    List.iter
      (fun l ->
        let s = Option.value ~default:0.0 (List.assoc_opt l layers) in
        metric ("trace.self_share." ^ l) "ratio" (ratio s total);
        note "trace.self_us_per_op.%s: %.3f us over %d operations" l
          (ratio s (float_of_int nops)) nops)
      traced_layers;
    metric "trace.spans" "count" (float_of_int !Trace.n);
    metric "trace.operations" "count" (float_of_int nops);
    metric "trace.overhead_share" "ratio" (ratio (rate a) (rate b) -. 1.0);
    attempt 1;
    (match problems with
     | [] -> ()
     | p :: _ -> fail "trace: %d malformed spans, e.g. %s" (List.length problems) p);
    (try
       if not (Sys.file_exists out) then Sys.mkdir out 0o755;
       Trace.write (Filename.concat out "trace.jsonl")
     with Sys_error e -> fail "trace: cannot write spans: %s" e);
    b
  end

(* Fingerprint of the inputs a run drew from its seed (self-check). *)
let input_digest = ref ""
let digest_inputs x = input_digest := Digest.to_hex (Digest.string (Marshal.to_string x []))
