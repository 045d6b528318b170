module Stats = Snapdiff_util.Stats

(* Counters and gauges are atomics so hot-path bumps from concurrent
   domains (MVCC readers beside a refresh) never lose increments;
   histograms take a per-histogram mutex (observe is two array stores
   plus a Welford update — far too much for a CAS loop, and histogram
   observations are orders of magnitude rarer than counter bumps).  The registry table itself is guarded by a mutex,
   but components fetch their handles once at init, so the lock never
   appears on a hot path. *)

type counter = int Atomic.t

type gauge = float Atomic.t

(* Bucket 0 holds values in [0, 1); bucket i >= 1 holds [2^(i-1), 2^i).
   40 power-of-two buckets span sub-microsecond to ~9 simulated minutes,
   which covers every latency this system can produce. *)
let bucket_count = 40

type histogram = {
  h_m : Mutex.t;
  buckets : int array;
  (* Per-bucket value sums: a bucket holding exactly one sample can
     report that sample exactly instead of an interpolated bucket-edge
     estimate (the log buckets are an octave wide, so the estimate could
     be off by almost 2x). *)
  bucket_sums : float array;
  mutable acc : Stats.Accumulator.t;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = { reg_m : Mutex.t; metrics : (string, metric) Hashtbl.t }

exception Kind_mismatch of string

let create () = { reg_m = Mutex.create (); metrics = Hashtbl.create 64 }

(* The process-global registry every component attaches to. *)
let global = create ()

let get_or_create t name ~make ~cast =
  Mutex.lock t.reg_m;
  let r =
    match Hashtbl.find_opt t.metrics name with
    | Some m -> cast m
    | None ->
      let m = make () in
      Hashtbl.replace t.metrics name m;
      cast m
  in
  Mutex.unlock t.reg_m;
  match r with Some v -> v | None -> raise (Kind_mismatch name)

let counter t name =
  get_or_create t name
    ~make:(fun () -> Counter (Atomic.make 0))
    ~cast:(function Counter c -> Some c | _ -> None)

let gauge t name =
  get_or_create t name
    ~make:(fun () -> Gauge (Atomic.make 0.0))
    ~cast:(function Gauge g -> Some g | _ -> None)

let histogram t name =
  get_or_create t name
    ~make:(fun () ->
      Histogram
        { h_m = Mutex.create (); buckets = Array.make bucket_count 0;
          bucket_sums = Array.make bucket_count 0.0;
          acc = Stats.Accumulator.create () })
    ~cast:(function Histogram h -> Some h | _ -> None)

let incr c = Atomic.incr c

let add c n = ignore (Atomic.fetch_and_add c n : int)

let value c = Atomic.get c

let set g v = Atomic.set g v

let shift g d =
  (* CAS loop: [Atomic.compare_and_set] compares the float boxes
     physically, and [old] is the exact box we read. *)
  let rec go () =
    let old = Atomic.get g in
    if not (Atomic.compare_and_set g old (old +. d)) then go ()
  in
  go ()

let level g = Atomic.get g

let bucket_of v =
  if v < 1.0 then 0
  else begin
    let i = 1 + int_of_float (Float.log2 v) in
    if i < 1 then 1 else if i >= bucket_count then bucket_count - 1 else i
  end

let observe h v =
  let v = Float.max 0.0 v in
  let i = bucket_of v in
  Mutex.lock h.h_m;
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.bucket_sums.(i) <- h.bucket_sums.(i) +. v;
  Stats.Accumulator.add h.acc v;
  Mutex.unlock h.h_m

let time h f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> observe h ((Unix.gettimeofday () -. t0) *. 1e6)) f

let with_hist h f =
  Mutex.lock h.h_m;
  let r = f h in
  Mutex.unlock h.h_m;
  r

let observations h = with_hist h (fun h -> Stats.Accumulator.n h.acc)

let hist_mean h = with_hist h (fun h -> Stats.Accumulator.mean h.acc)

let hist_max h = with_hist h (fun h -> Stats.Accumulator.max h.acc)

let hist_min h = with_hist h (fun h -> Stats.Accumulator.min h.acc)

(* Quantile estimate from the log buckets: find the bucket holding the
   target rank and interpolate linearly inside it.  A bucket holding a
   single sample yields that sample exactly (its sum is the sample);
   estimates are clamped to the exact observed min/max so narrow
   histograms stay honest. *)
let quantile_locked h q =
  let n = Stats.Accumulator.n h.acc in
  if n = 0 then 0.0
  else begin
    let target = q *. float_of_int n in
    let rec walk i cum =
      if i >= bucket_count then Stats.Accumulator.max h.acc
      else begin
        let c = h.buckets.(i) in
        if c > 0 && float_of_int (cum + c) >= target then begin
          let est =
            if c = 1 then h.bucket_sums.(i)
            else begin
              let lo = if i = 0 then 0.0 else Float.pow 2.0 (float_of_int (i - 1)) in
              let hi = Float.pow 2.0 (float_of_int i) in
              let frac = Float.max 0.0 (target -. float_of_int cum) /. float_of_int c in
              lo +. (frac *. (hi -. lo))
            end
          in
          Float.min (Stats.Accumulator.max h.acc)
            (Float.max (Stats.Accumulator.min h.acc) est)
        end
        else walk (i + 1) (cum + c)
      end
    in
    walk 0 0
  end

let quantile h q =
  if q < 0.0 || q > 1.0 then invalid_arg "Metrics.quantile: q out of range";
  with_hist h (fun h -> quantile_locked h q)

let counter_value t name =
  Mutex.lock t.reg_m;
  let r =
    match Hashtbl.find_opt t.metrics name with
    | Some (Counter c) -> Atomic.get c
    | _ -> 0
  in
  Mutex.unlock t.reg_m;
  r

let names t =
  Mutex.lock t.reg_m;
  let r = Hashtbl.fold (fun k _ acc -> k :: acc) t.metrics [] in
  Mutex.unlock t.reg_m;
  List.sort compare r

let reset t =
  Mutex.lock t.reg_m;
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> Atomic.set c 0
      | Gauge g -> Atomic.set g 0.0
      | Histogram h ->
        Mutex.lock h.h_m;
        Array.fill h.buckets 0 bucket_count 0;
        Array.fill h.bucket_sums 0 bucket_count 0.0;
        h.acc <- Stats.Accumulator.create ();
        Mutex.unlock h.h_m)
    t.metrics;
  Mutex.unlock t.reg_m

let sorted_items t =
  Mutex.lock t.reg_m;
  let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.metrics [] in
  Mutex.unlock t.reg_m;
  List.sort (fun (a, _) (b, _) -> compare a b) items

let dump ppf t =
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> Format.fprintf ppf "%-40s %d@." name (Atomic.get c)
      | Gauge g -> Format.fprintf ppf "%-40s %.1f@." name (Atomic.get g)
      | Histogram h ->
        if observations h = 0 then Format.fprintf ppf "%-40s (no samples)@." name
        else
          Format.fprintf ppf
            "%-40s n=%d mean=%.1fus p50=%.1f p95=%.1f p99=%.1f max=%.1f@." name
            (observations h) (hist_mean h) (quantile h 0.5) (quantile h 0.95)
            (quantile h 0.99) (hist_max h))
    (sorted_items t)

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

let dump_json t =
  let buf = Buffer.create 1024 in
  let section kind keep emit =
    Printf.bprintf buf "\"%s\": {" kind;
    let first = ref true in
    List.iter
      (fun (name, m) ->
        if keep m then begin
          if not !first then Buffer.add_string buf ", ";
          first := false;
          Printf.bprintf buf "\"%s\": " (json_escape name);
          emit m
        end)
      (sorted_items t);
    Buffer.add_char buf '}'
  in
  Buffer.add_char buf '{';
  section "counters"
    (function Counter _ -> true | _ -> false)
    (function Counter c -> Printf.bprintf buf "%d" (Atomic.get c) | _ -> ());
  Buffer.add_string buf ", ";
  section "gauges"
    (function Gauge _ -> true | _ -> false)
    (function Gauge g -> Printf.bprintf buf "%.3f" (Atomic.get g) | _ -> ());
  Buffer.add_string buf ", ";
  section "histograms"
    (function Histogram _ -> true | _ -> false)
    (function
      | Histogram h ->
        if observations h = 0 then Buffer.add_string buf "{\"n\": 0}"
        else
          Printf.bprintf buf
            "{\"n\": %d, \"mean\": %.3f, \"p50\": %.3f, \"p95\": %.3f, \"p99\": \
             %.3f, \"min\": %.3f, \"max\": %.3f}"
            (observations h) (hist_mean h) (quantile h 0.5) (quantile h 0.95)
            (quantile h 0.99) (hist_min h) (hist_max h)
      | _ -> ());
  Buffer.add_char buf '}';
  Buffer.contents buf
