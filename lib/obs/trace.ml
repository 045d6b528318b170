type kind = Span | Event

type record = {
  name : string;
  kind : kind;
  start_us : float;
  dur_us : float;
  attrs : (string * string) list;
}

type sink = Memory | Stderr | Jsonl of string

type state = {
  mutable enabled : bool;
  mutable ring : record option array;
  mutable head : int;  (* next write slot *)
  mutable stored : int;
  mutable dropped : int;
  mutable t0 : float;
  mutable channel : out_channel option;
  mutable to_stderr : bool;
}

let state =
  {
    enabled = false;
    ring = [||];
    head = 0;
    stored = 0;
    dropped = 0;
    t0 = 0.0;
    channel = None;
    to_stderr = false;
  }

(* Monotonic microsecond clock: [Unix.gettimeofday] clamped to be
   non-decreasing, so spans can never report negative durations even if
   the wall clock steps backwards.  Each read is counted. *)
let last_now = ref 0.0
let reads = ref 0

let clock_reads () = !reads

let now_us () =
  incr reads;
  let t = Unix.gettimeofday () *. 1e6 in
  if t > !last_now then last_now := t;
  !last_now

let enabled () = state.enabled

let close_channel () =
  match state.channel with
  | None -> ()
  | Some oc ->
    state.channel <- None;
    (try close_out oc with Sys_error _ -> ())

let enable ?(capacity = 4096) sink =
  if capacity < 1 then invalid_arg "Trace.enable: capacity must be positive";
  close_channel ();
  state.ring <- Array.make capacity None;
  state.head <- 0;
  state.stored <- 0;
  state.dropped <- 0;
  state.t0 <- now_us ();
  state.to_stderr <- sink = Stderr;
  (match sink with Jsonl path -> state.channel <- Some (open_out path) | Memory | Stderr -> ());
  state.enabled <- true

let disable () =
  close_channel ();
  state.enabled <- false

let flush () = match state.channel with Some oc -> flush oc | None -> ()

let kind_name = function Span -> "span" | Event -> "event"

let pp_attrs buf attrs =
  List.iter (fun (k, v) -> Printf.bprintf buf " %s=%s" k v) attrs

let stderr_line r =
  let buf = Buffer.create 80 in
  Printf.bprintf buf "[trace] %-5s %-24s t=%.1fus" (kind_name r.kind) r.name r.start_us;
  if r.kind = Span then Printf.bprintf buf " dur=%.1fus" r.dur_us;
  pp_attrs buf r.attrs;
  Buffer.contents buf

let jsonl_line r =
  let buf = Buffer.create 128 in
  Printf.bprintf buf "{\"name\": \"%s\", \"kind\": \"%s\", \"t_us\": %.1f, \"dur_us\": %.1f"
    (Metrics.json_escape r.name) (kind_name r.kind) r.start_us r.dur_us;
  if r.attrs <> [] then begin
    Buffer.add_string buf ", \"attrs\": {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Printf.bprintf buf "\"%s\": \"%s\"" (Metrics.json_escape k) (Metrics.json_escape v))
      r.attrs;
    Buffer.add_char buf '}'
  end;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let push r =
  let cap = Array.length state.ring in
  if cap > 0 then begin
    if state.stored = cap then state.dropped <- state.dropped + 1
    else state.stored <- state.stored + 1;
    state.ring.(state.head) <- Some r;
    state.head <- (state.head + 1) mod cap
  end;
  if state.to_stderr then prerr_endline (stderr_line r);
  match state.channel with Some oc -> output_string oc (jsonl_line r) | None -> ()

let event ?(attrs = []) name =
  if state.enabled then
    push { name; kind = Event; start_us = now_us () -. state.t0; dur_us = 0.0; attrs }

(* Spans are recorded at completion, so in the record stream a child span
   appears before its enclosing parent. *)
let with_span ?(attrs = []) name f =
  if not state.enabled then f ()
  else begin
    let t_start = now_us () in
    let finish extra =
      push
        {
          name;
          kind = Span;
          start_us = t_start -. state.t0;
          dur_us = now_us () -. t_start;
          attrs = extra @ attrs;
        }
    in
    match f () with
    | v ->
      finish [];
      v
    | exception e ->
      finish [ ("error", Printexc.to_string e) ];
      raise e
  end

let recent () =
  let cap = Array.length state.ring in
  if cap = 0 || state.stored = 0 then []
  else begin
    let start = (state.head - state.stored + cap) mod cap in
    List.filter_map
      (fun i -> state.ring.((start + i) mod cap))
      (List.init state.stored Fun.id)
  end

let dropped () = state.dropped

let record_count () = state.stored
