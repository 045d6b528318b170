module Metrics = Snapdiff_obs.Metrics
module Trace = Snapdiff_obs.Trace

let m_frames = Metrics.counter Metrics.global "link.frames"
let m_logical = Metrics.counter Metrics.global "link.logical_messages"
let m_bytes = Metrics.counter Metrics.global "link.bytes"
let m_dropped = Metrics.counter Metrics.global "link.dropped"
let m_fault_drops = Metrics.counter Metrics.global "link.fault_drops"
let m_fault_corruptions = Metrics.counter Metrics.global "link.fault_corruptions"
let m_fault_outages = Metrics.counter Metrics.global "link.fault_outages"

exception Link_down of string

exception No_receiver of string

type stats = {
  messages : int;
  logical_messages : int;
  bytes : int;
  payload_bytes : int;
  dropped : int;
  injected_drops : int;
  injected_corruptions : int;
  injected_failures : int;
}

let zero_stats =
  {
    messages = 0;
    logical_messages = 0;
    bytes = 0;
    payload_bytes = 0;
    dropped = 0;
    injected_drops = 0;
    injected_corruptions = 0;
    injected_failures = 0;
  }

let pp_stats ppf s =
  Format.fprintf ppf "%d msgs (%d logical), %d bytes (%d payload), %d dropped" s.messages
    s.logical_messages s.bytes s.payload_bytes s.dropped;
  if s.injected_drops + s.injected_corruptions + s.injected_failures > 0 then
    Format.fprintf ppf " [faults: %d lost, %d corrupted, %d outages]" s.injected_drops
      s.injected_corruptions s.injected_failures

module Rng = Snapdiff_util.Rng

type fault_plan = {
  drop_prob : float;
  corrupt_prob : float;
  fail_after : int option;
  partitions : (int * int) list;
}

type faults = {
  plan : fault_plan;
  frng : Rng.t;
  mutable attempts : int;  (* sends seen since the plan was armed *)
  mutable fail_pending : int option;  (* one-shot outage threshold *)
}

type t = {
  link_name : string;
  header_bytes : int;
  latency_us : float;
  bytes_per_sec : float;
  mutable receiver : (bytes -> int -> unit) option;
  mutable up : bool;
  mutable stats : stats;
  mutable simulated_us : float;
  mutable faults : faults option;
}

let create ?(name = "link") ?(header_bytes = 32) ?(latency_us = 0.0)
    ?(bytes_per_sec = infinity) () =
  {
    link_name = name;
    header_bytes;
    latency_us;
    bytes_per_sec;
    receiver = None;
    up = true;
    stats = zero_stats;
    simulated_us = 0.0;
    faults = None;
  }

let simulated_time_us t = t.simulated_us

let advance_time t us = if us > 0.0 then t.simulated_us <- t.simulated_us +. us

let attach t f = t.receiver <- Some f

let detach t = t.receiver <- None

let is_up t = t.up

let set_up t up = t.up <- up

let stats t = t.stats

let reset_stats t = t.stats <- zero_stats

let inject_faults t ?(drop_prob = 0.0) ?(corrupt_prob = 0.0) ?fail_after
    ?(partitions = []) ~seed () =
  if drop_prob < 0.0 || drop_prob > 1.0 then invalid_arg "Link.inject_faults: drop_prob";
  if corrupt_prob < 0.0 || corrupt_prob > 1.0 then
    invalid_arg "Link.inject_faults: corrupt_prob";
  t.faults <-
    Some
      {
        plan = { drop_prob; corrupt_prob; fail_after; partitions };
        frng = Rng.create seed;
        attempts = 0;
        fail_pending = fail_after;
      }

let clear_faults t = t.faults <- None

let count_drop t =
  t.stats <- { t.stats with dropped = t.stats.dropped + 1 };
  Metrics.incr m_dropped

(* Decide this send's fate under the armed fault plan.  Outages (one-shot
   fail-after and partition windows) surface to the sender as Link_down;
   loss and corruption are silent, which is exactly what the epoch/seq
   framing on the receiver side exists to detect. *)
let consult_faults t =
  match t.faults with
  | None -> `Deliver
  | Some f ->
    f.attempts <- f.attempts + 1;
    let in_partition =
      List.exists (fun (lo, hi) -> f.attempts >= lo && f.attempts <= hi) f.plan.partitions
    in
    let crashed =
      match f.fail_pending with
      | Some n when f.attempts > n ->
        f.fail_pending <- None;  (* transient: exactly one outage *)
        true
      | _ -> false
    in
    if in_partition || crashed then `Outage
    else if f.plan.drop_prob > 0.0 && Rng.bernoulli f.frng f.plan.drop_prob then `Lose
    else if f.plan.corrupt_prob > 0.0 && Rng.bernoulli f.frng f.plan.corrupt_prob then
      `Corrupt (Rng.int f.frng max_int)
    else `Deliver

let account t ~logical n =
  t.stats <-
    {
      t.stats with
      messages = t.stats.messages + 1;
      logical_messages = t.stats.logical_messages + logical;
      bytes = t.stats.bytes + t.header_bytes + n;
      payload_bytes = t.stats.payload_bytes + n;
    };
  Metrics.incr m_frames;
  Metrics.add m_logical logical;
  Metrics.add m_bytes (t.header_bytes + n);
  t.simulated_us <-
    t.simulated_us +. t.latency_us
    +. (1_000_000.0 *. float_of_int (t.header_bytes + n) /. t.bytes_per_sec)

let send t ?(logical = 1) ?len payload =
  let len = Option.value len ~default:(Bytes.length payload) in
  if len < 0 || len > Bytes.length payload then invalid_arg "Link.send: len";
  if not t.up then begin
    count_drop t;
    raise (Link_down t.link_name)
  end;
  match t.receiver with
  | None -> raise (No_receiver t.link_name)
  | Some f -> (
    match consult_faults t with
    | `Outage ->
      count_drop t;
      t.stats <- { t.stats with injected_failures = t.stats.injected_failures + 1 };
      Metrics.incr m_fault_outages;
      Trace.event "link.fault" ~attrs:[ ("link", t.link_name); ("kind", "outage") ];
      raise (Link_down t.link_name)
    | `Lose ->
      (* The message occupied the wire but never arrived. *)
      account t ~logical len;
      count_drop t;
      t.stats <- { t.stats with injected_drops = t.stats.injected_drops + 1 };
      Metrics.incr m_fault_drops;
      Trace.event "link.fault" ~attrs:[ ("link", t.link_name); ("kind", "drop") ]
    | `Corrupt salt ->
      account t ~logical len;
      t.stats <- { t.stats with injected_corruptions = t.stats.injected_corruptions + 1 };
      Metrics.incr m_fault_corruptions;
      Trace.event "link.fault" ~attrs:[ ("link", t.link_name); ("kind", "corrupt") ];
      (* The sender's buffer is only borrowed: garble a copy. *)
      let garbled = Bytes.sub payload 0 len in
      if len > 0 then begin
        let i = salt mod len in
        Bytes.set garbled i
          (Char.chr (Char.code (Bytes.get garbled i) lxor (1 + (salt lsr 8) mod 255)))
      end;
      f garbled len
    | `Deliver ->
      account t ~logical len;
      f payload len)

let try_send t ?logical payload =
  match send t ?logical payload with
  | () -> true
  | exception Link_down _ -> false
