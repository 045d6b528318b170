module Metrics = Snapdiff_obs.Metrics

let m_acquired = Metrics.counter Metrics.global "lifecycle.leases_acquired"
let m_released = Metrics.counter Metrics.global "lifecycle.leases_released"
let m_live = Metrics.gauge Metrics.global "lifecycle.leases_live"

type kind = Scan | Log_cursor | Checkpoint

let kind_name = function
  | Scan -> "scan"
  | Log_cursor -> "log-cursor"
  | Checkpoint -> "checkpoint"

type t = {
  lease_kind : kind;
  lease_holder : string;
  mutable lease_lsn : int;
  mutable lease_live : bool;
  mutable on_release : unit -> unit;  (* installed by the owning horizon *)
}

let make ~kind ~holder ~lsn =
  Metrics.incr m_acquired;
  Metrics.shift m_live 1.0;
  {
    lease_kind = kind;
    lease_holder = holder;
    lease_lsn = lsn;
    lease_live = true;
    on_release = ignore;
  }

let set_on_release l f = l.on_release <- f

let lsn l = l.lease_lsn
let live l = l.lease_live

let release l =
  if l.lease_live then begin
    l.lease_live <- false;
    Metrics.incr m_released;
    Metrics.shift m_live (-1.0);
    let f = l.on_release in
    l.on_release <- ignore;
    f ()
  end

(* A move updates the LSN the lease protects; a released lease is a
   tombstone and silently ignores it (the idempotent-release contract
   would otherwise force every cursor-advance site to re-check). *)
let move_lsn l lsn = if l.lease_live then l.lease_lsn <- lsn

type gating = { g_kind : kind; g_holder : string; g_lsn : int }

let gating_of l = { g_kind = l.lease_kind; g_holder = l.lease_holder; g_lsn = l.lease_lsn }

let gating_to_string g =
  Printf.sprintf "%s:%s@%d" (kind_name g.g_kind) g.g_holder g.g_lsn
