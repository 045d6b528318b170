(** Synthetic workloads for the evaluation.

    The paper's two experiment parameters are "the amount of update
    activity on the base table since the last refresh, and the degree to
    which the base table is restricted by the snapshot".  This module
    provides the standard employee-style table whose [qual] column is
    uniform in [0, 100000), so a predicate [qual < q * 100000] has exact
    selectivity [q]; {!update_fraction} then touches a chosen fraction of
    {e distinct} tuples between refreshes. *)

open Snapdiff_storage
open Snapdiff_txn
module Expr = Snapdiff_expr.Expr
module Rng = Snapdiff_util.Rng
module Base_table = Snapdiff_core.Base_table

val schema : Schema.t
(** [(id INT NOT NULL, name STRING NOT NULL, qual INT NOT NULL,
     payload INT NOT NULL)]. *)

val qual_domain : int
(** 100000 — [qual] is uniform in [\[0, qual_domain)]. *)

val restrict_fraction : float -> Expr.t
(** [restrict_fraction q] qualifies a [q] fraction of tuples. *)

val make_base :
  ?mode:Base_table.mode ->
  ?wal:Snapdiff_wal.Wal.t ->
  ?name:string ->
  ?page_size:int ->
  ?frames:int ->
  clock:Clock.t ->
  unit ->
  Base_table.t
(** [frames] sizes the buffer pool (see {!Base_table.create}); size it
    to hold the whole table to measure decode bandwidth, not store
    faulting. *)

val populate : Base_table.t -> rng:Rng.t -> n:int -> unit
(** Insert [n] rows with uniform [qual] and sequential ids. *)

type mutation_mix = {
  update_weight : int;
  insert_weight : int;
  delete_weight : int;
  qual_flip : bool;
      (** if true, updates re-randomize [qual] (entries can enter/leave the
          snapshot); if false, updates touch only [payload] (the Figure 8/9
          model) *)
}

val payload_updates_only : mutation_mix
(** Updates only, payload only — the paper's evaluation model. *)

val churn : mutation_mix
(** 60% updates (with qual flips), 20% inserts, 20% deletes. *)

val update_fraction :
  Base_table.t -> rng:Rng.t -> u:float -> mix:mutation_mix -> int
(** Touch exactly [u * count] distinct live tuples (rounded); each touched
    tuple receives one update-or-delete from [mix].  Inserts are drawn
    {e outside} the without-replacement sample (at the mix's relative
    rate), so the realized mutated fraction is exactly [u] — an insert
    never burns a sampled address.  Returns the total number of operations
    performed (touches plus inserts).  Address selection is uniform. *)

val mutate_zipf :
  Base_table.t -> rng:Rng.t -> ops:int -> theta:float -> mix:mutation_mix -> int
(** [ops] mutations with zipf-skewed (not necessarily distinct) address
    selection — the skew ablation.  A draw landing an update/delete on an
    address already deleted by this run is resampled (bounded), so the
    applied-op count — which is returned — stays at the nominal [ops]
    until the table is nearly exhausted. *)

(** {2 Multi-tenant arrival processes}

    Drive the fleet-scheduler bench: many bases of heavy-tailed size, each
    mutated by a bursty (Markov-modulated Poisson) updater with its own
    mean rate and address skew.  All simulated time; [dt_s] is seconds of
    virtual time per step. *)

type tenant = {
  tenant_id : int;
  tenant_size : int;  (** base-table rows (Pareto-distributed, bounded) *)
  tenant_rate : float;  (** mean mutations per simulated second *)
  tenant_burst : float;  (** rate multiplier while bursting *)
  tenant_theta : float;  (** zipf skew of the tenant's address selection *)
  mutable tenant_bursting : bool;
}

val pareto : Rng.t -> alpha:float -> xmin:float -> float
(** Heavy-tailed draw: [xmin / U^(1/alpha)]. *)

val make_tenants :
  rng:Rng.t -> tenants:int -> ?min_size:int -> ?max_size:int -> unit -> tenant array
(** Tenant population with Pareto sizes in [\[min_size, max_size\]]
    (defaults 64, 8192), log-uniform mean rates over two decades, and
    heavy-tailed burst multipliers. *)

val poisson : Rng.t -> float -> int
(** Poisson-distributed count with the given mean (normal approximation
    above mean 256). *)

val arrivals : Rng.t -> tenant -> dt_s:float -> int
(** Mutations this tenant issues over the next [dt_s] of simulated time:
    Poisson at the tenant's current rate, which toggles between mean and
    burst level via a two-state Markov chain advanced once per call. *)
