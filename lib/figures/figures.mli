(** The experiment harness behind every figure and table of the paper's
    evaluation, plus the beyond-paper ablations.

    Each experiment runs the {e actual} refresh algorithms over synthetic
    workloads (never the analytical model alone) and reports message counts
    as a percentage of base-table size — the paper's metric.  The
    analytical prediction is computed alongside so the output shows
    simulation and analysis agreeing, as the paper claims. *)

type point = {
  u_pct : float;  (** x: % of tuples updated between refreshes *)
  ideal_sim : float;  (** measured, % of base table *)
  ideal_model : float;
  diff_sim : float;
  diff_model : float;
  full_sim : float;
}

type sweep = {
  q : float;  (** snapshot selectivity *)
  n : int;  (** base table size *)
  points : point list;
}

val message_sweep : ?seed:int -> n:int -> q:float -> u_list:float list -> unit -> sweep
(** One base table per (q, u) cell, populated identically from [seed];
    update activity touches distinct tuples, payload only (the Figure 8/9
    model); all three algorithms measured on the same mutated table. *)

val figure8 : ?seed:int -> ?n:int -> unit -> sweep list
(** Selectivities 100%, 50%, 25% over the paper's update-activity range. *)

val figure9 : ?seed:int -> ?n:int -> unit -> sweep list
(** Restrictive snapshots: 5% and 1% (plotted on a log scale). *)

val render_sweep_table : sweep -> string

val render_figure_chart : ?log_scale:bool -> title:string -> sweep list -> string
(** ASCII rendition of the figure: one glyph per (algorithm, q) series. *)

(** {1 Ablations} *)

type mix_row = {
  mix_name : string;
  ops : int;
  diff_msgs : int;
  ideal_msgs : int;
  full_msgs : int;
}

val churn_ablation : ?seed:int -> ?n:int -> unit -> mix_row list
(** Insert/delete/qual-flip mixes (beyond the paper's update-only model). *)

type maintenance_row = {
  maint_mode : string;
  base_ops : int;
  clock_ticks : int;  (** timestamp draws during ordinary operations *)
  annotation_writes_at_refresh : int;
  refresh_data_msgs : int;
}

val maintenance_ablation : ?seed:int -> ?n:int -> ?u:float -> unit -> maintenance_row list
(** Eager vs deferred: who pays for annotation upkeep, and when. *)

type asap_row = {
  refresh_interval : int;  (** ops between periodic refreshes *)
  asap_msgs : int;
  periodic_diff_msgs : int;
}

val asap_ablation : ?seed:int -> ?n:int -> ?ops:int -> unit -> asap_row list

type log_scan_row = {
  irrelevant_tables : int;  (** concurrent update streams on other tables *)
  log_records_scanned : int;
  relevant_records : int;
  messages : int;
}

val log_scan_ablation : ?seed:int -> ?n:int -> unit -> log_scan_row list
(** The log-culling cost: the log-based method scans the whole log tail
    even when most of it belongs to other tables. *)

type tail_row = {
  u_pct_tail : float;
  msgs_paper : int;  (** unconditional tail, as published *)
  msgs_suppressed : int;  (** with the high-water optimization *)
}

val tail_ablation : ?seed:int -> ?n:int -> ?q:float -> unit -> tail_row list

type amortization_row = {
  snapshots_on_base : int;
  first_refresh_fixups : int;  (** annotation writes paid by the first refresher *)
  later_refresh_fixups : int;  (** summed over all remaining snapshots *)
  total_data_msgs : int;
}

val amortization_ablation :
  ?seed:int -> ?n:int -> ?u:float -> unit -> amortization_row list
(** The paper's multi-snapshot claim: annotations are shared, so the
    fix-up work after a batch of changes is paid once by whichever
    snapshot refreshes first. *)

type stepwise_row = {
  generation : string;
  data_msgs : int;
  note : string;
}

val stepwise_ablation : ?seed:int -> ?n:int -> ?u:float -> unit -> stepwise_row list
(** The paper's stepwise development quantified: the same mutation script
    transmitted by each algorithm generation. *)

type wire_row = {
  wire_name : string;
  bytes_per_sec : float;
  latency_us : float;
  full_seconds : float;  (** simulated transfer time of one full refresh *)
  diff_seconds : float;
}

val wire_ablation : ?seed:int -> ?n:int -> ?u:float -> unit -> wire_row list
(** The same refresh streams replayed over period-appropriate links: what
    the message savings buy in (simulated) seconds on a 1986 WAN, a 1986
    LAN, and a modern link. *)

type cascade_row = {
  fanout : int;
  parent_msgs : int;
  cascade_msgs_total : int;  (** data messages the children's refreshes sent *)
  independent_msgs_total : int;
  children_faithful : bool;
      (** each child equals the restriction of its parent's committed
          image, at the parent's last epoch *)
}

val cascade_ablation : ?seed:int -> ?n:int -> ?u:float -> unit -> cascade_row list
(** Cascading N children off one parent snapshot vs defining each child
    directly on the base table: the cascade costs one base-table scan
    total (the parent's), while independent children each pay their own.
    Each child refreshes by diffing the parent's image before and after
    the parent's refresh. *)

type skew_row = {
  theta : float;
  ops_skew : int;
  diff_msgs_skew : int;
  ideal_msgs_skew : int;
}

val skew_ablation : ?seed:int -> ?n:int -> ?ops:int -> unit -> skew_row list
(** Zipf-skewed update addresses: repeated updates to hot tuples cost the
    differential algorithm nothing extra (annotations absorb them), unlike
    a change-shipping scheme whose log grows with every operation. *)

type faults_row = {
  fault_name : string;
  fault_batch : int;  (** the manager's [batch_size]: 1, or the default *)
  fault_armed : bool;  (** the plan injects faults (every plan but the clean line) *)
  refresh_rounds : int;
  attempts_total : int;  (** refresh attempts summed over all rounds *)
  aborted_streams : int;  (** streams the receiver discarded *)
  escalations : int;  (** rounds where differential was abandoned for full *)
  refreshes_failed : int;  (** rounds that exhausted the retry budget *)
  wire_messages : int;  (** total messages sent, including wasted streams *)
  faults_hit : int;
      (** frames the plan actually dropped, garbled or failed; an armed
          plan with none tested nothing *)
  converged : bool;
      (** faithful image after one refresh on a healed line, and the
          cascade child's held parent epoch is the parent's last
          committed epoch *)
}

val faults_ablation :
  ?seed:int -> ?n:int -> ?q:float -> ?rounds:int -> unit -> faults_row list
(** Refresh rounds driven over fault-injecting links (silent loss,
    corruption, crashes, partitions): attempts, aborted streams and
    escalations measure the retry tax; [converged] checks the atomicity
    guarantee — a failed refresh keeps the old image and SnapTime, so a
    healed line always catches up in one refresh.  Every plan runs twice:
    one message per frame ([fault_batch = 1]) first, then every plan
    again under the manager's default batched framing, with its message
    rates and message positions translated to frames of that size. *)

type prune_row = {
  prune_page_size : int;  (** pruning granularity under sweep *)
  prune_mix : string;
      (** ["payload"]: updates touch only the payload; ["qual_flip"]:
          they redraw [qual], so entries enter and leave the snapshot *)
  prune_u_pct : float;
  prune_n : int;
  prune_pages : int;
  pruned_scanned : int;  (** entries the pruned refresh decoded *)
  pruned_skipped : int;  (** entries proven irrelevant by page summaries *)
  pruned_msgs : int;
  unpruned_scanned : int;  (** always the full table *)
  unpruned_msgs : int;
  prune_identical : bool;
      (** both refreshes sent as many data messages and link bytes, and
          left byte-identical snapshot contents *)
}

val prune_ablation :
  ?seed:int -> ?n:int -> ?u_list:float list -> unit -> prune_row list
(** Page-summary scan pruning: a pruned and an unpruned differential
    snapshot over the same base table refresh after each activity burst;
    the pruned scan's decode count tracks change volume while the
    transmitted stream — hence snapshot contents — stays identical.  Page
    size is swept because it is the pruning granularity, and the update
    mix because only updates that change whether an entry qualifies
    carry a pending deletion across a skipped page. *)

type wire_batch_row = {
  batch_u_pct : float;
  batch_threshold : int;  (** messages coalesced per frame (1 = batching off) *)
  batch_data_msgs : int;  (** logical data messages — the paper's metric *)
  batch_frames : int;  (** physical frames on the wire *)
  batch_logical : int;  (** logical messages carried, incl. bracketing *)
  batch_bytes : int;
}

val wire_batching_ablation :
  ?seed:int -> ?n:int -> ?u_list:float list -> unit -> wire_batch_row list
(** Many refresh messages per frame at 100% selectivity and low churn: physical
    frame count falls up to [batch_threshold]-fold while the logical
    data-message count is unchanged. *)
