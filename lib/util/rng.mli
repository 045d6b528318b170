(** Deterministic pseudo-random number generation.

    All randomized components of the system (workload generators, property
    tests, failure injection) draw from an explicit generator state so that
    every experiment is reproducible from its seed.  The implementation is
    splitmix64, which has good statistical quality and a trivially
    serializable state. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator determined entirely by [seed]. *)

val copy : t -> t
(** [copy t] is an independent generator that will produce the same stream as
    [t] from this point on. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  Streams of the
    parent and child are (statistically) independent. *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Raises [Invalid_argument] if
    [n <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive.  Raises
    [Invalid_argument] if [hi < lo]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct integers uniformly
    from [\[0, n)], in random order.  Raises [Invalid_argument] if [k > n]
    or [k < 0]. *)

val zipf : t -> n:int -> theta:float -> int
(** [zipf t ~n ~theta] draws from a Zipf-like distribution over [\[0, n)]
    with skew [theta] (0.0 = uniform; larger is more skewed), using the
    standard YCSB-style rejection-free construction. *)
