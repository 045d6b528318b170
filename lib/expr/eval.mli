(** Expression evaluation with SQL three-valued logic.

    Restrictions are *compiled* once per snapshot definition ({!compile}):
    column names resolve to positions against the schema at compile time,
    mirroring the R* approach of compiling the refresh query when the
    snapshot is created, and evaluation is then allocation-light. *)

open Snapdiff_storage

type truth = True | False | Unknown

exception Eval_error of string
(** Runtime failures: division by zero, type confusion that escaped the
    checker. *)

val eval : Schema.t -> Tuple.t -> Expr.t -> Value.t
(** Scalar evaluation; NULL operands propagate to NULL results. *)

val eval_pred : Schema.t -> Tuple.t -> Expr.t -> truth

val qualifies : Schema.t -> Tuple.t -> Expr.t -> bool
(** WHERE-clause semantics: [Unknown] does not qualify. *)

type compiled = Tuple.t -> bool

val compile : Schema.t -> Expr.t -> compiled
(** Raises [Eval_error] immediately if a referenced column is missing. *)

val compile_scalar : Schema.t -> Expr.t -> Tuple.t -> Value.t

(** {1 Record predicates}

    The scan's form of a restriction: it runs on an encoded record whose
    field offsets a walk has recorded ({!Codec.Fields}), and decodes only
    the columns it references.  Column [i] of the schema is field [i] of
    the record, so a predicate compiled against a base table's user
    schema runs unchanged on its stored records (user columns first,
    annotations after). *)

type record_pred = Codec.Fields.t -> bool

val compile_record : Schema.t -> Expr.t -> record_pred
(** The restriction as a record predicate: on the encoding of any tuple
    [t], it answers what [compile schema e t] answers, and raises
    [Eval_error] when and only when that raises.  It is the same
    evaluator reading fields instead of tuple slots, except for the
    shape [col <cmp> INT-constant] (either side), which compares an
    integer field's payload in place.  Raises [Eval_error] immediately
    if a referenced column is missing. *)

(** {1 Building blocks} (shared with {!Simplify}) *)

val compare_values : Value.t -> Value.t -> int
(** {!Value.compare} with numeric widening between INT and FLOAT. *)

val fold_arith : Expr.binop -> Value.t -> Value.t -> Value.t option
(** Constant-fold one arithmetic operation; [None] when the operation
    would raise (division by zero) or the operands are non-numeric. *)

val like_match : string -> string -> bool
(** [like_match s pattern] — SQL LIKE with [%] and [_]. *)
