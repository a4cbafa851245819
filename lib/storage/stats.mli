(** Per-column statistics used by the optimizer's cardinality estimator. *)

open Eager_schema

type histogram = {
  lo : float;
  hi : float;
  counts : int array;  (** equi-width buckets over [lo, hi] *)
  total : int;  (** non-NULL numeric values summarised *)
}

type col_stats = {
  ndv : int;  (** number of distinct non-NULL values *)
  nulls : int;
  min_v : Eager_value.Value.t;  (** Null when the column is all NULL/empty *)
  max_v : Eager_value.Value.t;
  hist : histogram option;  (** present for numeric columns with data *)
}

val fraction_below : histogram -> float -> float
(** Estimated fraction of summarised values strictly below [v], with linear
    interpolation inside the straddled bucket.  Clamped to [0, 1]. *)

type t

val collect : Heap.t -> t
(** Two full passes over the heap.  Callers go through
    [Database.stats], which reuses an earlier collection while the
    table has drifted little. *)

val row_count : t -> int
(** The table's row count: exact, even when {!with_rows} carried the
    per-column summaries over from an earlier collection. *)

val collected_at : t -> int
(** The row count the per-column summaries (NDV, nulls, min/max,
    histograms) were collected at. *)

val with_rows : t -> int -> t
(** [with_rows t n] is [t] with its row count set to [n] and everything
    else, {!collected_at} included, unchanged.  O(1). *)

val col : t -> int -> col_stats
val col_by_ref : t -> Schema.t -> Colref.t -> col_stats
val ndv_of_cols : t -> int array -> int
(** Estimated number of distinct combinations over a column set:
    min(row count, product of per-column ndv, capped to avoid overflow). *)

val pp : Format.formatter -> t -> unit
