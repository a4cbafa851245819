(** The cost-based decision: validity by TestFD (or decomposability),
    desirability by cost.

    The paper establishes {i when the transformation is valid} (Theorem 1/2,
    TestFD) and observes that validity does not imply profitability
    (Section 7, Figure 8).  The planner combines both, generalised to
    N-way join trees: every candidate cut of the join graph
    ({!Eager_core.Qgraph.cuts}) yields up to two eager placements — the
    full E2 rewrite when TestFD verifies the cut, and the partial
    pre-aggregation (bounded [Partial_group] plus finalizing group) when
    the aggregates are decomposable — and the cost model ranks them all
    against the canonical E1.  The two-relation case degenerates to the
    paper's binary E1-vs-E2 comparison. *)

open Eager_core
open Eager_storage
open Eager_algebra
open Eager_robust

type kind = Lazy_group | Eager_group | Eager_partial_group

type force =
  | E1
  | E2
  | Force_placement of { below : string list; partial : bool }
      (** demand the aggregation be placed below exactly this cut —
          fully ([partial = false], requires TestFD = YES at the cut) or
          partially ([partial = true], requires decomposable
          aggregates) *)
(** Force hooks for differential testing: bypass the cost comparison and
    demand one specific strategy.  Unsound demands are refused with a
    typed error — forcing never compromises soundness. *)

type decision = {
  verdict : Testfd.verdict;  (** TestFD at the default (classic R1/R2) cut *)
  plan_lazy : Plan.t;
  cost_lazy : float;
  plan_eager : Plan.t option;
      (** the full E2 plan at the default cut, when TestFD verified it *)
  cost_eager : float option;
  chosen : Plan.t;
  chosen_kind : kind;
  expanded_atoms : int;
      (** predicate-expansion bindings derived before planning (paper
          Example 3's closing optimization); 0 when [expand:false] *)
  fallback : string option;
      (** when set, the planner degraded gracefully: an error, injected
          fault, or budget breach inside TestFD / cost estimation demoted
          the decision to the canonical E1 plan for this reason *)
  forced : force option;
      (** set when the caller forced the strategy; EXPLAIN reports the
          forced strategy as the reason instead of the cost comparison *)
  candidates : Placement.t list;
      (** every costed placement, cheapest first (ties favour earlier
          entries, so E1 wins a dead heat); [chosen] is the head unless
          forcing or a fallback intervened *)
}

val decide :
  ?strict:bool ->
  ?expand:bool ->
  ?governor:Governor.t ->
  ?force:force ->
  ?partial_cap:int ->
  ?max_cuts:int ->
  ?io:Cost.io_model ->
  Database.t ->
  Canonical.t ->
  (decision, Err.t) result
(** The planner's single entry point, behind the typed-error boundary:
    even a planner that cannot produce the E1 plan (e.g. every
    referenced table is gone) — or a forced rewrite that fails
    verification — returns [Error] instead of raising.

    [expand] (default true) applies {!Eager_core.Expand.query} first, so
    derived constant bindings shrink the eager plans' grouping inputs.
    Any failure inside verification or costing — including a [governor]
    deadline already exceeded — falls back to E1 with the reason
    recorded in [fallback] (and shown by {!Explain}).

    [partial_cap] (default 1024) bounds the partial operator's live
    groups; [max_cuts] (default 16) bounds placement enumeration.

    [io] makes ranking IO-aware on a paged database (see
    {!Cost.io_model}): placements are compared on row touches {i plus}
    estimated page transfers, so a rewrite whose smaller breakers avoid
    spilling wins even when its row counts tie.  Omitted, costs are the
    pure row-touch figures.

    [force] bypasses the cost comparison: [E1] always yields the
    canonical plan; [E2] yields the full eager plan at the default cut
    {i only} when TestFD answers YES; [Force_placement] pins the cut
    (and mode) explicitly.  Refused demands are [Error]s of kind
    [Planner]. *)

val kind_to_string : kind -> string
val force_to_string : force -> string
