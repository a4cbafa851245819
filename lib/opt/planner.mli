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

type force =
  | E1  (** the canonical lazy plan; always admissible *)
  | Force_placement of { below : string list; partial : bool }
      (** demand the aggregation be placed below exactly this cut —
          fully ([partial = false], requires TestFD = YES at the cut) or
          partially ([partial = true], requires decomposable
          aggregates).  The paper's forced E2 is the full placement at
          {!default_cut}. *)
(** Force hooks for differential testing: bypass the cost comparison and
    demand one specific strategy.  Unsound demands are refused with a
    typed error — forcing never compromises soundness. *)

type decision = {
  verdict : Testfd.verdict;
      (** TestFD at the default (classic R1/R2) cut, or the reason the
          planner could not run it; no candidate carries this when the
          answer is NO *)
  chosen : Plan.t;
      (** the plan to run: physically equal ([==]) to exactly one
          candidate's [plan] (see {!chosen_candidate}) *)
  candidates : Placement.t list;
      (** every costed placement, cheapest first (ties favour earlier
          entries, so E1 wins a dead heat); always holds the lazy E1
          candidate.  [chosen] is the head unless forcing or a fallback
          intervened *)
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
    canonical plan; [Force_placement] pins the cut (and mode) and yields
    that placement {i only} when it is admissible there.  Refused
    demands are [Error]s of kind [Planner]. *)

val force_to_string : force -> string

val default_cut : Canonical.t -> string list
(** R1's range variables: the cut of the paper's two-sided E2. *)

val chosen_candidate : decision -> Placement.t
(** The candidate whose plan is [chosen]. *)

val lazy_candidate : decision -> Placement.t
(** The lazy E1 candidate. *)

val eager_candidate : decision -> Placement.t option
(** The full placement at the default cut — the paper's E2 — when
    TestFD verified it there and it was costed. *)
