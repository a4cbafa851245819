(** Aggregation-placement candidates and their lowering onto plans.

    A placement says {i where} the group-by sits relative to the join
    tree: nowhere below it (lazy E1), fully below one cut (the paper's
    eager E2, valid only when TestFD verifies FD1/FD2 at that cut), or
    partially below one cut (a bounded [Partial_group] whose partials a
    finalizing group re-combines — sound for any decomposable aggregate
    list, no FD check needed).

    This module is the single sanctioned bridge from placements to the
    legacy two-sided plan constructors ([Plans.e1_with] and friends);
    the lint rule bans those constructors everywhere else outside
    [lib/core]. *)

open Eager_core
open Eager_storage
open Eager_algebra

type mode =
  | Lazy  (** group after all joins — the canonical E1 *)
  | Eager_full
      (** whole group-by below the cut (E2); requires TestFD = YES *)
  | Eager_partial
      (** bounded partial pre-aggregation below the cut plus a
          finalizing group above; requires decomposable aggregates *)

type t = {
  mode : mode;
  below : string list;
      (** the cut: range variables grouped below the join; [[]] for
          {!Lazy} *)
  verdict : Testfd.verdict option;
      (** the per-cut TestFD answer backing an {!Eager_full} candidate;
          [None] when no FD check applies *)
  plan : Plan.t;
  cost : float;
}

val describe : t -> string
(** One-line human label, e.g. ["eager full below {p, s}"]. *)

val mode_to_string : mode -> string
(** The strategy label EXPLAIN and the [-- plan:] result footer print:
    ["group after join (E1)"], ["group before join (E2)"] or
    ["partial group before join (E2p)"]. *)

val sides :
  Database.t -> Canonical.t -> Plan.t * Plan.t
(** The cut's two side trees — DP join-order enumeration
    ({!Join_order.best_tree}) for sides of three or more relations,
    the greedy FROM-order tree otherwise. *)

val lower_lazy : Database.t -> Canonical.t -> Plan.t
(** E1 over {!sides}. *)

val lower_full : Database.t -> Canonical.t -> Plan.t
(** E2 over {!sides}; the caller is responsible for having verified
    TestFD at this cut. *)

val lower_partial :
  Database.t -> cap:int -> Canonical.t -> (Plan.t, string) result
(** The partial plan over {!sides}; [Error] when an aggregate is not
    decomposable. *)

val restore_order : like:Canonical.t -> Canonical.t -> Plan.t -> Plan.t
(** [restore_order ~like qc p] appends a permuting projection to [p]
    (a plan lowered from the per-cut canonical [qc]) whenever [qc]'s
    output column order differs from [like]'s: re-canonicalising at a
    different cut re-partitions the grouping columns between the sides,
    and sga1 @ sga2 follows the partition, not the original SELECT. *)
