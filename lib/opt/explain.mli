(** Structured EXPLAIN output.

    {!of_decision} captures everything EXPLAIN reports as a typed value —
    tests assert on these fields, not on rendered substrings — and
    {!render} is the single place that turns it into text.  The textual
    prefix (TestFD verdict, expansion count, E1/E2 cost breakdowns,
    fallback, strategy reason, chosen line) is byte-for-byte the format
    the planner printed before placements existed; the ranked-placements
    section and then one [statistics:] line per base table (how far the
    table has moved since its statistics were collected) are appended
    after the [chosen:] line. *)

open Eager_core
open Eager_storage

type entry = {
  rank : int;  (** 1-based position in the cost ranking *)
  label : string;  (** {!Placement.describe} *)
  cost : float;
  picked : bool;  (** this candidate is the decision's chosen plan *)
}

type stats_age = {
  table : string;
  collected_at : int;  (** rows when its statistics were collected *)
  rows : int;  (** rows now *)
}

type t = {
  verdict : Testfd.verdict;
  expanded_atoms : int;
  lazy_breakdown : Cost.breakdown;
  eager_breakdown : Cost.breakdown option;
  fallback : string option;
  forced : string option;  (** {!Planner.force_to_string} when forced *)
  chosen_kind : Planner.kind;
  placements : entry list;  (** cheapest first; singleton when only E1 *)
  statistics : stats_age list;
      (** one per base table of the lazy plan, in scan order *)
}

val of_decision : Database.t -> Planner.decision -> t
val render : t -> string

val text : Database.t -> Planner.decision -> string
(** [render (of_decision db d)]. *)
