(** Structured EXPLAIN output.

    {!of_decision} captures everything EXPLAIN reports as a typed value —
    tests assert on these fields, not on rendered substrings — and
    {!render} is the single place that turns it into text.  Everything
    is read off the decision's candidates: the E1 block is the lazy
    candidate ({!Planner.lazy_candidate}), the E2 block the full
    placement at the default cut ({!Planner.eager_candidate}), the
    [chosen:] line the mode of {!Planner.chosen_candidate}.  The textual
    prefix (TestFD verdict, expansion count, E1/E2 cost breakdowns,
    fallback, strategy reason, chosen line) keeps the paper's two-plan
    format; the ranked-placements section and then one [statistics:]
    line per base table (how far the table has moved since its
    statistics were collected) are appended after the [chosen:] line. *)

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
  lazy_breakdown : Cost.breakdown;  (** the lazy E1 candidate *)
  eager_breakdown : Cost.breakdown option;
      (** the full placement at the default cut, when TestFD verified it *)
  fallback : string option;
  forced : string option;  (** {!Planner.force_to_string} when forced *)
  chosen : Placement.mode;  (** the mode of the chosen candidate *)
  placements : entry list;  (** cheapest first; singleton when only E1 *)
  statistics : stats_age list;
      (** one per base table of the lazy plan, in scan order *)
}

val of_decision : Database.t -> Planner.decision -> t
val render : t -> string

val text : Database.t -> Planner.decision -> string
(** [render (of_decision db d)]. *)
