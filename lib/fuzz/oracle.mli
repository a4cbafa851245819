(** The Main Theorem as an executable oracle.

    Executes one instance three ways — forced E1, forced E2 (the full
    placement at {!Eager_opt.Planner.default_cut}), planner's choice —
    and cross-checks the results under bag semantics with
    NULL-aware grouping, enforcing only directions that are theorems:

    - (a) TestFD YES ⇒ all three executions are bag-equal; TestFD NO ⇒
      forcing E2 yields a typed [Planner] refusal.
    - (b) TestFD YES ⇒ FD1/FD2 hold on the instance; both FDs holding ⇒
      raw E1 ≡ raw E2 on the instance (instance-wise sufficiency).
    - (c) Under injected [exec.next] faults each plan is fail-stop
      (typed [Exec] error or the exact fault-free bag); governor row
      budgets are a sharp threshold (exact charge passes, one less is a
      typed [Resource] refusal).
    - (d) Every aggregation placement over the join graph — full
      group-by or partial pre-aggregation forced below any admissible
      cut — returns the same bag as forced E1; partial placements run
      under a tiny operator cap (so flush epochs repeat groups) and are
      additionally cross-checked against the naive reference evaluator.
      A full placement may be refused (typed [Planner]) when TestFD
      says NO at that cut; a partial placement may be refused only for
      non-decomposable aggregates (COUNT DISTINCT). *)

open Eager_storage
open Eager_core
open Eager_schema

type violation = { tag : string; detail : string }
(** [tag] names the broken invariant ("e2-mismatch", "fd-contradiction",
    "fault", "budget", …); [detail] is the human-readable evidence. *)

val violation_to_string : violation -> string

type outcome = {
  verdict : Testfd.verdict option;
      (** [None] only when the case failed before TestFD ran *)
  fd_holds : bool;  (** both instance-level FDs hold *)
  violation : violation option;
}

val check_instance :
  ?equal:(Row.t list -> Row.t list -> bool) ->
  ?faults:bool ->
  ?fault_seed:int ->
  Database.t ->
  Canonical.t ->
  outcome
(** [equal] defaults to {!Eager_exec.Exec.multiset_equal}; it is
    injectable so the mutation smoke-test can plant a deliberately
    broken comparator and prove the harness catches it.  [faults]
    (default true) enables the injected-fault and governor-budget
    checks.  Always leaves the fault registry disarmed. *)

val check :
  ?equal:(Row.t list -> Row.t list -> bool) ->
  ?faults:bool ->
  ?fault_seed:int ->
  ?storage:Database.storage_config ->
  Qgen.case ->
  outcome
(** Materialise the case ({!Qgen.build}, over the paged engine when
    [storage] is given) and run {!check_instance}. *)
