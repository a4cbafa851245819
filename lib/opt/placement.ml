open Eager_core

type mode = Lazy | Eager_full | Eager_partial

type t = {
  mode : mode;
  below : string list;
  verdict : Testfd.verdict option;
  plan : Eager_algebra.Plan.t;
  cost : float;
}

let mode_to_string = function
  | Lazy -> "group after join (E1)"
  | Eager_full -> "group before join (E2)"
  | Eager_partial -> "partial group before join (E2p)"

let describe t =
  match t.mode with
  | Lazy -> mode_to_string Lazy
  | Eager_full ->
      Printf.sprintf "eager full below {%s}" (String.concat ", " t.below)
  | Eager_partial ->
      Printf.sprintf "eager partial below {%s}" (String.concat ", " t.below)

(* multi-table sides go through the DP join-order enumerator *)
let sides db (q : Canonical.t) =
  let side sources conjuncts fallback_plan =
    if List.length sources >= 3 then Join_order.best_tree db sources conjuncts
    else fallback_plan ()
  in
  ( side q.Canonical.r1 q.Canonical.c1 (fun () -> Plans.side1 db q),
    side q.Canonical.r2 q.Canonical.c2 (fun () -> Plans.side2 db q) )

let lower_lazy db q =
  let side1, side2 = sides db q in
  Plans.e1_with q ~side1 ~side2

let lower_full db q =
  let side1, side2 = sides db q in
  Plans.e2_with q ~side1 ~side2

let lower_partial db ~cap q =
  let side1, side2 = sides db q in
  Plans.eager_partial_with q ~cap ~side1 ~side2

(* Re-canonicalising the query at a different cut re-partitions the
   grouping columns between the two sides, which permutes the canonical
   output order sga1 @ sga2 @ aggs.  A placement's plan must still
   produce the original query's schema, so a final permuting projection
   is appended whenever the cut's order differs. *)
let output_order (q : Canonical.t) =
  q.Canonical.sga1 @ q.Canonical.sga2 @ Canonical.agg_names q

let restore_order ~like (qc : Canonical.t) plan =
  let want = output_order like in
  if output_order qc = want then plan
  else Eager_algebra.Plan.project want plan
