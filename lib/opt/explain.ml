open Eager_core
open Eager_storage

type entry = { rank : int; label : string; cost : float; picked : bool }

type stats_age = { table : string; collected_at : int; rows : int }

type t = {
  verdict : Testfd.verdict;
  expanded_atoms : int;
  lazy_breakdown : Cost.breakdown;
  eager_breakdown : Cost.breakdown option;
  fallback : string option;
  forced : string option;
  chosen : Placement.mode;
  placements : entry list;
  statistics : stats_age list;
}

let of_decision db (d : Planner.decision) =
  let lazy_plan = (Planner.lazy_candidate d).Placement.plan in
  {
    verdict = d.Planner.verdict;
    expanded_atoms = d.Planner.expanded_atoms;
    lazy_breakdown = Cost.breakdown db lazy_plan;
    eager_breakdown =
      Option.map
        (fun (p : Placement.t) -> Cost.breakdown db p.Placement.plan)
        (Planner.eager_candidate d);
    fallback = d.Planner.fallback;
    forced = Option.map Planner.force_to_string d.Planner.forced;
    chosen = (Planner.chosen_candidate d).Placement.mode;
    placements =
      List.mapi
        (fun i (p : Placement.t) ->
          {
            rank = i + 1;
            label = Placement.describe p;
            cost = p.Placement.cost;
            picked = p.Placement.plan == d.Planner.chosen;
          })
        d.Planner.candidates;
    statistics =
      Eager_algebra.Plan.tables lazy_plan
      |> List.fold_left
           (fun seen tb -> if List.mem tb seen then seen else tb :: seen)
           []
      |> List.rev_map (fun table ->
             let s = Database.stats db table in
             { table; collected_at = Stats.collected_at s;
               rows = Stats.row_count s });
  }

let render t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "TestFD: %s\n" (Testfd.verdict_to_string t.verdict));
  if t.expanded_atoms > 0 then
    Buffer.add_string buf
      (Printf.sprintf "predicate expansion: %d derived binding(s)\n"
         t.expanded_atoms);
  Buffer.add_string buf
    (Format.asprintf "E1 (lazy):@.%a@." Cost.pp_breakdown t.lazy_breakdown);
  (match t.eager_breakdown with
  | Some b ->
      Buffer.add_string buf
        (Format.asprintf "E2 (eager):@.%a@." Cost.pp_breakdown b)
  | None -> ());
  (match t.fallback with
  | Some reason ->
      Buffer.add_string buf
        (Printf.sprintf "fallback: demoted to canonical E1 — %s\n" reason)
  | None -> ());
  (match t.forced with
  | Some f ->
      Buffer.add_string buf
        (Printf.sprintf
           "strategy reason: forced %s (cost comparison bypassed by caller)\n"
           f)
  | None -> ());
  Buffer.add_string buf
    (Printf.sprintf "chosen: %s%s\n"
       (Placement.mode_to_string t.chosen)
       (match t.forced with Some _ -> " [forced]" | None -> ""));
  (match t.placements with
  | [] | [ _ ] -> () (* a lone E1 candidate adds nothing to the ranking *)
  | ps ->
      Buffer.add_string buf
        (Printf.sprintf "placements (%d candidates, ranked):\n"
           (List.length ps));
      List.iter
        (fun e ->
          Buffer.add_string buf
            (Printf.sprintf "  %d. %s -- cost %.0f%s\n" e.rank e.label e.cost
               (if e.picked then " [chosen]" else "")))
        ps);
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "statistics: %s collected at %d rows, now %d\n" a.table
           a.collected_at a.rows))
    t.statistics;
  Buffer.contents buf

let text db d = render (of_decision db d)
