open Eager_core
open Eager_algebra
open Eager_robust

type force =
  | E1
  | Force_placement of { below : string list; partial : bool }

type decision = {
  verdict : Testfd.verdict;
  chosen : Plan.t;
  candidates : Placement.t list;
  expanded_atoms : int;
  fallback : string option;
  forced : force option;
}

let force_to_string = function
  | E1 -> "E1"
  | Force_placement { below; partial } ->
      Printf.sprintf "%s placement below {%s}"
        (if partial then "partial" else "full")
        (String.concat ", " below)

let default_cut (q : Canonical.t) =
  List.map (fun (s : Canonical.source) -> s.Canonical.rel) q.Canonical.r1

let chosen_candidate d =
  List.find (fun (p : Placement.t) -> p.Placement.plan == d.chosen) d.candidates

let lazy_candidate d =
  List.find (fun (p : Placement.t) -> p.Placement.mode = Placement.Lazy)
    d.candidates

(* every cut contains R1 (Qgraph.of_canonical pins it below), so the
   default cut's full placement is the full one with the fewest
   relations below it *)
let eager_candidate d =
  match d.verdict with
  | Testfd.No _ -> None
  | Testfd.Yes ->
      List.fold_left
        (fun best (p : Placement.t) ->
          match (p.Placement.mode, best) with
          | Placement.Eager_full, None -> Some p
          | Placement.Eager_full, Some (b : Placement.t)
            when List.length p.Placement.below < List.length b.Placement.below
            ->
              Some p
          | _ -> best)
        None d.candidates

let rank placements =
  List.stable_sort
    (fun (a : Placement.t) (b : Placement.t) -> Float.compare a.cost b.cost)
    placements

(* Graceful degradation: an eager rewrite is only proposed when its
   validity argument actually goes through — TestFD for the full push
   (cf. Chirkova & Genesereth on dependency-based rewrites),
   decomposability for the partial one.  Whenever verification or
   costing cannot complete — an internal error, an injected fault, or a
   governor deadline already blown — we demote to the canonical E1 plan
   and record why, rather than failing the query. *)
let decide_raw ?strict ?(expand = true) ?(governor = Governor.unlimited)
    ?force ?(partial_cap = 1024) ?(max_cuts = 16) ?io db q =
  let fallback = ref None in
  let demote reason = fallback := Some reason in
  let expanded_atoms, q =
    match
      Err.protect ~kind:Err.Planner (fun () ->
          if expand then (Expand.derived_count q, Expand.query q) else (0, q))
    with
    | Ok r -> r
    | Error e ->
        demote (Printf.sprintf "predicate expansion failed: %s" (Err.to_string e));
        (0, q)
  in
  let verdict =
    if !fallback <> None then
      Testfd.No (Printf.sprintf "planner fallback: %s" (Option.get !fallback))
    else
      match
        let ( let* ) = Result.bind in
        let* () = Fault.check "opt.testfd" in
        let* () = Governor.check governor in
        Err.protect ~kind:Err.Planner (fun () -> Testfd.test ?strict db q)
      with
      | Ok v -> v
      | Error e ->
          let reason =
            Printf.sprintf "TestFD could not complete: %s" (Err.to_string e)
          in
          demote reason;
          Testfd.No reason
  in
  let lazy_plan = Placement.lower_lazy db q in
  let lazy_cost =
    match Err.protect ~kind:Err.Planner (fun () -> Cost.cost ?io db lazy_plan) with
    | Ok c -> c
    | Error e ->
        (* E1 is the plan of last resort: run it even uncosted *)
        demote (Printf.sprintf "cost model failed on E1: %s" (Err.to_string e));
        Float.infinity
  in
  let lazy_cand =
    { Placement.mode = Placement.Lazy; below = []; verdict = None;
      plan = lazy_plan; cost = lazy_cost }
  in
  let decision candidates (chosen : Placement.t) =
    { verdict; chosen = chosen.Placement.plan; candidates; expanded_atoms;
      fallback = !fallback; forced = force }
  in
  (* one placement at one cut ([qc] is the query re-canonicalised there):
     the full push when TestFD verifies it, the partial push when the
     aggregates decompose; [Error] says why the placement is refused *)
  let place ~cost qc cut ~partial : (Placement.t, string) result =
    let admitted =
      if partial then
        Result.map
          (fun p -> (Placement.Eager_partial, None, p))
          (Placement.lower_partial db ~cap:partial_cap qc)
      else
        match Testfd.test ?strict db qc with
        | Testfd.No reason ->
            Error
              (Printf.sprintf
                 "the rewrite is not verified — TestFD says NO (%s)" reason)
        | Testfd.Yes ->
            Ok (Placement.Eager_full, Some Testfd.Yes, Placement.lower_full db qc)
    in
    Result.map
      (fun (mode, verdict, p) ->
        let plan = Placement.restore_order ~like:q qc p in
        { Placement.mode; below = cut; verdict; plan; cost = cost plan })
      admitted
  in
  let enumerate () =
    match Qgraph.of_canonical db q with
    | Error _ -> []
    | Ok g ->
        List.concat_map
          (fun cut ->
            match Governor.check governor with
            | Error _ -> [] (* deadline blown mid-enumeration: stop adding *)
            | Ok () -> (
                match Qgraph.canonical_at db g cut with
                | Error _ -> []
                | Ok qc ->
                    List.filter_map
                      (fun partial ->
                        match
                          Err.protect ~kind:Err.Planner (fun () ->
                              place ~cost:(Cost.cost ?io db) qc cut ~partial)
                        with
                        | Ok (Ok p) -> Some p
                        | Ok (Error _) | Error _ -> None)
                      [ false; true ]))
          (Qgraph.cuts ~max_cuts g)
  in
  match force with
  | Some E1 ->
      (* forced E1: always valid — the canonical plan needs no FD check *)
      decision [ lazy_cand ] lazy_cand
  | Some (Force_placement { below; partial } as f) -> (
      (* force hooks must stay honest: an unverified rewrite is refused
         with a typed error, never silently executed *)
      let advisory plan =
        match Err.protect ~kind:Err.Planner (fun () -> Cost.cost ?io db plan) with
        | Ok c -> c
        | Error _ -> Float.infinity (* cost is advisory under force *)
      in
      match
        let ( let* ) = Result.bind in
        let* g = Qgraph.of_canonical db q in
        let* qc = Qgraph.canonical_at db g below in
        place ~cost:advisory qc below ~partial
      with
      | Ok cand -> decision (rank [ lazy_cand; cand ]) cand
      | Error msg ->
          Err.failf Err.Planner "forced %s rejected: %s" (force_to_string f) msg)
  | None when !fallback <> None -> decision [ lazy_cand ] lazy_cand
  | None -> (
      match
        let ( let* ) = Result.bind in
        let* () = Fault.check "opt.cost" in
        Governor.check governor
      with
      | Error e ->
          (* enumeration or costing unavailable: budget breach or
             injected fault — demote to E1 *)
          demote
            (Printf.sprintf "eager plan abandoned: %s" (Err.to_string e));
          decision [ lazy_cand ] lazy_cand
      | Ok () ->
          let ranked = rank (lazy_cand :: enumerate ()) in
          decision ranked (List.hd ranked))

(* the planner itself can die on a malformed query (unknown tables on
   both plan shapes); this boundary turns even that into a value *)
let decide ?strict ?expand ?governor ?force ?partial_cap ?max_cuts ?io db q =
  Err.protect ~kind:Err.Planner (fun () ->
      decide_raw ?strict ?expand ?governor ?force ?partial_cap ?max_cuts ?io db
        q)
