(* The Main Theorem as an executable oracle.

   Each instance is executed three ways — forced E1, forced E2 (the
   full placement at the default R1 cut, when admissible), planner's
   choice — and the results are cross-checked
   under SQL2 bag semantics with NULL-aware grouping.  Only directions
   that are actual theorems are enforced:

   (a) TestFD = YES  ⇒  forced E1, forced E2 and the planner's unforced
       choice are bag-equal; TestFD = NO ⇒ forcing E2 is refused with a
       typed [Planner] error.
   (b) TestFD = YES  ⇒  FD1 and FD2 hold on the instance (TestFD
       certifies all instances, so a single failing instance is a
       soundness bug).  Conversely, when both FDs hold on the instance
       the raw E1/E2 plans must agree on it (the sufficiency direction
       is instance-wise).  TestFD = NO with the FDs holding is the
       conservative gap the paper predicts — counted, never an error.
   (c) Fail-stop under injected faults: with a fault schedule armed on
       the executor, every run either fails with a typed [Exec] error or
       returns exactly the fault-free baseline — no partial or divergent
       results; when both plans fail under the same schedule their error
       kinds agree.  Governor budgets behave as a sharp threshold: the
       exact row charge succeeds, one row less is a typed [Resource]
       refusal. *)

open Eager_schema
open Eager_core
open Eager_exec
open Eager_opt
open Eager_robust

type violation = { tag : string; detail : string }

let violation_to_string v = Printf.sprintf "[%s] %s" v.tag v.detail

exception Violation of violation

let viol tag fmt =
  Printf.ksprintf (fun detail -> raise (Violation { tag; detail })) fmt

type outcome = {
  verdict : Testfd.verdict option;
      (** [None] only when the case failed before TestFD ran *)
  fd_holds : bool;  (** both instance-level FDs hold *)
  violation : violation option;
}

let rows_to_string rows =
  Printf.sprintf "{%s}" (String.concat "; " (List.map Row.to_string rows))

let run ?(governor = Governor.unlimited) db plan =
  (* on a paged database the breakers run with a fresh spill budget, so
     the sweeps exercise external sorts and grace partitioning too *)
  Exec.run_rows_checked
    ~options:
      { Exec.default_options with Exec.governor; spill = Spill.for_db db }
    db plan

let run_exn ~tag ~what db plan =
  match run db plan with
  | Ok rows -> rows
  | Error e -> viol tag "%s failed: %s" what (Err.to_string e)

(* ------------------------------------------------------------------ *)
(* invariant (c): fail-stop under one armed schedule                   *)

let fail_stop ~equal ~what ~baseline db plan =
  Fun.protect ~finally:Fault.reset (fun () ->
      match run db plan with
      | Ok rows ->
          if not (equal baseline rows) then
            viol "fault" "%s: run under faults neither failed nor matched \
                          the fault-free baseline: got %s, want %s"
              what (rows_to_string rows) (rows_to_string baseline)
      | Error e -> (
          (* executor faults surface as [Exec]; paged-IO faults
             (storage.page_read/write, exec.spill) surface as [Storage] —
             both are fail-stop *)
          match Err.kind e with
          | Err.Exec | Err.Storage -> ()
          | k ->
              viol "fault"
                "%s: faulted failure has kind %s, expected Exec or Storage \
                 (%s)"
                what (Err.kind_to_string k) (Err.to_string e)))

let fault_checks ~equal ~fault_seed db plans =
  List.iter
    (fun (what, plan, baseline) ->
      List.iter
        (fun n ->
          Fault.reset ();
          Fault.arm_nth "exec.next" n;
          fail_stop ~equal
            ~what:(Printf.sprintf "%s, exec.next fault #%d" what n)
            ~baseline db plan)
        [ 1; 2; 5 ];
      List.iter
        (fun rate ->
          Fault.reset ();
          Fault.arm_seeded ~seed:fault_seed ~rate ~points:[ "exec.next" ] ();
          fail_stop ~equal
            ~what:(Printf.sprintf "%s, seeded schedule rate=%g" what rate)
            ~baseline db plan)
        [ 0.05; 0.5 ];
      (* IO fault sweep: on a RAM database these points never fire (the
         run trivially matches the baseline); on a paged database they
         hit the pager and spill paths *)
      List.iter
        (fun rate ->
          Fault.reset ();
          Fault.arm_seeded ~seed:fault_seed ~rate
            ~points:
              [ "storage.page_read"; "storage.page_write"; "exec.spill" ]
            ();
          fail_stop ~equal
            ~what:(Printf.sprintf "%s, seeded IO schedule rate=%g" what rate)
            ~baseline db plan)
        [ 0.05; 0.5 ])
    plans

(* invariant (c), governor half: budgets are a sharp, typed threshold *)

let budget_checks ~equal db plans =
  List.iter
    (fun (what, plan, baseline) ->
      (* measure the charge: counting on, cap effectively infinite
         ([Governor.unlimited] shortcircuits and would count nothing) *)
      let meter =
        Governor.create { Governor.no_limits with Governor.max_rows = Some max_int }
      in
      (match run ~governor:meter db plan with
      | Ok rows ->
          if not (equal baseline rows) then
            viol "budget" "%s: metered run diverged from baseline" what
      | Error e ->
          viol "budget" "%s: metered run failed: %s" what (Err.to_string e));
      let charge = Governor.rows_charged meter in
      let with_cap cap =
        run
          ~governor:
            (Governor.create
               { Governor.no_limits with Governor.max_rows = Some cap })
          db plan
      in
      (match with_cap charge with
      | Ok rows ->
          if not (equal baseline rows) then
            viol "budget" "%s: run under the exact budget (%d rows) diverged"
              what charge
      | Error e ->
          viol "budget" "%s: exact budget of %d rows was refused: %s" what
            charge (Err.to_string e));
      if charge > 0 then
        match with_cap (charge - 1) with
        | Ok _ ->
            viol "budget"
              "%s: budget %d under a %d-row charge did not trip" what
              (charge - 1) charge
        | Error e -> (
            match Err.kind e with
            | Err.Resource -> ()
            | k ->
                viol "budget" "%s: budget breach has kind %s, expected \
                               Resource (%s)"
                  what (Err.kind_to_string k) (Err.to_string e)))
    plans

(* ------------------------------------------------------------------ *)
(* invariant (d): every aggregation placement the planner can emit —
   full or partial, at any admissible cut of the join graph — returns
   the same bag as forced E1, and the partial-operator pipeline agrees
   with the reference evaluator.  Partial placements run under a tiny
   operator cap so the flush-epoch path (repeated partial groups) is
   exercised on every instance. *)

let placement_checks ~equal db q rows1 =
  match Qgraph.of_canonical db q with
  | Error msg -> viol "qgraph" "join-graph construction failed: %s" msg
  | Ok g ->
      let decomposable = Eager_algebra.Agg.decomposable q.Canonical.aggs in
      List.iter
        (fun cut ->
          let below = String.concat ", " cut in
          (match
             Planner.decide
               ~force:(Planner.Force_placement { below = cut; partial = false })
               db q
           with
          | Ok d ->
              let rows =
                run_exn ~tag:"placement-run"
                  ~what:
                    (Printf.sprintf "forced full placement below {%s}" below)
                  db d.Planner.chosen
              in
              if not (equal rows1 rows) then
                viol "placement-mismatch"
                  "full placement below {%s} diverges from forced E1: got %s, \
                   want %s"
                  below (rows_to_string rows) (rows_to_string rows1)
          | Error e -> (
              (* a typed Planner refusal is TestFD answering NO at this
                 cut — legitimate; anything else is a harness bug *)
              match Err.kind e with
              | Err.Planner -> ()
              | k ->
                  viol "placement-reject"
                    "forced full placement below {%s} refused with kind %s, \
                     expected Planner (%s)"
                    below (Err.kind_to_string k) (Err.to_string e)));
          match
            Planner.decide ~partial_cap:2
              ~force:(Planner.Force_placement { below = cut; partial = true })
              db q
          with
          | Ok d ->
              let what =
                Printf.sprintf "forced partial placement below {%s}" below
              in
              let rows = run_exn ~tag:"partial-run" ~what db d.Planner.chosen in
              if not (equal rows1 rows) then
                viol "partial-mismatch"
                  "partial placement below {%s} diverges from forced E1: got \
                   %s, want %s"
                  below (rows_to_string rows) (rows_to_string rows1);
              (match
                 Err.protect ~kind:Err.Exec (fun () ->
                     Ref_eval.eval db d.Planner.chosen)
               with
              | Error e ->
                  viol "partial-ref" "%s: reference evaluation failed: %s" what
                    (Err.to_string e)
              | Ok ref_rows ->
                  if not (equal ref_rows rows) then
                    viol "partial-ref-mismatch"
                      "partial placement below {%s}: pipeline and reference \
                       evaluator disagree: exec=%s ref=%s"
                      below (rows_to_string rows) (rows_to_string ref_rows))
          | Error e -> (
              match (Err.kind e, decomposable) with
              | Err.Planner, false -> ()
                  (* COUNT(DISTINCT) is not decomposable — typed refusal
                     is the specified behavior *)
              | Err.Planner, true ->
                  viol "partial-reject"
                    "partial placement below {%s} refused although the \
                     aggregates are decomposable: %s"
                    below (Err.to_string e)
              | k, _ ->
                  viol "partial-reject"
                    "forced partial placement below {%s} refused with kind %s \
                     (%s)"
                    below (Err.kind_to_string k) (Err.to_string e)))
        (Qgraph.cuts g)

(* ------------------------------------------------------------------ *)

let check_instance ?(equal = Exec.multiset_equal) ?(faults = true)
    ?(fault_seed = 1) db q =
  Fault.reset ();
  try
    (* forced E1 is the reference execution *)
    let d1 =
      match Planner.decide ~force:Planner.E1 db q with
      | Ok d -> d
      | Error e -> viol "e1-plan" "forced E1 refused: %s" (Err.to_string e)
    in
    let rows1 = run_exn ~tag:"e1-run" ~what:"forced E1" db d1.Planner.chosen in
    let verdict = d1.Planner.verdict in
    (* (a): forced E2 agrees when TestFD certifies; refused (typed) when
       it does not *)
    let e2_info =
      match
        ( Planner.decide
            ~force:
              (Planner.Force_placement
                 { below = Planner.default_cut q; partial = false })
            db q,
          verdict )
      with
      | Ok d2, Testfd.Yes ->
          let rows2 =
            run_exn ~tag:"e2-run" ~what:"forced E2" db d2.Planner.chosen
          in
          if not (equal rows1 rows2) then
            viol "e2-mismatch"
              "TestFD=YES but forced E1 and forced E2 disagree: E1=%s E2=%s"
              (rows_to_string rows1) (rows_to_string rows2);
          Some (d2.Planner.chosen, rows2)
      | Ok _, Testfd.No reason ->
          viol "e2-accept" "forced E2 accepted although TestFD said NO (%s)"
            reason
      | Error e, Testfd.Yes ->
          viol "e2-reject" "forced E2 refused although TestFD said YES: %s"
            (Err.to_string e)
      | Error e, Testfd.No _ -> (
          match Err.kind e with
          | Err.Planner -> None
          | k ->
              viol "e2-reject"
                "forced-E2 refusal has kind %s, expected Planner (%s)"
                (Err.kind_to_string k) (Err.to_string e))
    in
    (* (a) continued: the unforced planner picks either strategy, but its
       answer must be the same bag *)
    (match Planner.decide db q with
    | Ok dc ->
        let rc =
          run_exn ~tag:"choice-run" ~what:"planner's choice" db
            dc.Planner.chosen
        in
        if not (equal rows1 rc) then
          viol "choice-mismatch"
            "planner's unforced choice (%s) diverges from forced E1: \
             got %s, want %s"
            (Placement.mode_to_string
               (Planner.chosen_candidate dc).Placement.mode)
            (rows_to_string rc) (rows_to_string rows1)
    | Error e ->
        viol "choice-plan" "unforced planning failed: %s" (Err.to_string e));
    (* (b): the instance-level FD check against TestFD's verdict *)
    let fd = Theorem.check db q in
    let fd_holds = fd.Theorem.fd1 && fd.Theorem.fd2 in
    (match verdict with
    | Testfd.Yes when not fd_holds ->
        viol "fd-contradiction"
          "TestFD answered YES but the instance FDs fail (fd1=%b, fd2=%b)"
          fd.Theorem.fd1 fd.Theorem.fd2
    | _ -> ());
    if fd_holds then (
      (* sufficiency, instance-wise: both FDs hold ⇒ the raw plans agree
         on this instance even when TestFD was conservatively NO *)
      match
        (* the theorem check runs the raw two-sided plans on purpose,
           bypassing the planner under test *)
        Err.protect ~kind:Err.Planner (fun () ->
            Plans.e2 db q (* legacy-plan-ok: theorem check *))
      with
      | Error e ->
          viol "fd-sufficiency"
            "instance FDs hold but the raw E2 plan failed to build: %s"
            (Err.to_string e)
      | Ok p2 ->
          let raw1 =
            run_exn ~tag:"fd-sufficiency" ~what:"raw E1" db
              (Plans.e1 db q (* legacy-plan-ok: theorem check *))
          in
          if not (equal rows1 raw1) then
            viol "expand-mismatch"
              "forced E1 (with predicate expansion) disagrees with the raw \
               E1 plan: %s vs %s"
              (rows_to_string rows1) (rows_to_string raw1);
          let raw2 = run_exn ~tag:"fd-sufficiency" ~what:"raw E2" db p2 in
          if not (equal raw1 raw2) then
            viol "fd-sufficiency"
              "both instance FDs hold but raw E1 and raw E2 disagree: \
               E1=%s E2=%s"
              (rows_to_string raw1) (rows_to_string raw2));
    (* (d): the full placement sweep over the join graph *)
    placement_checks ~equal db q rows1;
    (* (c): fail-stop under injected faults and sharp governor budgets *)
    if faults then (
      let plans =
        ("forced E1", d1.Planner.chosen, rows1)
        ::
        (match e2_info with
        | Some (p, r) -> [ ("forced E2", p, r) ]
        | None -> [])
      in
      fault_checks ~equal ~fault_seed db plans;
      budget_checks ~equal db plans);
    { verdict = Some verdict; fd_holds; violation = None }
  with Violation v ->
    Fault.reset ();
    { verdict = None; fd_holds = false; violation = Some v }

let check ?equal ?faults ?fault_seed ?storage (c : Qgen.case) =
  match Qgen.build ?storage c with
  | Error msg ->
      {
        verdict = None;
        fd_holds = false;
        violation = Some { tag = "build"; detail = msg };
      }
  | Ok (db, q) -> check_instance ?equal ?faults ?fault_seed db q
