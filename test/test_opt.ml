(* Optimizer tests: selectivity heuristics, cardinality estimation on the
   paper workloads, cost ordering (Figure 1 vs Figure 8) and the planner's
   combined validity + profitability decision. *)

open Eager_schema
open Eager_expr
open Eager_core
open Eager_opt
open Eager_workload

let cr = Colref.make

(* ---------------- selectivity ---------------- *)

let test_selectivity () =
  let ndv c = if c.Colref.name = "wide" then 100. else 10. in
  let sel = Estimate.selectivity ~ndv in
  let wide = Expr.col "R" "wide" and narrow = Expr.col "R" "narrow" in
  Alcotest.(check (float 1e-9)) "eq const = 1/ndv" 0.01
    (sel (Expr.eq wide (Expr.int 1)));
  Alcotest.(check (float 1e-9)) "eq col-col = 1/max" 0.01
    (sel (Expr.eq wide narrow));
  Alcotest.(check (float 1e-9)) "range = 1/3" (1. /. 3.)
    (sel (Expr.Cmp (Expr.Lt, wide, Expr.int 1)));
  Alcotest.(check (float 1e-9)) "conjunction multiplies" 0.001
    (sel (Expr.And (Expr.eq wide (Expr.int 1), Expr.eq narrow (Expr.int 1))));
  let s_or =
    sel (Expr.Or (Expr.eq wide (Expr.int 1), Expr.eq narrow (Expr.int 1)))
  in
  Alcotest.(check (float 1e-9)) "disjunction incl-excl" (0.01 +. 0.1 -. 0.001) s_or;
  Alcotest.(check (float 1e-9)) "negation" 0.99
    (sel (Expr.Not (Expr.eq wide (Expr.int 1))));
  Alcotest.(check (float 1e-9)) "TRUE" 1.0 (sel Expr.etrue);
  Alcotest.(check (float 1e-9)) "FALSE" 0.0 (sel Expr.efalse)

(* ---------------- estimation on a real workload ---------------- *)

let test_estimates_fig1 () =
  let w = Employee_dept.setup ~employees:2000 ~departments:40 () in
  let db = w.Employee_dept.db and q = w.Employee_dept.query in
  let e1 = Plans.e1 db q in
  let c_e1 = Estimate.card db e1 in
  (* 40 true groups; the estimator (with exponential backoff over the two
     correlated grouping columns) must land between the department count
     and a small multiple of it, far below the employee count *)
  Alcotest.(check bool)
    (Printf.sprintf "E1 output ≈ departments (got %.0f)" c_e1)
    true
    (c_e1 >= 20. && c_e1 <= 400.);
  let e2 = Plans.e2 db q in
  let c_e2 = Estimate.card db e2 in
  Alcotest.(check bool)
    (Printf.sprintf "E2 output ≈ departments (got %.0f)" c_e2)
    true
    (c_e2 >= 20. && c_e2 <= 400.)

let test_estimate_profile_scan () =
  let w = Employee_dept.setup ~employees:500 ~departments:10 () in
  let db = w.Employee_dept.db in
  let q = w.Employee_dept.query in
  let p = Estimate.profile db (Plans.side1 db q) in
  Alcotest.(check (float 1.0)) "scan card" 500. p.Estimate.card;
  let dept_ndv = Colref.Map.find (cr "E" "DeptID") p.Estimate.ndv in
  Alcotest.(check bool) "DeptID ndv ≈ 10" true (dept_ndv >= 8. && dept_ndv <= 12.)

(* ---------------- cost ordering ---------------- *)

let test_cost_prefers_eager_on_fig1 () =
  let w = Employee_dept.setup () in
  let db = w.Employee_dept.db and q = w.Employee_dept.query in
  let c1 = Cost.cost db (Plans.e1 db q) in
  let c2 = Cost.cost db (Plans.e2 db q) in
  Alcotest.(check bool)
    (Printf.sprintf "E2 cheaper on Figure 1 (%.0f vs %.0f)" c2 c1)
    true (c2 < c1)

let test_cost_prefers_lazy_on_fig8 () =
  let w = Contrived.setup () in
  let db = w.Contrived.db and q = w.Contrived.query in
  let c1 = Cost.cost db (Plans.e1 db q) in
  let c2 = Cost.cost db (Plans.e2 db q) in
  Alcotest.(check bool)
    (Printf.sprintf "E1 cheaper on Figure 8 (%.0f vs %.0f)" c1 c2)
    true (c1 < c2)

let test_cost_breakdown () =
  let w = Employee_dept.setup ~employees:100 ~departments:5 () in
  let db = w.Employee_dept.db and q = w.Employee_dept.query in
  let b = Cost.breakdown db (Plans.e1 db q) in
  Alcotest.(check bool) "total positive" true (b.Cost.total > 0.);
  Alcotest.(check bool) "total bounds node" true (b.Cost.total >= b.Cost.node_cost);
  let text = Format.asprintf "%a" Cost.pp_breakdown b in
  Alcotest.(check bool) "breakdown prints" true (String.length text > 50)

(* ---------------- planner ---------------- *)

let decide_ok db q =
  match Planner.decide db q with
  | Ok d -> d
  | Error e -> Alcotest.fail ("Planner.decide: " ^ Eager_robust.Err.to_string e)

let test_planner_fig1 () =
  let w = Employee_dept.setup () in
  let d = decide_ok w.Employee_dept.db w.Employee_dept.query in
  (match d.Planner.verdict with
  | Testfd.Yes -> ()
  | Testfd.No r -> Alcotest.fail r);
  Alcotest.(check bool) "eager plan exists" true
    (Option.is_some (Planner.eager_candidate d));
  (match (Planner.chosen_candidate d).Placement.mode with
  | Placement.Eager_full -> ()
  | Placement.Lazy | Placement.Eager_partial ->
      Alcotest.fail "planner should pick E2 on Figure 1")

let test_planner_fig8 () =
  let w = Contrived.setup () in
  let d = decide_ok w.Contrived.db w.Contrived.query in
  (match d.Planner.verdict with
  | Testfd.Yes -> ()
  | Testfd.No r -> Alcotest.fail ("valid but refused: " ^ r));
  match (Planner.chosen_candidate d).Placement.mode with
  | Placement.Lazy -> ()
  | Placement.Eager_full | Placement.Eager_partial ->
      Alcotest.fail "planner should pick E1 on Figure 8"

let test_planner_invalid_query () =
  (* invalid transformation: no eager plan is even proposed *)
  let w = Employee_dept.setup ~employees:200 ~departments:10 () in
  let db = w.Employee_dept.db in
  let q =
    Canonical.of_input_exn db
      {
        Canonical.sources =
          [
            { Canonical.table = "Employee"; rel = "E" };
            { Canonical.table = "Department"; rel = "D" };
          ];
        where = Expr.eq (Expr.col "E" "DeptID") (Expr.col "D" "DeptID");
        group_by = [ cr "D" "Name" ];
        select_cols = [ cr "D" "Name" ];
        select_aggs =
          [ Eager_algebra.Agg.count (cr "" "n") (Expr.col "E" "EmpID") ];
        select_distinct = false;
        select_having = None;
        r1_hint = [];
      }
  in
  let d = decide_ok db q in
  Alcotest.(check bool) "no full eager plan" true
    (Option.is_none (Planner.eager_candidate d));
  (match (Planner.chosen_candidate d).Placement.mode with
  | Placement.Eager_full ->
      Alcotest.fail "full E2 must not be chosen when TestFD says NO"
  | Placement.Lazy | Placement.Eager_partial -> ());
  (* the unverified full rewrite never even appears among the candidates *)
  Alcotest.(check bool) "no full-E2 candidate" true
    (List.for_all
       (fun (p : Placement.t) -> p.Placement.mode <> Placement.Eager_full)
       d.Planner.candidates);
  (* the partial rewrite needs no FD check, so it may (and here does)
     still beat E1 *)
  Alcotest.(check bool) "a partial candidate was enumerated" true
    (List.exists
       (fun (p : Placement.t) -> p.Placement.mode = Placement.Eager_partial)
       d.Planner.candidates);
  let text = Explain.text db d in
  Alcotest.(check bool) "explain prints" true (String.length text > 20)

(* [chosen] is physically one candidate's plan in every branch of the
   planner: EXPLAIN's [chosen] marker and the chosen-label lookup both
   find the candidate by [==] *)
let test_chosen_is_one_candidate () =
  let module Fault = Eager_robust.Fault in
  let check what db q ?force () =
    let d =
      match Planner.decide ?force db q with
      | Ok d -> d
      | Error e ->
          Alcotest.failf "%s: %s" what (Eager_robust.Err.to_string e)
    in
    Fault.reset ();
    Alcotest.(check int) (what ^ ": chosen is exactly one candidate") 1
      (List.length
         (List.filter
            (fun (p : Placement.t) -> p.Placement.plan == d.Planner.chosen)
            d.Planner.candidates));
    d
  in
  let w = Employee_dept.setup ~employees:500 ~departments:20 () in
  let db = w.Employee_dept.db and q = w.Employee_dept.query in
  ignore (check "unforced" db q ());
  ignore (check "forced E1" db q ~force:Planner.E1 ());
  List.iter
    (fun partial ->
      let d =
        check
          (Printf.sprintf "forced %s at the default cut"
             (if partial then "partial" else "full"))
          db q
          ~force:
            (Planner.Force_placement
               { below = Planner.default_cut q; partial })
          ()
      in
      Alcotest.(check bool) "the forced placement is the chosen one" true
        ((Planner.chosen_candidate d).Placement.mode
        = if partial then Placement.Eager_partial else Placement.Eager_full))
    [ false; true ];
  let s = Star.setup ~parts:500 ~suppliers:10 ~regions:3 () in
  ignore
    (check "forced partial below {P, S}" s.Star.db s.Star.query
       ~force:(Planner.Force_placement { below = [ "P"; "S" ]; partial = true })
       ());
  List.iter
    (fun point ->
      Fault.arm_nth point 1;
      let d = check (point ^ " demotion") db q () in
      Alcotest.(check bool) (point ^ " demotes to E1") true
        (d.Planner.fallback <> None
        && (Planner.chosen_candidate d).Placement.mode = Placement.Lazy))
    [ "opt.cost"; "opt.testfd" ]

(* EXPLAIN reports how far each base table has moved since its
   statistics were collected: a few inserts below the drift bound keep
   the old collection, and the line shows both counts *)
let test_explain_statistics_age () =
  let w = Employee_dept.setup ~employees:800 ~departments:20 () in
  let db = w.Employee_dept.db and q = w.Employee_dept.query in
  ignore (Explain.of_decision db (decide_ok db q));
  for e = 801 to 805 do
    Eager_storage.Database.insert_exn db "Employee"
      Eager_value.Value.[ Int e; Str "L"; Str "F"; Int 1 ]
  done;
  let ex = Explain.of_decision db (decide_ok db q) in
  let age table =
    List.find (fun (a : Explain.stats_age) -> a.Explain.table = table)
      ex.Explain.statistics
  in
  Alcotest.(check (pair int int)) "Employee: old collection, new count"
    (800, 805)
    ((age "Employee").Explain.collected_at, (age "Employee").Explain.rows);
  Alcotest.(check (pair int int)) "Department unchanged" (20, 20)
    ((age "Department").Explain.collected_at, (age "Department").Explain.rows);
  Alcotest.(check int) "one line per base table" 2
    (List.length ex.Explain.statistics);
  let text = Explain.render ex in
  let line = "statistics: Employee collected at 800 rows, now 805\n" in
  let nl = String.length line and tl = String.length text in
  let rec has i = i + nl <= tl && (String.sub text i nl = line || has (i + 1)) in
  Alcotest.(check bool) "rendered" true (has 0)

(* Golden EXPLAIN: the unforced decision's text, byte for byte, on the
   paper's workloads at their default sizes.  Any change to the planner's
   result type or to Explain must leave these texts untouched. *)
let golden_explain =
  [
    ( "fig1",
      (fun () ->
        let w = Employee_dept.setup () in
        (w.Employee_dept.db, w.Employee_dept.query)),
      {|TestFD: YES
E1 (lazy):
Project [D.DeptID, D.Name, emp_count]   -- cost 1000, est. 1000 rows
  GroupBy [D.DeptID, D.Name] COUNT(E.EmpID) AS emp_count   -- cost 10000, est. 1000 rows, materializes 1000
    Join [E.DeptID = D.DeptID]   -- cost 20100, est. 10000 rows, materializes 10000
      Scan Employee AS E   -- cost 10000, est. 10000 rows
      Scan Department AS D   -- cost 100, est. 100 rows
total: 52200
E2 (eager):
Project [D.DeptID, D.Name, emp_count]   -- cost 100, est. 100 rows
  Join [E.DeptID = D.DeptID]   -- cost 300, est. 100 rows, materializes 100
    GroupBy [E.DeptID] COUNT(E.EmpID) AS emp_count   -- cost 10000, est. 100 rows, materializes 100
      Scan Employee AS E   -- cost 10000, est. 10000 rows
    Project [D.DeptID, D.Name]   -- cost 100, est. 100 rows
      Scan Department AS D   -- cost 100, est. 100 rows
total: 20800
chosen: group before join (E2)
placements (3 candidates, ranked):
  1. eager full below {E} -- cost 20800 [chosen]
  2. eager partial below {E} -- cost 21000
  3. group after join (E1) -- cost 52200
statistics: Employee collected at 10000 rows, now 10000
statistics: Department collected at 100 rows, now 100
|} );
    ( "fig8",
      (fun () ->
        let w = Contrived.setup () in
        (w.Contrived.db, w.Contrived.query)),
      {|TestFD: YES
E1 (lazy):
Project [A.j, total_v]   -- cost 111, est. 111 rows
  GroupBy [A.j] SUM(A.v) AS total_v   -- cost 111, est. 111 rows, materializes 111
    Join [A.j = B.k]   -- cost 10211, est. 111 rows, materializes 10000
      Scan A   -- cost 10000, est. 10000 rows
      Scan B   -- cost 100, est. 100 rows
total: 30644
E2 (eager):
Project [A.j, total_v]   -- cost 100, est. 100 rows
  Join [A.j = B.k]   -- cost 9200, est. 100 rows, materializes 9000
    GroupBy [A.j] SUM(A.v) AS total_v   -- cost 10000, est. 9000 rows, materializes 9000
      Scan A   -- cost 10000, est. 10000 rows
    Project [B.k]   -- cost 100, est. 100 rows
      Scan B   -- cost 100, est. 100 rows
total: 47500
chosen: group after join (E1)
placements (3 candidates, ranked):
  1. group after join (E1) -- cost 30644 [chosen]
  2. eager partial below {A} -- cost 39724
  3. eager full below {A} -- cost 47500
statistics: A collected at 10000 rows, now 10000
statistics: B collected at 100 rows, now 100
|} );
    ( "ex3",
      (fun () ->
        let w = Printers.setup () in
        (w.Printers.db, w.Printers.query)),
      {|TestFD: YES
predicate expansion: 1 derived binding(s)
E1 (lazy):
Project [U.UserId, U.UserName, TotUsage, MaxSpeed, MinSpeed]   -- cost 8, est. 8 rows
  GroupBy [U.UserId, U.UserName] SUM(A.Usage) AS TotUsage, MAX(P.Speed) AS MaxSpeed, MIN(P.Speed) AS MinSpeed   -- cost 8, est. 8 rows, materializes 8
    Join [(U.UserId = A.UserId AND U.Machine = A.Machine)]   -- cost 225, est. 8 rows, materializes 155
      Join [A.PNo = P.PNo]   -- cost 350, est. 155 rows, materializes 155
        Select [A.Machine = 'dragon']   -- cost 1238, est. 155 rows
          Scan PrinterAuth AS A   -- cost 1238, est. 1238 rows
        Scan Printer AS P   -- cost 40, est. 40 rows
      Select [U.Machine = 'dragon']   -- cost 500, est. 62 rows
        Scan UserAccount AS U   -- cost 500, est. 500 rows
total: 4424
E2 (eager):
Project [U.UserId, U.UserName, TotUsage, MaxSpeed, MinSpeed]   -- cost 8, est. 8 rows
  Join [(U.UserId = A.UserId AND U.Machine = A.Machine)]   -- cost 225, est. 8 rows, materializes 155
    GroupBy [A.Machine, A.UserId] SUM(A.Usage) AS TotUsage, MAX(P.Speed) AS MaxSpeed, MIN(P.Speed) AS MinSpeed   -- cost 155, est. 155 rows, materializes 155
      Join [A.PNo = P.PNo]   -- cost 350, est. 155 rows, materializes 155
        Select [A.Machine = 'dragon']   -- cost 1238, est. 155 rows
          Scan PrinterAuth AS A   -- cost 1238, est. 1238 rows
        Scan Printer AS P   -- cost 40, est. 40 rows
    Project [U.UserId, U.UserName, U.Machine]   -- cost 62, est. 62 rows
      Select [U.Machine = 'dragon']   -- cost 500, est. 62 rows
        Scan UserAccount AS U   -- cost 500, est. 500 rows
total: 4780
chosen: group after join (E1)
placements (3 candidates, ranked):
  1. group after join (E1) -- cost 4424 [chosen]
  2. eager full below {A, P} -- cost 4780
  3. eager partial below {A, P} -- cost 4796
statistics: PrinterAuth collected at 1238 rows, now 1238
statistics: Printer collected at 40 rows, now 40
statistics: UserAccount collected at 500 rows, now 500
|} );
    ( "parts",
      (fun () ->
        let w = Parts.setup () in
        (w.Parts.db, w.Parts.query)),
      {|TestFD: YES
E1 (lazy):
Project [S.SupplierNo, S.Name, part_count]   -- cost 117, est. 117 rows
  GroupBy [S.SupplierNo, S.Name] COUNT(P.PartNo) AS part_count   -- cost 117, est. 117 rows, materializes 117
    Join [P.SupplierNo = S.SupplierNo]   -- cost 322, est. 117 rows, materializes 125
      Select [P.ClassCode = 25]   -- cost 5000, est. 125 rows
        Scan Part AS P   -- cost 5000, est. 5000 rows
      Scan Supplier AS S   -- cost 80, est. 80 rows
total: 10877
E2 (eager):
Project [S.SupplierNo, S.Name, part_count]   -- cost 76, est. 76 rows
  Join [P.SupplierNo = S.SupplierNo]   -- cost 237, est. 76 rows, materializes 81
    GroupBy [P.SupplierNo] COUNT(P.PartNo) AS part_count   -- cost 125, est. 81 rows, materializes 81
      Select [P.ClassCode = 25]   -- cost 5000, est. 125 rows
        Scan Part AS P   -- cost 5000, est. 5000 rows
    Project [S.SupplierNo, S.Name]   -- cost 80, est. 80 rows
      Scan Supplier AS S   -- cost 80, est. 80 rows
total: 10759
chosen: group before join (E2)
placements (3 candidates, ranked):
  1. eager full below {P} -- cost 10759 [chosen]
  2. group after join (E1) -- cost 10877
  3. eager partial below {P} -- cost 10911
statistics: Part collected at 5000 rows, now 5000
statistics: Supplier collected at 80 rows, now 80
|} );
    ( "sales",
      (fun () ->
        let w = Sales.setup () in
        (w.Sales.db, w.Sales.query)),
      {|TestFD: YES
E1 (lazy):
Project [C.CustID, C.Name, revenue, order_count]   -- cost 2577, est. 2577 rows
  GroupBy [C.CustID, C.Name] SUM(O.Amount) AS revenue, COUNT(O.OrderID) AS order_count   -- cost 7824, est. 2577 rows, materializes 2577
    Join [O.CustID = C.CustID]   -- cost 16024, est. 7824 rows, materializes 8000
      Scan Orders AS O   -- cost 8000, est. 8000 rows
      Scan Customer AS C   -- cost 200, est. 200 rows
total: 45201
E2 (eager):
Project [C.CustID, C.Name, revenue, order_count]   -- cost 197, est. 197 rows
  Join [O.CustID = C.CustID]   -- cost 598, est. 197 rows, materializes 201
    GroupBy [O.CustID] SUM(O.Amount) AS revenue, COUNT(O.OrderID) AS order_count   -- cost 8000, est. 201 rows, materializes 201
      Scan Orders AS O   -- cost 8000, est. 8000 rows
    Project [C.CustID, C.Name]   -- cost 200, est. 200 rows
      Scan Customer AS C   -- cost 200, est. 200 rows
total: 17596
chosen: group before join (E2)
placements (3 candidates, ranked):
  1. eager full below {O} -- cost 17596 [chosen]
  2. eager partial below {O} -- cost 17989
  3. group after join (E1) -- cost 45201
statistics: Orders collected at 8000 rows, now 8000
statistics: Customer collected at 200 rows, now 200
|} );
    ( "star",
      (fun () ->
        let w = Star.setup () in
        (w.Star.db, w.Star.query)),
      {|TestFD: NO (no candidate key of the R2 side is implied (FD2))
E1 (lazy):
Project [G.RegionName, total_qty, parts]   -- cost 5, est. 5 rows
  GroupBy [G.RegionName] SUM(P.Qty) AS total_qty, COUNT(P.PartNo) AS parts   -- cost 9301, est. 5 rows, materializes 5
    Join [P.SupplierNo = S.SupplierNo]   -- cost 19351, est. 9301 rows, materializes 10000
      Scan Part AS P   -- cost 10000, est. 10000 rows
      Join [S.RegionNo = G.RegionNo]   -- cost 105, est. 50 rows, materializes 50
        Scan Supplier AS S   -- cost 50, est. 50 rows
        Scan Region AS G   -- cost 5, est. 5 rows
total: 48872
chosen: partial group before join (E2p)
placements (4 candidates, ranked):
  1. eager partial below {P} -- cost 20568 [chosen]
  2. eager partial below {P, S} -- cost 48752
  3. group after join (E1) -- cost 48872
  4. eager partial below {P, G} -- cost 110745
statistics: Part collected at 10000 rows, now 10000
statistics: Supplier collected at 50 rows, now 50
statistics: Region collected at 5 rows, now 5
|} );
  ]

let test_golden_explain () =
  List.iter
    (fun (name, setup, want) ->
      let db, q = setup () in
      Alcotest.(check string) (name ^ " EXPLAIN") want
        (Explain.text db (decide_ok db q)))
    golden_explain


(* ---------------- unique-group detection (Klug/Dayal) ---------------- *)

let unique_db () =
  let w = Employee_dept.setup ~employees:300 ~departments:12
      ~null_dept_fraction:0.1 () in
  w.Employee_dept.db

let scan db table rel =
  let td =
    Option.get (Eager_catalog.Catalog.find_table (Eager_storage.Database.catalog db) table)
  in
  Eager_algebra.Plan.scan ~table ~rel (Eager_catalog.Table_def.schema ~rel td)

let test_unique_group_detection () =
  let open Eager_algebra in
  let db = unique_db () in
  let e = scan db "Employee" "E" and d = scan db "Department" "D" in
  let join =
    Plan.join (Expr.eq (Expr.col "E" "DeptID") (Expr.col "D" "DeptID")) e d
  in
  (* grouping a single table on its primary key: unique *)
  Alcotest.(check bool) "PK grouping is unique" true
    (Unique_group.groups_are_unique db ~by:[ cr "E" "EmpID" ] e);
  (* grouping the join on the outer key: the equality reaches D's key *)
  Alcotest.(check bool) "join grouped on E's key is unique" true
    (Unique_group.groups_are_unique db ~by:[ cr "E" "EmpID" ] join);
  (* non-key grouping is not *)
  Alcotest.(check bool) "non-key grouping not unique" false
    (Unique_group.groups_are_unique db ~by:[ cr "E" "DeptID" ] e);
  (* a key of only one side does not cover the join *)
  Alcotest.(check bool) "D's key alone does not cover the join" false
    (Unique_group.groups_are_unique db ~by:[ cr "D" "DeptID" ]
       (Plan.Product (e, d)))

let test_unique_group_execution_agrees () =
  let open Eager_algebra in
  let open Eager_exec in
  let db = unique_db () in
  let e = scan db "Employee" "E" and d = scan db "Department" "D" in
  let join =
    Plan.join (Expr.eq (Expr.col "E" "DeptID") (Expr.col "D" "DeptID")) e d
  in
  let g =
    Plan.group
      ~by:[ cr "E" "EmpID"; cr "D" "Name" ]
      ~aggs:[ Eager_algebra.Agg.count_star (cr "" "n") ]
      join
  in
  let marked = Unique_group.mark db g in
  (match marked with
  | Plan.Group { unique_groups = true; _ } -> ()
  | _ -> Alcotest.fail "expected the group to be marked unique");
  let rows = Exec.run_rows db g in
  let rows' = Exec.run_rows db marked in
  Alcotest.(check bool) "fast path agrees" true (Exec.multiset_equal rows rows');
  (* every group really is a singleton *)
  Alcotest.(check bool) "all counts are 1" true
    (List.for_all
       (fun row ->
         Eager_value.Value.null_eq row.(Array.length row - 1) (Eager_value.Value.Int 1))
       rows')

let test_unique_group_nested () =
  let open Eager_algebra in
  let db = unique_db () in
  let e = scan db "Employee" "E" in
  (* a grouped output is keyed by its grouping columns: re-grouping on the
     same columns is provably singleton *)
  let inner =
    Plan.group ~by:[ cr "E" "DeptID" ]
      ~aggs:[ Eager_algebra.Agg.count_star (cr "" "n") ]
      e
  in
  Alcotest.(check bool) "regroup on group keys is unique" true
    (Unique_group.groups_are_unique db ~by:[ cr "E" "DeptID" ] inner);
  (* grouping the inner result on the aggregate output alone is not *)
  Alcotest.(check bool) "grouping on the aggregate output is not" false
    (Unique_group.groups_are_unique db ~by:[ cr "" "n" ] inner);
  (* a scalar group is a single row: anything over it is unique *)
  let scalar =
    Plan.group ~scalar:true ~by:[]
      ~aggs:[ Eager_algebra.Agg.count_star (cr "" "total") ]
      e
  in
  Alcotest.(check bool) "over a scalar group" true
    (Unique_group.groups_are_unique db ~by:[ cr "" "total" ] scalar)

let test_unique_group_not_marked_when_unsound () =
  let open Eager_algebra in
  let open Eager_exec in
  let db = unique_db () in
  let e = scan db "Employee" "E" in
  (* grouping on DeptID: multi-row groups; mark must not fire, and results
     must stay correct *)
  let g =
    Plan.group ~by:[ cr "E" "DeptID" ]
      ~aggs:[ Eager_algebra.Agg.count_star (cr "" "n") ]
      e
  in
  (match Unique_group.mark db g with
  | Plan.Group { unique_groups = false; _ } -> ()
  | _ -> Alcotest.fail "must not mark non-key grouping");
  let rows = Exec.run_rows db g in
  Alcotest.(check bool) "multi-row groups exist" true
    (List.exists
       (fun row ->
         match row.(Array.length row - 1) with
         | Eager_value.Value.Int n -> n > 1
         | _ -> false)
       rows)

(* histogram-aware range selectivity: a skewed column's estimate must beat
   the uniform 1/3 guess *)
let test_histogram_selectivity () =
  let open Eager_catalog in
  let open Eager_storage in
  let db = Database.create () in
  Database.create_table db
    (Table_def.make "Sk"
       [ { Table_def.cname = "v"; ctype = Eager_schema.Ctype.Int; domain = None } ]
       []);
  for i = 0 to 89 do
    Database.insert_exn db "Sk" [ Eager_value.Value.Int (i mod 10) ]
  done;
  for i = 0 to 9 do
    Database.insert_exn db "Sk" [ Eager_value.Value.Int (90 + i) ]
  done;
  let td = Option.get (Catalog.find_table (Database.catalog db) "Sk") in
  let scan = Eager_algebra.Plan.scan ~table:"Sk" ~rel:"S" (Table_def.schema ~rel:"S" td) in
  let sel =
    Eager_algebra.Plan.select
      (Expr.Cmp (Expr.Lt, Expr.col "S" "v", Expr.int 50))
      scan
  in
  let est = Estimate.card db sel in
  let actual =
    float_of_int (List.length (Eager_exec.Exec.run_rows db sel))
  in
  Alcotest.(check (float 1e-9)) "actual is 90" 90. actual;
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.0f within 15%% of 90" est)
    true
    (est > 76. && est < 104.);
  (* the other side of the skew *)
  let sel_hi =
    Eager_algebra.Plan.select
      (Expr.Cmp (Expr.Ge, Expr.col "S" "v", Expr.int 50))
      scan
  in
  let est_hi = Estimate.card db sel_hi in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.0f near 10" est_hi)
    true
    (est_hi > 2. && est_hi < 25.)

(* ---------------- DP join ordering ---------------- *)

(* A(60) and B(60) each join the 5-row C; written in the FROM order A, B, C
   the greedy builder starts with the cross product A×B.  The DP enumerator
   must find an order that joins through C instead. *)
let star_db () =
  let open Eager_catalog in
  let open Eager_storage in
  let coldef name ctype : Table_def.column_def =
    { Table_def.cname = name; ctype; domain = None }
  in
  let db = Database.create () in
  Database.create_table db
    (Table_def.make "C" [ coldef "id" Eager_schema.Ctype.Int ]
       [ Constr.Primary_key [ "id" ] ]);
  Database.create_table db
    (Table_def.make "A"
       [ coldef "aid" Eager_schema.Ctype.Int; coldef "c" Eager_schema.Ctype.Int ]
       [ Constr.Primary_key [ "aid" ] ]);
  Database.create_table db
    (Table_def.make "B"
       [ coldef "bid" Eager_schema.Ctype.Int; coldef "c" Eager_schema.Ctype.Int ]
       [ Constr.Primary_key [ "bid" ] ]);
  for i = 1 to 5 do
    Database.insert_exn db "C" [ Eager_value.Value.Int i ]
  done;
  for i = 1 to 60 do
    Database.insert_exn db "A"
      [ Eager_value.Value.Int i; Eager_value.Value.Int (1 + (i mod 5)) ];
    Database.insert_exn db "B"
      [ Eager_value.Value.Int i; Eager_value.Value.Int (1 + (i mod 5)) ]
  done;
  let sources =
    [
      { Canonical.table = "A"; rel = "A" };
      { Canonical.table = "B"; rel = "B" };
      { Canonical.table = "C"; rel = "C" };
    ]
  in
  let conjuncts =
    [
      Expr.eq (Expr.col "A" "c") (Expr.col "C" "id");
      Expr.eq (Expr.col "B" "c") (Expr.col "C" "id");
    ]
  in
  (db, sources, conjuncts)

let test_join_order_beats_greedy () =
  let db, sources, conjuncts = star_db () in
  let greedy = Plans.join_tree db sources conjuncts in
  let dp = Join_order.best_tree db sources conjuncts in
  let cg = Cost.cost db greedy and cd = Cost.cost db dp in
  Alcotest.(check bool)
    (Printf.sprintf "DP (%.0f) beats greedy (%.0f)" cd cg)
    true (cd < cg);
  (* the greedy plan contains a cross product; the DP plan must not *)
  let rec has_product = function
    | Eager_algebra.Plan.Product _ -> true
    | Eager_algebra.Plan.Scan _ -> false
    | Eager_algebra.Plan.Select { input; _ }
    | Eager_algebra.Plan.Project { input; _ }
    | Eager_algebra.Plan.Group { input; _ }
    | Eager_algebra.Plan.Partial_group { input; _ }
    | Eager_algebra.Plan.Sort { input; _ }
    | Eager_algebra.Plan.Map { input; _ } ->
        has_product input
    | Eager_algebra.Plan.Join { left; right; _ } ->
        has_product left || has_product right
  in
  Alcotest.(check bool) "greedy has the cross product" true (has_product greedy);
  Alcotest.(check bool) "DP avoids it" false (has_product dp);
  (* and both compute the same multiset *)
  let rg = Eager_exec.Exec.run_rows db greedy in
  let rd = Eager_exec.Exec.run_rows db dp in
  (* column orders differ between trees, so compare projected *)
  let proj plan rows =
    let schema = Eager_algebra.Plan.schema_of plan in
    let cols =
      List.sort Colref.compare (Eager_schema.Schema.colrefs schema)
    in
    let idxs = Eager_schema.Schema.indices schema cols in
    List.map (Eager_schema.Row.project idxs) rows
  in
  Alcotest.(check bool) "same result" true
    (Eager_exec.Exec.multiset_equal (proj greedy rg) (proj dp rd))

let test_planner_uses_dp_for_wide_sides () =
  let db, _, _ = star_db () in
  (* a grouping dimension so the query enters the canonical class with
     R1 = {A, B, C} (three tables) and R2 = {G} *)
  let open Eager_catalog in
  let open Eager_storage in
  let coldef name ctype : Table_def.column_def =
    { Table_def.cname = name; ctype; domain = None }
  in
  Database.create_table db
    (Table_def.make "G"
       [ coldef "gid" Eager_schema.Ctype.Int; coldef "cid" Eager_schema.Ctype.Int ]
       [ Constr.Primary_key [ "gid" ] ]);
  for g = 1 to 5 do
    Database.insert_exn db "G" [ Eager_value.Value.Int g; Eager_value.Value.Int g ]
  done;
  let q =
    Canonical.of_input_exn db
      {
        Canonical.sources =
          [
            { Canonical.table = "A"; rel = "A" };
            { Canonical.table = "B"; rel = "B" };
            { Canonical.table = "C"; rel = "C" };
            { Canonical.table = "G"; rel = "G" };
          ];
        where =
          Expr.conj
            [
              Expr.eq (Expr.col "A" "c") (Expr.col "C" "id");
              Expr.eq (Expr.col "B" "c") (Expr.col "C" "id");
              Expr.eq (Expr.col "C" "id") (Expr.col "G" "cid");
            ];
        group_by = [ cr "G" "gid" ];
        select_cols = [ cr "G" "gid" ];
        select_aggs =
          [
            Eager_algebra.Agg.count (cr "" "na") (Expr.col "A" "aid");
            Eager_algebra.Agg.max_ (cr "" "mb") (Expr.col "B" "bid");
          ];
        select_distinct = false;
        select_having = None;
        r1_hint = [ "C" ];
      }
  in
  Alcotest.(check int) "three tables on R1" 3 (List.length q.Canonical.r1);
  let d = decide_ok db q in
  let rec has_product = function
    | Eager_algebra.Plan.Product _ -> true
    | Eager_algebra.Plan.Scan _ -> false
    | Eager_algebra.Plan.Select { input; _ }
    | Eager_algebra.Plan.Project { input; _ }
    | Eager_algebra.Plan.Group { input; _ }
    | Eager_algebra.Plan.Partial_group { input; _ }
    | Eager_algebra.Plan.Sort { input; _ }
    | Eager_algebra.Plan.Map { input; _ } ->
        has_product input
    | Eager_algebra.Plan.Join { left; right; _ } ->
        has_product left || has_product right
  in
  Alcotest.(check bool) "planner's lazy plan avoids the cross product" false
    (has_product (Planner.lazy_candidate d).Placement.plan);
  Alcotest.(check bool) "greedy FROM-order plan had one" true
    (has_product (Plans.e1 db q));
  (* and the DP-ordered plan computes the same result *)
  let r_dp =
    Eager_exec.Exec.run_rows db (Planner.lazy_candidate d).Placement.plan
  in
  let r_greedy = Eager_exec.Exec.run_rows db (Plans.e1 db q) in
  Alcotest.(check bool) "same result" true
    (Eager_exec.Exec.multiset_equal r_dp r_greedy)

let test_join_order_single_and_fallback () =
  let db, sources, conjuncts = star_db () in
  (* single relation: just the filtered scan *)
  (match Join_order.best_tree db [ List.hd sources ] [] with
  | Eager_algebra.Plan.Scan _ -> ()
  | _ -> Alcotest.fail "single source should be a scan");
  (* over budget: falls back to the greedy tree (still executable) *)
  let p = Join_order.best_tree ~max_relations:2 db sources conjuncts in
  Alcotest.(check bool) "fallback executes" true
    (List.length (Eager_exec.Exec.run_rows db p) > 0)

let () =
  Alcotest.run "opt"
    [
      ("selectivity", [ Alcotest.test_case "heuristics" `Quick test_selectivity ]);
      ( "estimation",
        [
          Alcotest.test_case "Figure 1 outputs" `Quick test_estimates_fig1;
          Alcotest.test_case "scan profile" `Quick test_estimate_profile_scan;
          Alcotest.test_case "histogram range selectivity" `Quick
            test_histogram_selectivity;
        ] );
      ( "cost",
        [
          Alcotest.test_case "Figure 1 favours eager" `Quick
            test_cost_prefers_eager_on_fig1;
          Alcotest.test_case "Figure 8 favours lazy" `Quick
            test_cost_prefers_lazy_on_fig8;
          Alcotest.test_case "breakdown" `Quick test_cost_breakdown;
        ] );
      ( "planner",
        [
          Alcotest.test_case "Figure 1 decision" `Quick test_planner_fig1;
          Alcotest.test_case "Figure 8 decision" `Quick test_planner_fig8;
          Alcotest.test_case "invalid query fallback" `Quick
            test_planner_invalid_query;
          Alcotest.test_case "EXPLAIN shows statistics age" `Quick
            test_explain_statistics_age;
          Alcotest.test_case "golden EXPLAIN on the paper workloads" `Quick
            test_golden_explain;
          Alcotest.test_case "chosen is exactly one candidate" `Quick
            test_chosen_is_one_candidate;
        ] );
      ( "join order",
        [
          Alcotest.test_case "DP beats greedy on a star" `Quick
            test_join_order_beats_greedy;
          Alcotest.test_case "degenerate cases" `Quick
            test_join_order_single_and_fallback;
          Alcotest.test_case "planner uses DP on wide sides" `Quick
            test_planner_uses_dp_for_wide_sides;
        ] );
      ( "unique groups",
        [
          Alcotest.test_case "detection" `Quick test_unique_group_detection;
          Alcotest.test_case "fast path agrees" `Quick
            test_unique_group_execution_agrees;
          Alcotest.test_case "soundness guard" `Quick
            test_unique_group_not_marked_when_unsound;
          Alcotest.test_case "nested groups" `Quick test_unique_group_nested;
        ] );
    ]
