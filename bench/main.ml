(* Benchmark harness: regenerates every figure of the paper and runs
   Bechamel micro-benchmarks.

   Usage:
     main.exe                 run every report, then the micro-benchmarks,
                              then write BENCH_results.json
     main.exe --report NAME   one report: fig1 fig2 fig3 fig5 fig7 fig8
                              ex3 ex5 sweep-groups sweep-selectivity
                              batch-sweep ...
     main.exe --micro         only the micro-benchmarks
     main.exe --json [PATH]   only the machine-readable results
                              (default PATH: BENCH_results.json)
     main.exe --seed N        seed for every generated workload (default
                              1994); all data generation threads an
                              explicit Random.State from it
     main.exe --smoke         fast subset for CI (@bench-smoke): the
                              batch-size sweep on Figure 1, asserting
                              that E2's peak intermediate-row high-water
                              mark stays strictly below E1's

   See EXPERIMENTS.md for the paper-vs-measured record. *)

open Eager_value
open Eager_schema
open Eager_expr
open Eager_catalog
open Eager_storage
open Eager_fd
open Eager_algebra
open Eager_exec
open Eager_core
open Eager_opt
open Eager_workload

(* every workload generator below receives this seed: same invocation,
   same data, same numbers (modulo the clock) *)
let seed = ref 1994

let section title =
  Printf.printf "\n==========================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==========================================================\n"

(* wall-clock milliseconds, best of three runs *)
let time_ms f =
  let once () =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let r, t1 = once () in
  let _, t2 = once () in
  let _, t3 = once () in
  (r, Float.min t1 (Float.min t2 t3))

let run_both db q =
  let (h1, s1), t1 = time_ms (fun () -> Exec.run db (Plans.e1 db q)) in
  let (h2, s2), t2 = time_ms (fun () -> Exec.run db (Plans.e2 db q)) in
  ((h1, s1, t1), (h2, s2, t2))

let decide_ok db q =
  match Planner.decide db q with
  | Ok d -> d
  | Error e -> failwith (Eager_robust.Err.to_string e)

let choice d =
  Placement.mode_to_string (Planner.chosen_candidate d).Placement.mode

let plan_report name db q =
  Printf.printf "%s\n" (Format.asprintf "%a@." Canonical.pp q);
  Printf.printf "TestFD: %s\n" (Testfd.verdict_to_string (Testfd.test db q));
  let (h1, s1, t1), (h2, s2, t2) = run_both db q in
  Printf.printf "\nPlan 1 (group-by after join), executed:\n%s\n"
    (Optree.to_string s1);
  Printf.printf "Plan 2 (group-by before join), executed:\n%s\n"
    (Optree.to_string s2);
  let d = decide_ok db q in
  Printf.printf "%-24s %12s %12s %12s\n" name "rows" "est. cost" "time (ms)";
  Printf.printf "%-24s %12d %12.0f %12.2f\n" "plan1 (lazy)"
    (Heap.length h1) (Planner.lazy_candidate d).Placement.cost t1;
  Printf.printf "%-24s %12d %12s %12.2f\n" "plan2 (eager)"
    (Heap.length h2)
    (match Planner.eager_candidate d with
    | Some p -> Printf.sprintf "%.0f" p.Placement.cost
    | None -> "-")
    t2;
  Printf.printf "optimizer chooses: %s\n" (choice d);
  Printf.printf "results identical: %b\n"
    (Exec.multiset_equal (Heap.to_list h1) (Heap.to_list h2))

(* ------------------------------------------------------------------ *)

let report_fig1 () =
  section
    "FIG1 — Figure 1 / Example 1: Employee(10000) x Department(100), COUNT";
  let w = Employee_dept.setup ~seed:!seed ~employees:10_000 ~departments:100 () in
  plan_report "fig1" w.Employee_dept.db w.Employee_dept.query;
  print_endline
    "\npaper: join input 10000x100 vs 100x100; group input 10000 both ways;\n\
     both plans yield 100 rows and Plan 2 wins.";
  0

let report_fig2 () =
  section "FIG2 — Figure 2: SQL2 three-valued AND / OR truth tables";
  let vals = [ Tbool.True; Tbool.Unknown; Tbool.False ] in
  let header =
    Printf.sprintf "%-9s| %-9s %-9s %-9s" "AND" "true" "unknown" "false"
  in
  print_endline header;
  print_endline (String.make (String.length header) '-');
  List.iter
    (fun a ->
      Printf.printf "%-9s| %-9s %-9s %-9s\n" (Tbool.to_string a)
        (Tbool.to_string (Tbool.and_ a Tbool.True))
        (Tbool.to_string (Tbool.and_ a Tbool.Unknown))
        (Tbool.to_string (Tbool.and_ a Tbool.False)))
    vals;
  print_newline ();
  Printf.printf "%-9s| %-9s %-9s %-9s\n" "OR" "true" "unknown" "false";
  print_endline (String.make (String.length header) '-');
  List.iter
    (fun a ->
      Printf.printf "%-9s| %-9s %-9s %-9s\n" (Tbool.to_string a)
        (Tbool.to_string (Tbool.or_ a Tbool.True))
        (Tbool.to_string (Tbool.or_ a Tbool.Unknown))
        (Tbool.to_string (Tbool.or_ a Tbool.False)))
    vals;
  0

let report_fig3 () =
  section "FIG3 — Figure 3: interpretation operators and null-equality";
  Printf.printf "%-10s %-10s %-10s\n" "P" "floor(P)" "ceil(P)";
  List.iter
    (fun p ->
      Printf.printf "%-10s %-10b %-10b\n" (Tbool.to_string p) (Tbool.holds p)
        (Tbool.possible p))
    [ Tbool.True; Tbool.Unknown; Tbool.False ];
  print_newline ();
  let cases =
    [
      (Value.Null, Value.Null);
      (Value.Null, Value.Int 1);
      (Value.Int 1, Value.Int 1);
      (Value.Int 1, Value.Int 2);
    ]
  in
  Printf.printf "%-14s %-14s %-8s %-12s\n" "X" "Y" "X =n Y" "floor(X=Y)";
  List.iter
    (fun (x, y) ->
      Printf.printf "%-14s %-14s %-8b %-12b\n" (Value.to_string x)
        (Value.to_string y) (Value.null_eq x y)
        (Tbool.holds (Value.cmp_eq x y)))
    cases;
  0

let fig5_script =
  {|CREATE DOMAIN DepIdType SMALLINT CHECK (VALUE > 0 AND VALUE < 100);
    CREATE TABLE Dept (DeptID DepIdType, PRIMARY KEY (DeptID));
    CREATE TABLE Department (
      EmpID INTEGER CHECK (EmpID > 0),
      EmpSID INTEGER UNIQUE,
      LastName CHARACTER(30) NOT NULL,
      FirstName CHARACTER(30),
      DeptID DepIdType CHECK (DeptID > 5),
      PRIMARY KEY (EmpID),
      FOREIGN KEY (DeptID) REFERENCES Dept (DeptID));|}

let report_fig5 () =
  section "FIG5 — Figure 5: SQL2 constraint DDL into the catalog";
  let db = Database.create () in
  (match Eager_parser.Binder.run_script db fig5_script with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  (match Catalog.find_table (Database.catalog db) "Department" with
  | None -> failwith "table missing"
  | Some td ->
      Printf.printf "%s\n\n" (Format.asprintf "%a" Table_def.pp td);
      Printf.printf "declared keys: %s\n"
        (String.concat " | " (List.map (String.concat ",") (Table_def.keys td)));
      Printf.printf "NOT NULL columns: %s\n"
        (String.concat ", " (Table_def.not_null td));
      Printf.printf "\nT predicates handed to TestFD (rel = D):\n";
      List.iter
        (fun e -> Printf.printf "  %s\n" (Expr.to_string e))
        (Catalog.table_checks (Database.catalog db) ~rel:"D" td));
  0

let report_fig7 () =
  section "FIG7 — Figure 7: transitive closure in TestFD";
  let cr = Colref.make "R" in
  let a1 = cr "A1" and a2 = cr "A2" and a3 = cr "A3" and a4 = cr "A4" in
  print_endline "known: a: A1 = 25   b: A1 -> A3   c: A3 = A4";
  print_endline "claim: A2 -> A4";
  let closure =
    Closure.compute
      ~start:(Colref.set_of_list [ a2 ])
      ~constants:(Colref.set_of_list [ a1 ])
      ~equalities:[ (a3, a4) ]
      ~fds:[ Fd.make [ a1 ] [ a3 ] ]
  in
  Printf.printf "closure({A2}) = %s\n"
    (Format.asprintf "%a" Colref.pp_set closure);
  Printf.printf "A2 -> A4 derived: %b\n" (Colref.Set.mem a4 closure);
  0

let report_fig8 () =
  section
    "FIG8 — Figure 8 / Example 4: valid but disadvantageous (A 10000, B 100)";
  let w = Contrived.setup ~seed:!seed () in
  plan_report "fig8" w.Contrived.db w.Contrived.query;
  print_endline
    "\npaper: lazy join 10000x100 -> 50 rows -> 10 groups;\n\
     eager groups 10000 -> 9000 then joins 9000x100; Plan 1 wins.";
  0

let report_ex3 () =
  section "EX3 — Example 3: printer accounting, full TestFD walk-through";
  let w = Printers.setup ~seed:!seed () in
  let db = w.Printers.db and q = w.Printers.query in
  let verdict, trace = Testfd.test_traced db q in
  Printf.printf "%s\n" (Format.asprintf "%a@." Canonical.pp q);
  Printf.printf "step 1-2: %d CNF clauses kept, %d dropped (non-equality)\n"
    trace.Testfd.clauses_kept trace.Testfd.clauses_dropped;
  Printf.printf "step 3:   %d DNF disjunct(s)\n" trace.Testfd.disjuncts;
  List.iteri
    (fun idx (cols, r2_ok, ga1_ok) ->
      Printf.printf
        "step 4, disjunct %d:\n\
        \  closure S = {%s}\n\
        \  (d) key of R2 in S: %b\n\
        \  (h) GA1+ in S: %b\n"
        (idx + 1)
        (String.concat ", " cols)
        r2_ok ga1_ok)
    trace.Testfd.closures;
  Printf.printf "verdict:  %s\n\n" (Testfd.verdict_to_string verdict);
  plan_report "ex3" db q;
  (* the paper's closing remark on Example 3: predicate expansion *)
  let q' = Expand.query q in
  let group_input plan =
    let _, st = Exec.run db plan in
    match Optree.find ~prefix:"GroupBy" st with
    | Some node -> List.hd (Optree.in_rows node)
    | None -> 0
  in
  Printf.printf
    "\npredicate expansion (paper: \"add A.Machine = 'dragon' to R1'\"):\n\
     derived atoms: %d; eager grouping input %d -> %d rows\n"
    (Expand.derived_count q) (group_input (Plans.e2 db q))
    (group_input (Plans.e2 db q'));
  0

let report_ex5 () =
  section "EX5 — Section 8: performing join before group-by (UserInfo view)";
  let w = Printers.setup ~seed:!seed () in
  let db = w.Printers.db and q = w.Printers.query in
  print_endline "aggregated view body (materialised by the standard strategy):";
  print_endline (Plan.to_string (Reverse.view_plan db q));
  (match Reverse.eligible db q with
  | Ok () -> print_endline "reverse transformation eligible: yes"
  | Error r -> Printf.printf "reverse transformation eligible: no (%s)\n" r);
  let (hv, _), tv =
    time_ms (fun () -> Exec.run db (Reverse.plan_of db q Reverse.Materialize_view))
  in
  let (hf, _), tf =
    time_ms (fun () -> Exec.run db (Reverse.plan_of db q Reverse.Flatten))
  in
  Printf.printf "%-28s %10s %12s\n" "strategy" "rows" "time (ms)";
  Printf.printf "%-28s %10d %12.2f\n" "materialize view, then join"
    (Heap.length hv) tv;
  Printf.printf "%-28s %10d %12.2f\n" "flatten: join, then group"
    (Heap.length hf) tf;
  Printf.printf "results identical: %b\n"
    (Exec.multiset_equal (Heap.to_list hv) (Heap.to_list hf));
  0

let sweep_report title points =
  Printf.printf "%-12s %12s %12s %12s %12s  %s\n" "knob" "cost E1" "cost E2"
    "E1 (ms)" "E2 (ms)" "choice";
  List.iter
    (fun p ->
      let db = p.Sweep.db and q = p.Sweep.query in
      let d = decide_ok db q in
      let (_, _, t1), (_, _, t2) = run_both db q in
      Printf.printf "%-12.2f %12.0f %12.0f %12.2f %12.2f  %s\n" p.Sweep.knob
        (Planner.lazy_candidate d).Placement.cost
        (match Planner.eager_candidate d with
        | Some p -> p.Placement.cost
        | None -> nan)
        t1 t2
        (match (Planner.chosen_candidate d).Placement.mode with
        | Placement.Eager_full -> "eager (E2)"
        | Placement.Eager_partial -> "eager partial"
        | Placement.Lazy -> "lazy (E1)"))
    points;
  Printf.printf
    "(%s: eager wins where the group-by shrinks the join input most)\n" title

let report_sweep_groups () =
  section "SWEEP-G — Section 7 trade-off: vary rows-per-group (10000 employees)";
  let points =
    Sweep.by_fanin ~seed:!seed ~employees:10_000
      ~departments:[ 5; 10; 50; 100; 500; 1000; 5000; 10000 ]
      ()
  in
  sweep_report "fan-in sweep" points;
  0

let report_sweep_selectivity () =
  section
    "SWEEP-S — Section 7 trade-off: vary join selectivity (10000 employees, \
     50 departments)";
  let points =
    Sweep.by_selectivity ~seed:!seed ~employees:10_000 ~departments:50
      ~fractions:[ 0.01; 0.05; 0.1; 0.25; 0.5; 0.75; 1.0 ]
      ()
  in
  sweep_report "selectivity sweep" points;
  0

let report_pipeline () =
  section
    "SEC7-PIPE — Section 7, last observation: grouping output is sorted; \
     later joins can exploit it";
  (* high-cardinality grouping (15000 groups out of 20000 rows): the
     downstream sort the merge join would need is substantial, so skipping
     it is visible *)
  let w = Employee_dept.setup ~seed:!seed ~employees:20_000 ~departments:15_000 () in
  let db = w.Employee_dept.db and q = w.Employee_dept.query in
  let e2 = Plans.e2 db q in
  let run ja ga =
    let options = { Exec.default_options with join_algo = ja; group_algo = ga } in
    let (h, st, _), t = time_ms (fun () -> Exec.run_ordered ~options db e2) in
    (h, st, t)
  in
  let _, st_sorted, t_sorted = run Exec.Merge_join Exec.Sort_group in
  let _, _, t_hash = run Exec.Hash_join Exec.Hash_group in
  let _, _, t_merge_unsorted = run Exec.Merge_join Exec.Hash_group in
  (match Optree.find ~prefix:"Join" st_sorted with
  | Some node -> Printf.printf "executed join node: %s\n" node.Optree.label
  | None -> ());
  Printf.printf "%-44s %10s\n" "E2 configuration" "time (ms)";
  Printf.printf "%-44s %10.2f\n" "sort-group + merge join (R1' presorted)"
    t_sorted;
  Printf.printf "%-44s %10.2f\n" "hash-group + hash join" t_hash;
  Printf.printf "%-44s %10.2f\n" "hash-group + merge join (must sort)"
    t_merge_unsorted;
  print_endline
    "(the merge join over the sort-grouped R1' skips its left sort — the\n\
     'resulting table is normally sorted on the grouping columns' claim;\n\
     whether the skip pays off overall depends on how the grouping was\n\
     implemented, which is why it is a property the executor *tracks*\n\
     rather than a plan the optimizer forces)";
  0

let report_unique () =
  section
    "UNIQ — Klug/Dayal singleton-group optimisation (grouping on a derived \
     key)";
  let w = Sales.setup ~seed:!seed ~customers:500 ~orders:30_000 () in
  let db = w.Sales.db in
  let td =
    Option.get (Catalog.find_table (Database.catalog db) "Orders")
  in
  let scan =
    Plan.scan ~table:"Orders" ~rel:"O" (Table_def.schema ~rel:"O" td)
  in
  let g =
    Plan.group
      ~by:[ Colref.make "O" "OrderID" ]
      ~aggs:[ Agg.sum (Colref.make "" "amt") (Expr.col "O" "Amount") ]
      scan
  in
  let marked = Unique_group.mark db g in
  let (h1, _), t_hash = time_ms (fun () -> Exec.run db g) in
  let (h2, _), t_fast = time_ms (fun () -> Exec.run db marked) in
  Printf.printf "%-36s %10s %10s\n" "plan" "rows" "time (ms)";
  Printf.printf "%-36s %10d %10.2f\n" "hash grouping" (Heap.length h1) t_hash;
  Printf.printf "%-36s %10d %10.2f\n" "singleton fast path (marked)"
    (Heap.length h2) t_fast;
  Printf.printf "results identical: %b\n"
    (Exec.multiset_equal (Heap.to_list h1) (Heap.to_list h2));
  0

let report_sweep_scale () =
  section
    "SWEEP-N — scale sweep: Example 1 shape at growing sizes (100 \
     rows/group)";
  Printf.printf "%10s %10s %12s %12s %10s\n" "employees" "depts" "E1 (ms)"
    "E2 (ms)" "speedup";
  List.iter
    (fun employees ->
      let departments = max 2 (employees / 100) in
      let w = Employee_dept.setup ~seed:!seed ~employees ~departments () in
      let db = w.Employee_dept.db and q = w.Employee_dept.query in
      let (_, t1), (_, t2) =
        ( time_ms (fun () -> Exec.run_rows db (Plans.e1 db q)),
          time_ms (fun () -> Exec.run_rows db (Plans.e2 db q)) )
      in
      Printf.printf "%10d %10d %12.2f %12.2f %9.1fx\n" employees departments
        t1 t2 (t1 /. Float.max 0.01 t2))
    [ 1_000; 5_000; 20_000; 50_000 ];
  print_endline
    "(the eager win is the join-input reduction, so it grows with scale at \
     fixed rows/group)";
  0

let report_estimator () =
  section
    "EST — estimator ablation: range selectivity with and without \
     histograms (skewed data)";
  (* 90% of values in [0,10), 10% in [90,100) *)
  let db = Database.create () in
  Database.create_table db
    (Table_def.make "Sk"
       [ { Table_def.cname = "v"; ctype = Ctype.Int; domain = None } ]
       []);
  for i = 0 to 8_999 do
    Database.insert_exn db "Sk" [ Value.Int (i mod 10) ]
  done;
  for i = 0 to 999 do
    Database.insert_exn db "Sk" [ Value.Int (90 + (i mod 10)) ]
  done;
  let td = Option.get (Catalog.find_table (Database.catalog db) "Sk") in
  let scan = Plan.scan ~table:"Sk" ~rel:"S" (Table_def.schema ~rel:"S" td) in
  let prof = Estimate.profile db scan in
  let ndv c = Option.value (Colref.Map.find_opt c prof.Estimate.ndv) ~default:10. in
  let hist c = Colref.Map.find_opt c prof.Estimate.hist in
  Printf.printf "%-18s %10s %12s %12s %12s\n" "predicate" "actual"
    "uniform est" "hist est" "hist err";
  List.iter
    (fun threshold ->
      let pred = Expr.Cmp (Expr.Lt, Expr.col "S" "v", Expr.int threshold) in
      let actual =
        float_of_int
          (List.length (Exec.run_rows db (Plan.select pred scan)))
      in
      let uniform = 10_000. *. Estimate.selectivity ~ndv pred in
      let with_hist = 10_000. *. Estimate.selectivity ~ndv ~hist pred in
      Printf.printf "%-18s %10.0f %12.0f %12.0f %11.0f%%\n"
        (Printf.sprintf "v < %d" threshold)
        actual uniform with_hist
        (Float.abs (with_hist -. actual) /. Float.max 1. actual *. 100.))
    [ 5; 10; 50; 95 ];
  print_endline
    "(the uniform 1/3 guess is off by an order of magnitude on skew; the \
     16-bucket histogram tracks it)";
  0

(* ------------------------------------------------------------------ *)
(* batch-size sweep: the pull pipeline's knob.  Throughput is total
   rows produced across all operators per second (pipeline work rate);
   peak is the high-water mark of simultaneously live intermediate rows
   — the memory axis where group-by before join pays off (E2's hash
   join builds over ~100 aggregated rows instead of 10000 base rows). *)

let swept_batch_sizes = [ 1; 16; 256; 1024; 8192 ]

let profiled_run db plan batch_rows =
  let options = { Exec.default_options with batch_rows } in
  let (h, st, _, prof), t =
    time_ms (fun () -> Exec.run_profiled ~options db plan)
  in
  let produced = Optree.total_produced st in
  let rows_per_sec =
    float_of_int produced /. (Float.max 0.001 t /. 1000.)
  in
  (h, st, prof, t, rows_per_sec)

let batch_sweep_points ?(sizes = swept_batch_sizes) db q =
  let e1 = Plans.e1 db q and e2 = Plans.e2 db q in
  List.map
    (fun batch_rows ->
      let _, _, prof1, t1, rps1 = profiled_run db e1 batch_rows in
      let _, _, prof2, t2, rps2 = profiled_run db e2 batch_rows in
      (batch_rows, (t1, rps1, prof1), (t2, rps2, prof2)))
    sizes

let print_batch_sweep points =
  Printf.printf "%10s %10s %14s %10s %10s %14s %10s\n" "batch" "E1 (ms)"
    "E1 rows/s" "E1 peak" "E2 (ms)" "E2 rows/s" "E2 peak";
  List.iter
    (fun (batch_rows, (t1, rps1, p1), (t2, rps2, p2)) ->
      Printf.printf "%10d %10.2f %14.0f %10d %10.2f %14.0f %10d\n" batch_rows
        t1 rps1 p1.Exec.peak_live_rows t2 rps2 p2.Exec.peak_live_rows)
    points

let report_batch_sweep () =
  section
    "BATCH — batch-size sweep on Figure 1 (Employee 10000 x Department \
     100): throughput and peak live intermediate rows";
  let w =
    Employee_dept.setup ~seed:!seed ~employees:10_000 ~departments:100 ()
  in
  let points = batch_sweep_points w.Employee_dept.db w.Employee_dept.query in
  print_batch_sweep points;
  print_endline
    "(peak counts rows held by pipeline breakers — hash-join build sides,\n\
     sort buffers, group tables.  E1 must build its hash join over all\n\
     10000 employees; E2 groups them first, streaming, and builds over\n\
     ~100 aggregated rows, so its peak is two orders of magnitude lower\n\
     at every batch size)";
  0

(* ------------------------------------------------------------------ *)
(* the N-way star: Part -> Supplier -> Region, where no full eager push
   is valid (TestFD says NO at every cut) but partial pre-aggregation
   below both joins collapses ~10000 parts to ~50 partial groups before
   any join input is built *)

let nway_measurements () =
  let w = Star.setup ~seed:!seed () in
  let db = w.Star.db and q = w.Star.query in
  let d = decide_ok db q in
  let forced_e1 =
    match Planner.decide ~force:Planner.E1 db q with
    | Ok d1 -> d1.Planner.chosen
    | Error e -> failwith (Eager_robust.Err.to_string e)
  in
  let profiled plan =
    let (h, _, _, prof), t = time_ms (fun () -> Exec.run_profiled db plan) in
    (Heap.length h, t, prof.Exec.peak_live_rows)
  in
  (d, profiled forced_e1, profiled d.Planner.chosen)

let report_nway () =
  section
    "NWAY — three-relation star (Part 10000 x Supplier 50 x Region 5): \
     forced E1 vs the planner's best placement";
  let d, (rows1, t1, peak1), (rows2, t2, peak2) = nway_measurements () in
  Printf.printf "placements (%d candidates, ranked by cost):\n"
    (List.length d.Planner.candidates);
  List.iteri
    (fun i (p : Placement.t) ->
      Printf.printf "  %d. %-28s cost %10.0f%s\n" (i + 1)
        (Placement.describe p) p.Placement.cost
        (if p.Placement.plan == d.Planner.chosen then "  [chosen]" else ""))
    d.Planner.candidates;
  Printf.printf "%-32s %10s %10s %12s\n" "" "rows" "ms" "peak live";
  Printf.printf "%-32s %10d %10.2f %12d\n" "forced E1" rows1 t1 peak1;
  Printf.printf "%-32s %10d %10.2f %12d\n" (choice d) rows2 t2 peak2;
  print_endline
    "(the full eager push is invalid here — suppliers share regions, so \
     TestFD says NO\n\
    \ at every cut — but the bounded partial group below both joins \
     pre-aggregates the\n\
    \ fact table, and the finalizing group above merges per region)";
  if rows1 = rows2 && peak2 < peak1 then 0 else 1

(* CI smoke: the sweep at full Figure-1 size, with the paper's memory
   claim enforced rather than just printed *)
let report_smoke () =
  section "SMOKE — batch sweep + E2-peak-below-E1 assertion (Figure 1)";
  let w =
    Employee_dept.setup ~seed:!seed ~employees:10_000 ~departments:100 ()
  in
  let points =
    batch_sweep_points ~sizes:[ 1; 1024 ] w.Employee_dept.db
      w.Employee_dept.query
  in
  print_batch_sweep points;
  let ok =
    List.for_all
      (fun (_, (_, _, p1), (_, _, p2)) ->
        p2.Exec.peak_live_rows < p1.Exec.peak_live_rows)
      points
  in
  Printf.printf "E2 peak strictly below E1 peak at every batch size: %b\n" ok;
  if ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* the paged engine under pressure: Figure 1 with a buffer pool far
   below the lazy plan's build side.  Both plans run to completion
   through the spill breakers and agree on the result; the eager plan's
   pinned-page high-water mark stays strictly below the lazy plan's,
   because one group row per department fits the pool while one build
   row per employee cannot. *)

let spill_storage =
  { Database.pool_pages = Some 32; page_size = 1024; spill_dir = None }

let spill_measurements () =
  let w =
    Employee_dept.setup ~storage:spill_storage ~seed:!seed ~employees:10_000
      ~departments:100 ()
  in
  let db = w.Employee_dept.db and q = w.Employee_dept.query in
  let pool =
    match Database.buffer_pool db with
    | Some p -> p
    | None -> failwith "paged workload has no buffer pool"
  in
  let measure plan =
    Buffer_pool.reset_peak pool;
    let options = { Exec.default_options with spill = Spill.for_db db } in
    let rows, ms = time_ms (fun () -> Exec.run_rows ~options db plan) in
    (rows, ms, (Buffer_pool.stats pool).Buffer_pool.peak_pinned)
  in
  let m1 = measure (Plans.e1 db q) in
  let m2 = measure (Plans.e2 db q) in
  (db, m1, m2)

let report_spill () =
  section
    "SPILL — Figure 1 on the paged engine (32-page pool << E1 build side)";
  let db, (r1, t1, peak1), (r2, t2, peak2) = spill_measurements () in
  let s = Option.get (Database.pool_stats db) in
  Printf.printf "%-24s %12s %12s %14s\n" "" "rows" "time (ms)" "peak pinned";
  Printf.printf "%-24s %12d %12.2f %14d\n" "plan1 (lazy)" (List.length r1) t1
    peak1;
  Printf.printf "%-24s %12d %12.2f %14d\n" "plan2 (eager)" (List.length r2) t2
    peak2;
  Printf.printf
    "pool: hits=%d misses=%d evictions=%d page_reads=%d page_writes=%d\n"
    s.Buffer_pool.hits s.Buffer_pool.misses s.Buffer_pool.evictions
    s.Buffer_pool.page_reads s.Buffer_pool.page_writes;
  let identical = Exec.multiset_equal r1 r2 in
  Printf.printf "results identical: %b\n" identical;
  Printf.printf "E2 peak pinned strictly below E1's: %b\n" (peak2 < peak1);
  Database.close_storage db;
  if identical && peak2 < peak1 then 0 else 1

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per figure/series *)

open Bechamel
open Toolkit

let micro_tests () =
  let fig1 = Employee_dept.setup ~seed:!seed ~employees:2_000 ~departments:50 () in
  let fig1_db = fig1.Employee_dept.db and fig1_q = fig1.Employee_dept.query in
  let fig1_e1 = Plans.e1 fig1_db fig1_q and fig1_e2 = Plans.e2 fig1_db fig1_q in
  let fig8 =
    Contrived.setup ~seed:!seed ~a_rows:2_000 ~b_rows:100 ~matched_rows:50
      ~matched_groups:10 ~a_groups:1_800 ()
  in
  let fig8_db = fig8.Contrived.db and fig8_q = fig8.Contrived.query in
  let fig8_e1 = Plans.e1 fig8_db fig8_q and fig8_e2 = Plans.e2 fig8_db fig8_q in
  let ex3 = Printers.setup ~seed:!seed ~users:200 () in
  let ex3_db = ex3.Printers.db and ex3_q = ex3.Printers.query in
  let group_w = Employee_dept.setup ~seed:!seed ~employees:5_000 ~departments:100 () in
  let gdb = group_w.Employee_dept.db in
  let gq = group_w.Employee_dept.query in
  let group_plan = Plans.e2_r1_prime gdb gq in
  let join_w = Employee_dept.setup ~seed:!seed ~employees:400 ~departments:400 () in
  let jdb = join_w.Employee_dept.db and jq = join_w.Employee_dept.query in
  let join_plan = Plans.e1 jdb jq in
  let with_join algo () =
    Exec.run ~options:{ Exec.default_options with join_algo = algo } jdb
      join_plan
  in
  let with_group algo () =
    Exec.run ~options:{ Exec.default_options with group_algo = algo } gdb
      group_plan
  in
  let cr = Colref.make "R" in
  let closure_inputs =
    ( Colref.set_of_list [ cr "A2" ],
      Colref.set_of_list [ cr "A1" ],
      [ (cr "A3", cr "A4") ],
      [ Fd.make [ cr "A1" ] [ cr "A3" ] ] )
  in
  Test.make_grouped ~name:"eagerdb"
    [
      Test.make ~name:"fig1/plan1-lazy"
        (Staged.stage (fun () -> Exec.run fig1_db fig1_e1));
      Test.make ~name:"fig1/plan2-eager"
        (Staged.stage (fun () -> Exec.run fig1_db fig1_e2));
      Test.make ~name:"fig8/plan1-lazy"
        (Staged.stage (fun () -> Exec.run fig8_db fig8_e1));
      Test.make ~name:"fig8/plan2-eager"
        (Staged.stage (fun () -> Exec.run fig8_db fig8_e2));
      Test.make ~name:"testfd/ex1"
        (Staged.stage (fun () -> Testfd.test fig1_db fig1_q));
      Test.make ~name:"testfd/ex3"
        (Staged.stage (fun () -> Testfd.test ex3_db ex3_q));
      Test.make ~name:"planner/decide-ex3"
        (Staged.stage (fun () -> Planner.decide ex3_db ex3_q));
      Test.make ~name:"groupby/hash" (Staged.stage (with_group Exec.Hash_group));
      Test.make ~name:"groupby/sort" (Staged.stage (with_group Exec.Sort_group));
      Test.make ~name:"join/nested-loop"
        (Staged.stage (with_join Exec.Nested_loop));
      Test.make ~name:"join/hash" (Staged.stage (with_join Exec.Hash_join));
      Test.make ~name:"join/merge" (Staged.stage (with_join Exec.Merge_join));
      Test.make ~name:"closure/fig7"
        (Staged.stage (fun () ->
             let start, constants, equalities, fds = closure_inputs in
             Closure.compute ~start ~constants ~equalities ~fds));
      (* Section 7 pipeline: E2 with presorted merge join vs hash *)
      Test.make ~name:"pipeline/e2-sortgroup-mergejoin"
        (Staged.stage (fun () ->
             Exec.run
               ~options:
                 {
                   Exec.default_options with
                   join_algo = Exec.Merge_join;
                   group_algo = Exec.Sort_group;
                 }
               fig1_db fig1_e2));
      Test.make ~name:"pipeline/e2-hashgroup-hashjoin"
        (Staged.stage (fun () -> Exec.run fig1_db fig1_e2));
      (* unique-group fast path vs hash grouping on a key *)
      (let sales = Sales.setup ~seed:!seed ~customers:100 ~orders:4_000 () in
       let sdb = sales.Sales.db in
       let std_ =
         Option.get (Catalog.find_table (Database.catalog sdb) "Orders")
       in
       let sscan =
         Plan.scan ~table:"Orders" ~rel:"O" (Table_def.schema ~rel:"O" std_)
       in
       let sgroup =
         Plan.group
           ~by:[ Colref.make "O" "OrderID" ]
           ~aggs:[ Agg.sum (Colref.make "" "amt") (Expr.col "O" "Amount") ]
           sscan
       in
       Test.make ~name:"unique-group/hash"
         (Staged.stage (fun () -> Exec.run sdb sgroup)));
      (let sales = Sales.setup ~seed:!seed ~customers:100 ~orders:4_000 () in
       let sdb = sales.Sales.db in
       let std_ =
         Option.get (Catalog.find_table (Database.catalog sdb) "Orders")
       in
       let sscan =
         Plan.scan ~table:"Orders" ~rel:"O" (Table_def.schema ~rel:"O" std_)
       in
       let sgroup =
         Unique_group.mark sdb
           (Plan.group
              ~by:[ Colref.make "O" "OrderID" ]
              ~aggs:[ Agg.sum (Colref.make "" "amt") (Expr.col "O" "Amount") ]
              sscan)
       in
       Test.make ~name:"unique-group/fast-path"
         (Staged.stage (fun () -> Exec.run sdb sgroup)));
    ]

let run_micro () =
  section "MICRO — Bechamel micro-benchmarks (ns per run, OLS estimate)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
        in
        (name, est) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Printf.printf "%-40s %16s %14s\n" "benchmark" "ns/run" "ms/run";
  List.iter
    (fun (name, est) ->
      Printf.printf "%-40s %16.0f %14.3f\n" name est (est /. 1e6))
    rows;
  0

(* ------------------------------------------------------------------ *)
(* machine-readable results: one JSON object per workload, E1/E2 wall
   time, output rows and throughput, written where CI can diff it *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_workloads () =
  [
    ( "fig1",
      let w =
        Employee_dept.setup ~seed:!seed ~employees:10_000 ~departments:100 ()
      in
      (w.Employee_dept.db, w.Employee_dept.query) );
    ( "fig8",
      let w = Contrived.setup ~seed:!seed () in
      (w.Contrived.db, w.Contrived.query) );
    ( "ex3",
      let w = Printers.setup ~seed:!seed () in
      (w.Printers.db, w.Printers.query) );
    ( "parts",
      let w = Parts.setup ~seed:!seed () in
      (w.Parts.db, w.Parts.query) );
    ( "sales",
      let w = Sales.setup ~seed:!seed ~customers:500 ~orders:30_000 () in
      (w.Sales.db, w.Sales.query) );
  ]

(* replication overhead: group-committed insert throughput on a live
   server, with and without a hot standby consuming the WAL stream.
   The commit tap publishes into the hub either way (it is always
   installed); the "on" side adds a connected sender session and a
   standby applying every record, and also reports how long the standby
   needed to drain to the primary's final LSN after the last ack. *)
let repl_throughput ~standby:with_standby ~inserts ~writers =
  let module Server = Eager_server.Server in
  let module Client = Eager_server.Client in
  let ok what = function
    | Ok v -> v
    | Error e ->
        Printf.eprintf "bench replication: %s: %s\n" what
          (Eager_robust.Err.to_string e);
        exit 2
  in
  let uniq =
    Printf.sprintf "%d_%d_%s" (Unix.getpid ()) inserts
      (if with_standby then "on" else "off")
  in
  let path base =
    Filename.concat (Filename.get_temp_dir_name ())
      ("eagerdb_bench_" ^ base ^ uniq)
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go k = k + m <= n && (String.sub s k m = sub || go (k + 1)) in
    go 0
  in
  let psock = path "p.sock" in
  let prim, _ =
    ok "primary start"
      (Server.start
         {
           (Server.default_config (Server.L_unix psock)) with
           db_dir = Some (path "pdb");
           read_timeout_ms = 10_000.;
         })
  in
  let stby =
    if not with_standby then None
    else
      Some
        (fst
           (ok "standby start"
              (Server.start
                 {
                   (Server.default_config (Server.L_unix (path "s.sock"))) with
                   db_dir = Some (path "sdb");
                   read_timeout_ms = 10_000.;
                   role =
                     Server.Standby
                       { primary = Client.A_unix psock; repl_seed = !seed };
                 })))
  in
  let pcfg = Client.config ~timeout_ms:10_000. ~retries:5 (Client.A_unix psock) in
  let run_ok sql =
    match ok sql (Client.run pcfg sql) with
    | Client.Ok_text out -> out
    | Client.Refused { msg; _ } | Client.Failed { msg; _ } ->
        Printf.eprintf "bench replication: %s: %s\n" sql msg;
        exit 2
  in
  ignore (run_ok "CREATE TABLE b (id INT NOT NULL, PRIMARY KEY (id));");
  let per_writer = inserts / writers in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init writers (fun w ->
        Thread.create
          (fun () ->
            for k = 1 to per_writer do
              ignore
                (run_ok
                   (Printf.sprintf "INSERT INTO b VALUES (%d);"
                      ((w * 1_000_000) + k)))
            done)
          ())
  in
  List.iter Thread.join threads;
  let commit_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let final_lsn = 1 + (per_writer * writers) in
  let catchup_ms =
    match stby with
    | None -> None
    | Some _ ->
        let scfg =
          Client.config ~timeout_ms:10_000. ~retries:5
            (Client.A_unix (path "s.sock"))
        in
        let t1 = Unix.gettimeofday () in
        let target = Printf.sprintf "applied_lsn=%d" final_lsn in
        let rec drain () =
          match Client.run scfg "STATUS;" with
          | Ok (Client.Ok_text out) when contains out target -> ()
          | _ ->
              Thread.delay 0.01;
              drain ()
        in
        drain ();
        Some ((Unix.gettimeofday () -. t1) *. 1000.)
  in
  Server.stop prim;
  Option.iter Server.stop stby;
  let commits = per_writer * writers in
  let per_sec = float_of_int commits /. (Float.max 0.001 commit_ms /. 1000.) in
  (commits, commit_ms, per_sec, catchup_ms)

let json_replication () =
  let inserts = 400 and writers = 4 in
  let side ~standby =
    let commits, ms, per_sec, catchup = repl_throughput ~standby ~inserts ~writers in
    Printf.sprintf "{\"commits\": %d, \"ms\": %.1f, \"commits_per_sec\": %.0f%s}"
      commits ms per_sec
      (match catchup with
      | None -> ""
      | Some c -> Printf.sprintf ", \"standby_drain_ms\": %.1f" c)
  in
  Printf.sprintf
    "{\"writers\": %d,\n\
    \     \"replication_off\": %s,\n\
    \     \"replication_on\": %s}"
    writers (side ~standby:false) (side ~standby:true)

let report_json path =
  let plan_obj heap ms prof =
    let rows = Heap.length heap in
    Printf.sprintf
      "{\"ms\": %.3f, \"rows\": %d, \"rows_per_sec\": %.0f, \
       \"peak_live_rows\": %d}"
      ms rows
      (float_of_int rows /. (Float.max 0.001 ms /. 1000.))
      prof.Exec.peak_live_rows
  in
  let profiled db plan =
    let (h, _, _, prof), t = time_ms (fun () -> Exec.run_profiled db plan) in
    (h, t, prof)
  in
  let entries =
    List.map
      (fun (name, (db, q)) ->
        let d = decide_ok db q in
        let h1, t1, prof1 = profiled db (Plans.e1 db q) in
        let e2_field =
          match Planner.eager_candidate d with
          | None -> "null"
          | Some p2 ->
              let h2, t2, prof2 = profiled db p2.Placement.plan in
              plan_obj h2 t2 prof2
        in
        Printf.sprintf
          "    {\"workload\": \"%s\", \"seed\": %d, \"testfd\": \"%s\",\n\
          \     \"choice\": \"%s\",\n\
          \     \"e1\": %s,\n\
          \     \"e2\": %s}"
          (json_escape name) !seed
          (json_escape (Testfd.verdict_to_string d.Planner.verdict))
          (json_escape (choice d))
          (plan_obj h1 t1 prof1) e2_field)
      (json_workloads ())
  in
  (* the batch-size sweep on Figure 1: rows/sec here is pipeline
     throughput (total rows produced across operators per second) *)
  let sweep_entries =
    let w =
      Employee_dept.setup ~seed:!seed ~employees:10_000 ~departments:100 ()
    in
    batch_sweep_points w.Employee_dept.db w.Employee_dept.query
    |> List.map (fun (batch_rows, (t1, rps1, p1), (t2, rps2, p2)) ->
           let side t rps p =
             Printf.sprintf
               "{\"ms\": %.3f, \"rows_per_sec\": %.0f, \"peak_live_rows\": \
                %d}"
               t rps p.Exec.peak_live_rows
           in
           Printf.sprintf
             "    {\"batch_rows\": %d, \"e1\": %s, \"e2\": %s}" batch_rows
             (side t1 rps1 p1) (side t2 rps2 p2))
  in
  (* the N-way star: the query the two-relation form cannot express —
     forced E1 vs the cost-chosen aggregation placement *)
  let nway_entry =
    let d, (rows1, t1, peak1), (rows2, t2, peak2) = nway_measurements () in
    let side rows ms peak =
      Printf.sprintf
        "{\"ms\": %.3f, \"rows\": %d, \"rows_per_sec\": %.0f, \
         \"peak_live_rows\": %d}"
        ms rows
        (float_of_int rows /. (Float.max 0.001 ms /. 1000.))
        peak
    in
    let ranked =
      List.map
        (fun (p : Placement.t) ->
          Printf.sprintf "{\"placement\": \"%s\", \"cost\": %.0f}"
            (json_escape (Placement.describe p))
            p.Placement.cost)
        d.Planner.candidates
    in
    Printf.sprintf
      "{\"workload\": \"star_nway\", \"seed\": %d,\n\
      \     \"choice\": \"%s\",\n\
      \     \"placements\": [%s],\n\
      \     \"e1\": %s,\n\
      \     \"best_placement\": %s}"
      !seed
      (json_escape (choice d))
      (String.concat ", " ranked)
      (side rows1 t1 peak1) (side rows2 t2 peak2)
  in
  (* Figure 1 through the spill breakers: a 32-page pool far below the
     lazy plan's build side, peak measured in pinned pages *)
  let spill_entry =
    let db, (r1, t1, peak1), (r2, t2, peak2) = spill_measurements () in
    let side rows ms peak =
      Printf.sprintf
        "{\"ms\": %.3f, \"rows\": %d, \"rows_per_sec\": %.0f, \
         \"peak_pinned_pages\": %d}"
        ms (List.length rows)
        (float_of_int (List.length rows) /. (Float.max 0.001 ms /. 1000.))
        peak
    in
    let entry =
      Printf.sprintf
        "{\"workload\": \"fig1_spill\", \"seed\": %d, \"pool_pages\": %d,\n\
        \     \"page_size\": %d,\n\
        \     \"e1\": %s,\n\
        \     \"e2\": %s}"
        !seed
        (Option.value ~default:0 spill_storage.Database.pool_pages)
        spill_storage.Database.page_size (side r1 t1 peak1) (side r2 t2 peak2)
    in
    Database.close_storage db;
    entry
  in
  let replication = json_replication () in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"seed\": %d,\n\
    \  \"workloads\": [\n\
     %s\n\
    \  ],\n\
    \  \"nway_star\": %s,\n\
    \  \"batch_sweep_fig1\": [\n\
     %s\n\
    \  ],\n\
    \  \"spill_fig1\": %s,\n\
    \  \"replication\": %s\n\
     }\n"
    !seed
    (String.concat ",\n" entries)
    nway_entry
    (String.concat ",\n" sweep_entries)
    spill_entry replication;
  close_out oc;
  Printf.printf "wrote %s (%d workloads + %d sweep points, seed %d)\n" path
    (List.length (json_workloads ()))
    (List.length sweep_entries) !seed;
  0

let reports =
  [
    ("fig1", report_fig1);
    ("fig2", report_fig2);
    ("fig3", report_fig3);
    ("fig5", report_fig5);
    ("fig7", report_fig7);
    ("fig8", report_fig8);
    ("ex3", report_ex3);
    ("ex5", report_ex5);
    ("sweep-groups", report_sweep_groups);
    ("sweep-selectivity", report_sweep_selectivity);
    ("pipeline", report_pipeline);
    ("unique", report_unique);
    ("sweep-scale", report_sweep_scale);
    ("estimator", report_estimator);
    ("batch-sweep", report_batch_sweep);
    ("nway", report_nway);
    ("spill", report_spill);
  ]

let () =
  (* --seed is positional-independent; strip it first so every workload
     generator below sees it *)
  let rec strip_seed = function
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with
        | Some s -> seed := s
        | None ->
            Printf.eprintf "invalid --seed %s\n" n;
            exit 2);
        strip_seed rest
    | a :: rest -> a :: strip_seed rest
    | [] -> []
  in
  match strip_seed (List.tl (Array.to_list Sys.argv)) with
  | "--report" :: name :: _ -> (
      match List.assoc_opt name reports with
      | Some f -> exit (f ())
      | None ->
          Printf.eprintf "unknown report %s; available: %s\n" name
            (String.concat " " (List.map fst reports));
          exit 1)
  | "--micro" :: _ -> exit (run_micro ())
  | "--smoke" :: _ -> exit (report_smoke ())
  | "--json" :: rest ->
      let path =
        match rest with
        | p :: _ when String.length p > 0 && p.[0] <> '-' -> p
        | _ -> "BENCH_results.json"
      in
      exit (report_json path)
  | _ ->
      List.iter (fun (_, f) -> ignore (f ())) reports;
      ignore (run_micro ());
      ignore (report_json "BENCH_results.json")
