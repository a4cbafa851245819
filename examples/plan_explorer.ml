(* Plan explorer: when is group-by-before-join actually a good idea?

   Run with:  dune exec examples/plan_explorer.exe -- [employees] [departments]

   Reproduces the paper's Section 7 discussion: the transformation never
   increases the join input, but it can inflate the group-by input — the
   Figure 8 counter-case.  This example sweeps the two knobs and prints,
   for each point, the estimated costs, the measured wall-clock of both
   plans, and the optimizer's choice. *)

open Eager_exec
open Eager_core
open Eager_opt
open Eager_workload

let time_ms f =
  let t0 = Sys.time () in
  let r = f () in
  (r, (Sys.time () -. t0) *. 1000.)

let describe db q =
  let d =
    match Planner.decide db q with
    | Ok d -> d
    | Error e -> failwith (Eager_robust.Err.to_string e)
  in
  let (_, t1) = time_ms (fun () -> Exec.run_rows db (Plans.e1 db q)) in
  let (_, t2) = time_ms (fun () -> Exec.run_rows db (Plans.e2 db q)) in
  (d, t1, t2)

let () =
  let employees =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 10_000
  in
  let departments =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 100
  in

  Printf.printf "== Example 1 shape: %d employees, %d departments ==\n"
    employees departments;
  let w = Employee_dept.setup ~employees ~departments () in
  let d, t1, t2 = describe w.Employee_dept.db w.Employee_dept.query in
  Printf.printf "E1 cost %.0f (%.1f ms)  E2 cost %s (%.1f ms)  -> %s\n"
    (Planner.lazy_candidate d).Placement.cost t1
    (match Planner.eager_candidate d with
    | Some p -> Printf.sprintf "%.0f" p.Placement.cost
    | None -> "-")
    t2
    (Placement.mode_to_string (Planner.chosen_candidate d).Placement.mode);

  Printf.printf "\n== Figure 8 shape: valid but disadvantageous ==\n";
  let c = Contrived.setup () in
  let d, t1, t2 = describe c.Contrived.db c.Contrived.query in
  Printf.printf "E1 cost %.0f (%.1f ms)  E2 cost %s (%.1f ms)  -> %s\n"
    (Planner.lazy_candidate d).Placement.cost t1
    (match Planner.eager_candidate d with
    | Some p -> Printf.sprintf "%.0f" p.Placement.cost
    | None -> "-")
    t2
    (Placement.mode_to_string (Planner.chosen_candidate d).Placement.mode);

  Printf.printf "\n== Fan-in sweep (employees fixed at %d) ==\n" employees;
  Printf.printf "%12s %12s %12s %10s %10s  %s\n" "rows/group" "cost E1"
    "cost E2" "E1 ms" "E2 ms" "choice";
  List.iter
    (fun p ->
      let d, t1, t2 = describe p.Sweep.db p.Sweep.query in
      Printf.printf "%12.1f %12.0f %12.0f %10.1f %10.1f  %s\n" p.Sweep.knob
        (Planner.lazy_candidate d).Placement.cost
        (match Planner.eager_candidate d with
        | Some p -> p.Placement.cost
        | None -> nan)
        t1 t2
        (match (Planner.chosen_candidate d).Placement.mode with
        | Placement.Eager_full -> "E2"
        | Placement.Eager_partial -> "E2p"
        | Placement.Lazy -> "E1"))
    (Sweep.by_fanin ~employees ~departments:[ 10; 100; 1000; employees ] ());

  Printf.printf "\n== Selectivity sweep (%d employees, %d departments) ==\n"
    employees departments;
  Printf.printf "%12s %12s %12s %10s %10s  %s\n" "match frac" "cost E1"
    "cost E2" "E1 ms" "E2 ms" "choice";
  List.iter
    (fun p ->
      let d, t1, t2 = describe p.Sweep.db p.Sweep.query in
      Printf.printf "%12.2f %12.0f %12.0f %10.1f %10.1f  %s\n" p.Sweep.knob
        (Planner.lazy_candidate d).Placement.cost
        (match Planner.eager_candidate d with
        | Some p -> p.Placement.cost
        | None -> nan)
        t1 t2
        (match (Planner.chosen_candidate d).Placement.mode with
        | Placement.Eager_full -> "E2"
        | Placement.Eager_partial -> "E2p"
        | Placement.Lazy -> "E1"))
    (Sweep.by_selectivity ~employees ~departments
       ~fractions:[ 0.01; 0.1; 0.5; 1.0 ] ())
