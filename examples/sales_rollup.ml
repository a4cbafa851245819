(* Sales rollup: revenue per customer over a fact table 40× the dimension —
   the classic shape where eager aggregation shines — plus the HAVING and
   ORDER BY extensions, end to end through the SQL front end.

   Run with:  dune exec examples/sales_rollup.exe *)

open Eager_schema
open Eager_storage
open Eager_exec
open Eager_core
open Eager_opt
open Eager_workload

let () =
  let w = Sales.setup ~customers:200 ~orders:8_000 () in
  let db = w.Sales.db and q = w.Sales.query in

  print_endline "== revenue per customer (8000 orders, 200 customers) ==";
  print_endline (Format.asprintf "%a" Canonical.pp q);
  let d =
    match Planner.decide db q with
    | Ok d -> d
    | Error e -> failwith (Eager_robust.Err.to_string e)
  in
  Printf.printf "\nTestFD: %s\n" (Testfd.verdict_to_string d.Planner.verdict);
  Printf.printf "cost lazy (E1): %.0f   cost eager (E2): %s   chosen: %s\n"
    (Planner.lazy_candidate d).Placement.cost
    (match Planner.eager_candidate d with
    | Some p -> Printf.sprintf "%.0f" p.Placement.cost
    | None -> "-")
    (Placement.mode_to_string (Planner.chosen_candidate d).Placement.mode);

  (* run the chosen plan, top five customers by revenue *)
  let sorted =
    Eager_algebra.Plan.sort [ (Colref.make "" "revenue", true) ] d.Planner.chosen
  in
  let heap, _ = Exec.run db sorted in
  print_endline "\ntop customers by revenue:";
  List.iteri
    (fun i row -> if i < 5 then print_endline ("  " ^ Row.to_string row))
    (Heap.to_list heap);
  Printf.printf "(%d customers total)\n" (Heap.length heap);

  (* the HAVING variant: big customers only *)
  print_endline "\n== with HAVING revenue >= 15000 ==";
  let wh = Sales.setup ~customers:200 ~orders:8_000 ~revenue_at_least:15_000 () in
  let qh = wh.Sales.query and dbh = wh.Sales.db in
  (match Testfd.test dbh qh with
  | Testfd.Yes -> print_endline "TestFD: YES (HAVING does not affect validity)"
  | Testfd.No r -> Printf.printf "TestFD: NO (%s)\n" r);
  let rows_lazy = Exec.run_rows dbh (Plans.e1 dbh qh) in
  let rows_eager = Exec.run_rows dbh (Plans.e2 dbh qh) in
  Printf.printf "big customers: %d; eager and lazy agree: %b\n"
    (List.length rows_lazy)
    (Exec.multiset_equal rows_lazy rows_eager);

  (* unique-group detection: grouping the join by the order key would make
     every group a singleton — the optimizer can prove it *)
  let join_plan = Plans.side1 dbh qh in
  Printf.printf "\ngrouping orders by their primary key is provably singleton: %b\n"
    (Unique_group.groups_are_unique dbh
       ~by:[ Colref.make "O" "OrderID" ]
       join_plan)
