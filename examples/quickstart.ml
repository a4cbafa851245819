(* Quickstart: the paper's Example 1, end to end, through the SQL front end.

   Run with:  dune exec examples/quickstart.exe

   It creates the Employee/Department schema, loads a few rows, asks the
   optimizer whether COUNT-per-department may be grouped before the join
   (TestFD), shows both plans with costs, executes the chosen one and
   prints the result. *)

open Eager_schema
open Eager_storage
open Eager_exec
open Eager_core
open Eager_opt
open Eager_parser

let schema_sql =
  {|CREATE TABLE Department (
      DeptID INTEGER,
      Name   VARCHAR(30) NOT NULL,
      PRIMARY KEY (DeptID));
    CREATE TABLE Employee (
      EmpID     INTEGER,
      LastName  VARCHAR(30) NOT NULL,
      FirstName VARCHAR(30),
      DeptID    INTEGER,
      PRIMARY KEY (EmpID),
      FOREIGN KEY (DeptID) REFERENCES Department (DeptID));
    INSERT INTO Department VALUES
      (1, 'Research'), (2, 'Sales'), (3, 'Engineering');
    INSERT INTO Employee VALUES
      (1, 'Ada',   'A', 1), (2, 'Bell',  'B', 1), (3, 'Cray',  'C', 2),
      (4, 'Dunn',  'D', 2), (5, 'Evans', 'E', 2), (6, 'Floyd', 'F', NULL);|}

let query_sql =
  "SELECT D.DeptID, D.Name, COUNT(E.EmpID) AS emp_count \
   FROM Employee E, Department D \
   WHERE E.DeptID = D.DeptID \
   GROUP BY D.DeptID, D.Name"

let () =
  let db = Database.create () in
  (match Binder.run_script db schema_sql with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  print_endline "-- Example 1 (paper Section 1):";
  print_endline query_sql;
  print_newline ();

  (* bind the SQL and canonicalise it into the paper's query class *)
  let bound =
    match Binder.bind_select db (Parser.parse_select query_sql) with
    | Ok (Binder.Grouped input) -> input
    | Ok _ -> failwith "expected a grouped query"
    | Error msg -> failwith msg
  in
  let q = Canonical.of_input_exn db bound in

  (* is group-by-before-join valid?  (Main Theorem via TestFD) *)
  (match Testfd.test db q with
  | Testfd.Yes -> print_endline "TestFD: YES — the group-by may be pushed below the join"
  | Testfd.No r -> Printf.printf "TestFD: NO (%s)\n" r);

  (* let the cost-based planner pick a side *)
  let decision =
    match Planner.decide db q with
    | Ok d -> d
    | Error e -> failwith (Eager_robust.Err.to_string e)
  in
  print_newline ();
  print_string (Explain.text db decision);

  (* execute the chosen plan *)
  let heap, stats = Exec.run db decision.Planner.chosen in
  print_endline "\n-- executed plan with per-operator cardinalities:";
  print_endline (Optree.to_string stats);
  print_endline "-- result:";
  let schema = Heap.schema heap in
  Array.iter
    (fun (c, _) -> Printf.printf "%-14s" (Colref.to_string c))
    (Schema.cols schema);
  print_newline ();
  Heap.iter
    (fun row ->
      Array.iter
        (fun v -> Printf.printf "%-14s" (Eager_value.Value.to_string v))
        row;
      print_newline ())
    heap;
  (* sanity: both plans agree *)
  let rows_lazy =
    Exec.run_rows db (Planner.lazy_candidate decision).Placement.plan
  in
  Printf.printf "\nlazy plan agrees with the chosen plan: %b\n"
    (Exec.multiset_equal rows_lazy (Heap.to_list heap))
