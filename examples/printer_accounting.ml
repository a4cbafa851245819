(* Printer accounting: the paper's Example 3 (Section 6.3) and Example 5
   (Section 8), on a generated workload.

   Run with:  dune exec examples/printer_accounting.exe

   Part 1 traces TestFD on the three-table query — partitioning into
   R1 = {PrinterAuth, Printer} and R2 = {UserAccount}, CNF/DNF, the
   transitive closure — and executes the rewritten query.

   Part 2 plays the query backwards as the paper's aggregated view
   UserInfo: "materialise the view, then join" is exactly plan E2, and the
   reverse transformation flattens it into "join everything, then group"
   (plan E1). *)

open Eager_exec
open Eager_core
open Eager_opt
open Eager_workload

let () =
  let w = Printers.setup ~users:400 ~machines:6 ~printers:30 () in
  let db = w.Printers.db and q = w.Printers.query in

  print_endline "== Part 1: Example 3 — TestFD walk-through ==";
  print_endline (Format.asprintf "%a" Canonical.pp q);
  let verdict, trace = Testfd.test_traced db q in
  Printf.printf "\nCNF clauses kept: %d, dropped: %d; DNF disjuncts: %d\n"
    trace.Testfd.clauses_kept trace.Testfd.clauses_dropped
    trace.Testfd.disjuncts;
  List.iter
    (fun (cols, r2_ok, ga1_ok) ->
      Printf.printf "closure S = {%s}\n  key(R2) ⊆ S: %b, GA1+ ⊆ S: %b\n"
        (String.concat ", " cols) r2_ok ga1_ok)
    trace.Testfd.closures;
  Printf.printf "verdict: %s\n\n" (Testfd.verdict_to_string verdict);

  print_endline "rewritten query (group PrinterAuth ⋈ Printer first):";
  print_endline (Eager_algebra.Plan.to_string (Plans.e2 db q));

  let rows = Exec.run_rows db (Plans.e2 db q) in
  Printf.printf "users on 'dragon': %d\n" (List.length rows);
  print_endline "first few rows (UserId, UserName, TotUsage, MaxSpeed, MinSpeed):";
  List.iteri
    (fun i row ->
      if i < 5 then print_endline ("  " ^ Eager_schema.Row.to_string row))
    rows;

  print_endline "\n== Part 2: Example 5 — the reverse transformation ==";
  print_endline "aggregated view UserInfo (what a straightforward plan materialises):";
  print_endline (Eager_algebra.Plan.to_string (Reverse.view_plan db q));
  (match Reverse.eligible db q with
  | Ok () ->
      print_endline
        "eligible: the optimizer may also flatten the view into the join"
  | Error r -> Printf.printf "not eligible: %s\n" r);
  let d =
    match Planner.decide db q with
    | Ok d -> d
    | Error e -> failwith (Eager_robust.Err.to_string e)
  in
  Printf.printf "cost, materialise-view strategy (E2): %s\n"
    (match Planner.eager_candidate d with
    | Some p -> Printf.sprintf "%.0f" p.Placement.cost
    | None -> "-");
  Printf.printf "cost, flattened strategy        (E1): %.0f\n"
    (Planner.lazy_candidate d).Placement.cost;
  Printf.printf "optimizer picks: %s\n"
    (Placement.mode_to_string (Planner.chosen_candidate d).Placement.mode);
  let rv = Exec.run_rows db (Reverse.plan_of db q Reverse.Materialize_view) in
  let rf = Exec.run_rows db (Reverse.plan_of db q Reverse.Flatten) in
  Printf.printf "both strategies return identical results: %b\n"
    (Exec.multiset_equal rv rf)
