(* Core tests: the canonical query class (Section 3), the E1/E2 plan
   builders, algorithm TestFD on the paper's own examples (Sections 6.3, 8),
   the exact instance-level Main-Theorem conditions, and the reverse
   transformation. *)

open Eager_value
open Eager_schema
open Eager_expr
open Eager_catalog
open Eager_storage
open Eager_algebra
open Eager_core

let cr = Colref.make
let i n = Value.Int n

let coldef name ctype : Table_def.column_def =
  { Table_def.cname = name; ctype; domain = None }

(* ------------------------------------------------------------------ *)
(* The printer database of Example 3, tiny instance *)

let printer_db () =
  let db = Database.create () in
  Database.create_table db
    (Table_def.make "UserAccount"
       [ coldef "UserId" Ctype.Int; coldef "Machine" Ctype.String;
         coldef "UserName" Ctype.String ]
       [ Constr.Primary_key [ "UserId"; "Machine" ] ]);
  Database.create_table db
    (Table_def.make "Printer"
       [ coldef "PNo" Ctype.Int; coldef "Speed" Ctype.Int;
         coldef "Make" Ctype.String ]
       [ Constr.Primary_key [ "PNo" ] ]);
  Database.create_table db
    (Table_def.make "PrinterAuth"
       [ coldef "UserId" Ctype.Int; coldef "Machine" Ctype.String;
         coldef "PNo" Ctype.Int; coldef "Usage" Ctype.Int ]
       [ Constr.Primary_key [ "UserId"; "Machine"; "PNo" ] ]);
  Database.load db "UserAccount"
    [ [ i 1; Value.Str "dragon"; Value.Str "ann" ];
      [ i 2; Value.Str "dragon"; Value.Str "bob" ];
      [ i 1; Value.Str "tiger"; Value.Str "ann2" ] ];
  Database.load db "Printer"
    [ [ i 1; i 10; Value.Str "HP" ]; [ i 2; i 30; Value.Str "Canon" ] ];
  Database.load db "PrinterAuth"
    [ [ i 1; Value.Str "dragon"; i 1; i 100 ];
      [ i 1; Value.Str "dragon"; i 2; i 50 ];
      [ i 2; Value.Str "dragon"; i 2; i 70 ];
      [ i 1; Value.Str "tiger"; i 1; i 10 ] ];
  db

let printer_query db : Canonical.t =
  Canonical.of_input_exn db
    {
      Canonical.sources =
        [
          { Canonical.table = "UserAccount"; rel = "U" };
          { Canonical.table = "PrinterAuth"; rel = "A" };
          { Canonical.table = "Printer"; rel = "P" };
        ];
      where =
        Expr.conj
          [
            Expr.eq (Expr.col "U" "UserId") (Expr.col "A" "UserId");
            Expr.eq (Expr.col "U" "Machine") (Expr.col "A" "Machine");
            Expr.eq (Expr.col "A" "PNo") (Expr.col "P" "PNo");
            Expr.eq (Expr.col "U" "Machine") (Expr.str "dragon");
          ];
      group_by = [ cr "U" "UserId"; cr "U" "UserName" ];
      select_cols = [ cr "U" "UserId"; cr "U" "UserName" ];
      select_aggs =
        [
          Agg.sum (cr "" "TotUsage") (Expr.col "A" "Usage");
          Agg.max_ (cr "" "MaxSpeed") (Expr.col "P" "Speed");
          Agg.min_ (cr "" "MinSpeed") (Expr.col "P" "Speed");
        ];
      select_distinct = false;
      select_having = None;
      r1_hint = [];
    }

(* ------------------------------------------------------------------ *)
(* Employee / Department (Example 1), tiny instance *)

let emp_db () =
  let db = Database.create () in
  Database.create_table db
    (Table_def.make "Department"
       [ coldef "DeptID" Ctype.Int; coldef "Name" Ctype.String ]
       [ Constr.Primary_key [ "DeptID" ] ]);
  Database.create_table db
    (Table_def.make "Employee"
       [ coldef "EmpID" Ctype.Int; coldef "DeptID" Ctype.Int ]
       [ Constr.Primary_key [ "EmpID" ] ]);
  Database.load db "Department"
    [ [ i 1; Value.Str "R" ]; [ i 2; Value.Str "S" ]; [ i 3; Value.Str "E" ] ];
  Database.load db "Employee"
    [ [ i 1; i 1 ]; [ i 2; i 1 ]; [ i 3; i 2 ]; [ i 4; Value.Null ] ];
  db

let emp_input ?(group_by = [ cr "D" "DeptID"; cr "D" "Name" ])
    ?(select_cols = [ cr "D" "DeptID"; cr "D" "Name" ]) () : Canonical.input =
  {
    Canonical.sources =
      [
        { Canonical.table = "Employee"; rel = "E" };
        { Canonical.table = "Department"; rel = "D" };
      ];
    where = Expr.eq (Expr.col "E" "DeptID") (Expr.col "D" "DeptID");
    group_by;
    select_cols;
    select_aggs = [ Agg.count (cr "" "n") (Expr.col "E" "EmpID") ];
    select_distinct = false;
    select_having = None;
    r1_hint = [];
  }

(* ------------------------------------------------------------------ *)
(* canonicalization *)

let test_canonical_partition_ex1 () =
  let db = emp_db () in
  let q = Canonical.of_input_exn db (emp_input ()) in
  Alcotest.(check (list string)) "R1 = Employee" [ "E" ]
    (List.map (fun s -> s.Canonical.rel) q.Canonical.r1);
  Alcotest.(check (list string)) "R2 = Department" [ "D" ]
    (List.map (fun s -> s.Canonical.rel) q.Canonical.r2);
  Alcotest.(check int) "C0 has the join predicate" 1 (List.length q.Canonical.c0);
  Alcotest.(check int) "C1 empty" 0 (List.length q.Canonical.c1);
  Alcotest.(check (list string)) "GA1+ = E.DeptID" [ "E.DeptID" ]
    (List.map Colref.to_string (Canonical.ga1_plus q));
  Alcotest.(check (list string)) "GA2+ = D.DeptID, D.Name"
    [ "D.DeptID"; "D.Name" ]
    (List.map Colref.to_string (Canonical.ga2_plus q))

let test_canonical_partition_ex3 () =
  (* the paper: R1 = (A, P), R2 = (U); C1 = A.PNo=P.PNo; C2 = Machine='dragon' *)
  let db = printer_db () in
  let q = printer_query db in
  Alcotest.(check (list string)) "R1 = A, P" [ "A"; "P" ]
    (List.sort compare (List.map (fun s -> s.Canonical.rel) q.Canonical.r1));
  Alcotest.(check (list string)) "R2 = U" [ "U" ]
    (List.map (fun s -> s.Canonical.rel) q.Canonical.r2);
  Alcotest.(check int) "C1: A.PNo = P.PNo" 1 (List.length q.Canonical.c1);
  Alcotest.(check int) "C0: two join predicates" 2 (List.length q.Canonical.c0);
  Alcotest.(check int) "C2: machine filter" 1 (List.length q.Canonical.c2);
  Alcotest.(check (list string)) "GA1+ = A.UserId, A.Machine"
    [ "A.Machine"; "A.UserId" ]
    (List.sort compare (List.map Colref.to_string (Canonical.ga1_plus q)));
  Alcotest.(check (list string)) "GA2+ = U.UserId, U.UserName, U.Machine"
    [ "U.Machine"; "U.UserId"; "U.UserName" ]
    (List.sort compare (List.map Colref.to_string (Canonical.ga2_plus q)))

let test_canonical_errors () =
  let db = emp_db () in
  let err input =
    match Canonical.of_input db input with
    | Ok _ -> Alcotest.fail "expected canonicalization error"
    | Error msg -> msg
  in
  (* no grouping columns *)
  ignore (err (emp_input ~group_by:[] ~select_cols:[] ()));
  (* selection column not a grouping column *)
  ignore (err (emp_input ~select_cols:[ cr "D" "DeptID"; cr "E" "DeptID" ] ()));
  (* unknown grouping column *)
  ignore (err (emp_input ~group_by:[ cr "X" "y" ] ()));
  (* aggregation columns on every table: no partition *)
  let bad =
    {
      (emp_input ()) with
      Canonical.select_aggs =
        [
          Agg.count (cr "" "n1") (Expr.col "E" "EmpID");
          Agg.count (cr "" "n2") (Expr.col "D" "Name");
        ];
    }
  in
  ignore (err bad);
  (* duplicate range variables *)
  let dup =
    {
      (emp_input ()) with
      Canonical.sources =
        [
          { Canonical.table = "Employee"; rel = "E" };
          { Canonical.table = "Department"; rel = "E" };
        ];
    }
  in
  ignore (err dup)

let test_r1_hint_for_count_star () =
  let db = emp_db () in
  let input =
    {
      (emp_input ()) with
      Canonical.select_aggs = [ Agg.count_star (cr "" "n") ];
      r1_hint = [ "E" ];
    }
  in
  let q = Canonical.of_input_exn db input in
  Alcotest.(check (list string)) "hint forces E to R1" [ "E" ]
    (List.map (fun s -> s.Canonical.rel) q.Canonical.r1)

(* ------------------------------------------------------------------ *)
(* plans *)

let test_plan_shapes () =
  let db = emp_db () in
  let q = Canonical.of_input_exn db (emp_input ()) in
  let e1 = Plans.e1 db q and e2 = Plans.e2 db q in
  (* E1: Project over Group over Join *)
  (match e1 with
  | Plan.Project { input = Plan.Group { input = Plan.Join _; by; _ }; _ } ->
      (* Example 1 groups only on the D side: GA1 = ∅, GA2 = {DeptID, Name} *)
      Alcotest.(check int) "E1 groups on GA1∪GA2" 2 (List.length by)
  | _ -> Alcotest.fail "unexpected E1 shape");
  (* E2: Project over Join over (Group, Project) *)
  (match e2 with
  | Plan.Project
      {
        input =
          Plan.Join { left = Plan.Group { by; _ }; right = Plan.Project _; _ };
        _;
      } ->
      Alcotest.(check (list string)) "E2 groups on GA1+" [ "E.DeptID" ]
        (List.map Colref.to_string by)
  | _ -> Alcotest.fail "unexpected E2 shape");
  (* both have the same output schema *)
  Alcotest.(check string) "same output schema"
    (Format.asprintf "%a" Schema.pp (Plan.schema_of e1))
    (Format.asprintf "%a" Schema.pp (Plan.schema_of e2))

let test_join_tree_multi_table_side () =
  let db = printer_db () in
  let q = printer_query db in
  (* side1 = A ⋈ P with the C1 conjunct as the join predicate *)
  match Plans.side1 db q with
  | Plan.Join { pred; _ } ->
      Alcotest.(check string) "C1 becomes the side join" "A.PNo = P.PNo"
        (Expr.to_string pred)
  | _ -> Alcotest.fail "expected a join tree on the R1 side"

(* ------------------------------------------------------------------ *)
(* TestFD *)

let test_testfd_ex1_yes () =
  let db = emp_db () in
  let q = Canonical.of_input_exn db (emp_input ()) in
  match Testfd.test db q with
  | Testfd.Yes -> ()
  | Testfd.No r -> Alcotest.fail ("Example 1 must be transformable: " ^ r)

let test_testfd_ex3_yes_with_trace () =
  let db = printer_db () in
  let q = printer_query db in
  let verdict, trace = Testfd.test_traced db q in
  (match verdict with
  | Testfd.Yes -> ()
  | Testfd.No r -> Alcotest.fail ("Example 3 must be transformable: " ^ r));
  Alcotest.(check int) "single disjunct" 1 trace.Testfd.disjuncts;
  match trace.Testfd.closures with
  | [ (cols, r2_ok, ga1_ok) ] ->
      Alcotest.(check bool) "key of U in closure" true r2_ok;
      Alcotest.(check bool) "GA1+ in closure" true ga1_ok;
      (* the paper's Step (c): closure contains A.UserId, A.Machine,
         U.UserName, U.Machine, U.UserId *)
      List.iter
        (fun c ->
          Alcotest.(check bool) (c ^ " in closure") true (List.mem c cols))
        [ "A.UserId"; "A.Machine"; "U.UserName"; "U.Machine"; "U.UserId" ]
  | _ -> Alcotest.fail "expected one closure record"

let test_testfd_no_nonkey_grouping () =
  (* group by D.Name (not a key): FD2 not derivable *)
  let db = emp_db () in
  let q =
    Canonical.of_input_exn db
      (emp_input ~group_by:[ cr "D" "Name" ] ~select_cols:[ cr "D" "Name" ] ())
  in
  match Testfd.test db q with
  | Testfd.No _ -> ()
  | Testfd.Yes -> Alcotest.fail "grouping on a non-key must be rejected"

let test_testfd_no_on_inequality_join () =
  let db = emp_db () in
  let input =
    {
      (emp_input ()) with
      Canonical.where =
        Expr.Cmp (Expr.Le, Expr.col "E" "DeptID", Expr.col "D" "DeptID");
    }
  in
  let q = Canonical.of_input_exn db input in
  match Testfd.test db q with
  | Testfd.No _ -> ()
  | Testfd.Yes -> Alcotest.fail "inequality join must be rejected"

let test_testfd_strict_vs_relaxed () =
  (* no WHERE at all, but GA2 ⊇ key(Department): the relaxed mode can still
     derive FD2 from the key constraint; the paper's literal algorithm
     (strict) answers NO because no equality conditions remain. *)
  let db = emp_db () in
  let input =
    { (emp_input ()) with Canonical.where = Expr.etrue }
  in
  let q = Canonical.of_input_exn db input in
  (match Testfd.test ~strict:false db q with
  | Testfd.Yes -> ()
  | Testfd.No r -> Alcotest.fail ("relaxed mode should accept: " ^ r));
  match Testfd.test ~strict:true db q with
  | Testfd.No _ -> ()
  | Testfd.Yes -> Alcotest.fail "strict mode must refuse the empty condition"

let test_testfd_disjunction () =
  (* (E.DeptID = D.DeptID) AND (D.DeptID = 1 OR D.DeptID = 2):
     both disjuncts keep the key-equality, so YES *)
  let db = emp_db () in
  let input =
    {
      (emp_input ()) with
      Canonical.where =
        Expr.And
          ( Expr.eq (Expr.col "E" "DeptID") (Expr.col "D" "DeptID"),
            Expr.Or
              ( Expr.eq (Expr.col "D" "DeptID") (Expr.int 1),
                Expr.eq (Expr.col "D" "DeptID") (Expr.int 2) ) );
    }
  in
  let q = Canonical.of_input_exn db input in
  let verdict, trace = Testfd.test_traced db q in
  (match verdict with
  | Testfd.Yes -> ()
  | Testfd.No r -> Alcotest.fail ("disjunction case should pass: " ^ r));
  Alcotest.(check int) "two disjuncts examined" 2 trace.Testfd.disjuncts

let test_testfd_host_variable () =
  (* Machine = :m — host variables count as constants (Type 1).  The query
     is Example 3 with the literal 'dragon' replaced by a parameter; the
     aggregates must stay as in the paper so that both A and P remain on
     the R1 side. *)
  let db = printer_db () in
  let input =
    {
      Canonical.sources =
        [
          { Canonical.table = "UserAccount"; rel = "U" };
          { Canonical.table = "PrinterAuth"; rel = "A" };
          { Canonical.table = "Printer"; rel = "P" };
        ];
      Canonical.where =
        Expr.conj
          [
            Expr.eq (Expr.col "U" "UserId") (Expr.col "A" "UserId");
            Expr.eq (Expr.col "U" "Machine") (Expr.col "A" "Machine");
            Expr.eq (Expr.col "A" "PNo") (Expr.col "P" "PNo");
            Expr.eq (Expr.col "U" "Machine") (Expr.Param "m");
          ];
      group_by = [ cr "U" "UserId"; cr "U" "UserName" ];
      select_cols = [ cr "U" "UserId"; cr "U" "UserName" ];
      select_aggs =
        [
          Agg.sum (cr "" "TotUsage") (Expr.col "A" "Usage");
          Agg.max_ (cr "" "MaxSpeed") (Expr.col "P" "Speed");
        ];
      select_distinct = false;
      select_having = None;
      r1_hint = [];
    }
  in
  let q = Canonical.of_input_exn db input in
  (match Testfd.test db q with
  | Testfd.Yes -> ()
  | Testfd.No r -> Alcotest.fail ("host variable should work: " ^ r));
  (* and it executes correctly once the parameter is supplied *)
  let params name = if name = "m" then Value.Str "dragon" else Value.Null in
  Alcotest.(check bool) "parameterised query equivalent" true
    (Theorem.equivalent ~params db q)

(* Without the printer-side aggregates the partition changes (P moves to
   R2), GA1+ gains A.PNo, and FD1 genuinely fails: TestFD must say NO. *)
let test_testfd_partition_sensitivity () =
  let db = printer_db () in
  let input =
    {
      Canonical.sources =
        [
          { Canonical.table = "UserAccount"; rel = "U" };
          { Canonical.table = "PrinterAuth"; rel = "A" };
          { Canonical.table = "Printer"; rel = "P" };
        ];
      Canonical.where =
        Expr.conj
          [
            Expr.eq (Expr.col "U" "UserId") (Expr.col "A" "UserId");
            Expr.eq (Expr.col "U" "Machine") (Expr.col "A" "Machine");
            Expr.eq (Expr.col "A" "PNo") (Expr.col "P" "PNo");
          ];
      group_by = [ cr "U" "UserId"; cr "U" "UserName" ];
      select_cols = [ cr "U" "UserId"; cr "U" "UserName" ];
      select_aggs = [ Agg.sum (cr "" "TotUsage") (Expr.col "A" "Usage") ];
      select_distinct = false;
      select_having = None;
      r1_hint = [];
    }
  in
  let q = Canonical.of_input_exn db input in
  Alcotest.(check (list string)) "P lands on R2" [ "P"; "U" ]
    (List.sort compare (List.map (fun s -> s.Canonical.rel) q.Canonical.r2));
  match Testfd.test db q with
  | Testfd.No _ -> ()
  | Testfd.Yes -> Alcotest.fail "FD1 is not derivable here; must answer NO"

(* Regression: a nullable UNIQUE key must NOT be trusted as a key
   dependency.  SQL2 enforces UNIQUE with "NULL ≠ NULL", so two rows that
   are =ⁿ-equivalent on the key (both NULL) may coexist and differ
   elsewhere — the paper's Section 4.3 key dependency fails for such keys,
   and TestFD built on it would wrongly answer YES (there is a concrete
   E1 ≠ E2 instance below). *)
let test_nullable_unique_key_unsound () =
  let db = Database.create () in
  Database.create_table db
    (Table_def.make "S"
       [ coldef "x" Ctype.Int; coldef "y" Ctype.Int ]
       [ Constr.Unique [ "x" ] ]);
  Database.create_table db
    (Table_def.make "R" [ coldef "a" Ctype.Int; coldef "v" Ctype.Int ] []);
  Database.load db "S" [ [ Value.Null; i 1 ]; [ Value.Null; i 2 ] ];
  Database.load db "R" [ [ i 7; i 5 ] ];
  let q =
    Canonical.of_input_exn db
      {
        Canonical.sources =
          [ { Canonical.table = "R"; rel = "R" };
            { Canonical.table = "S"; rel = "S" } ];
        where = Expr.etrue;
        group_by = [ cr "S" "x" ];
        select_cols = [ cr "S" "x" ];
        select_aggs = [ Agg.sum (cr "" "sv") (Expr.col "R" "v") ];
        select_distinct = false;
        select_having = None;
        r1_hint = [ "R" ];
      }
  in
  (* the two NULL-key S rows fall into one group in E1 but stay two rows
     in E2 — the transformation is invalid *)
  let chk = Theorem.check db q in
  Alcotest.(check bool) "FD2 fails" false chk.Theorem.fd2;
  Alcotest.(check bool) "E1 ≠ E2" false (Theorem.equivalent db q);
  (match Testfd.test db q with
  | Testfd.No _ -> ()
  | Testfd.Yes -> Alcotest.fail "TestFD must not trust a nullable UNIQUE key");
  (* declaring the column NOT NULL restores the key dependency *)
  let db2 = Database.create () in
  Database.create_table db2
    (Table_def.make "S"
       [ coldef "x" Ctype.Int; coldef "y" Ctype.Int ]
       [ Constr.Unique [ "x" ]; Constr.Not_null "x" ]);
  let td = Option.get (Catalog.find_table (Database.catalog db2) "S") in
  Alcotest.(check int) "NOT NULL UNIQUE key is reliable" 1
    (List.length (Eager_fd.From_catalog.key_sets ~rel:"S" td))

(* ------------------------------------------------------------------ *)
(* Theorem: exact instance checks *)

let test_theorem_ex1 () =
  let db = emp_db () in
  let q = Canonical.of_input_exn db (emp_input ()) in
  let c = Theorem.check db q in
  Alcotest.(check bool) "FD1 holds" true c.Theorem.fd1;
  Alcotest.(check bool) "FD2 holds" true c.Theorem.fd2;
  Alcotest.(check bool) "E1 ≡ E2 on the instance" true (Theorem.equivalent db q)

let test_theorem_fd_violation () =
  (* group by D.Name where two departments share a name: with GA1 = ∅ and
     GA1+ = {E.DeptID}, FD1 ((D.Name) → E.DeptID) fails on the instance
     and the expressions differ *)
  let db = Database.create () in
  Database.create_table db
    (Table_def.make "Department"
       [ coldef "DeptID" Ctype.Int; coldef "Name" Ctype.String ]
       [ Constr.Primary_key [ "DeptID" ] ]);
  Database.create_table db
    (Table_def.make "Employee"
       [ coldef "EmpID" Ctype.Int; coldef "DeptID" Ctype.Int ]
       [ Constr.Primary_key [ "EmpID" ] ]);
  Database.load db "Department"
    [ [ i 1; Value.Str "Same" ]; [ i 2; Value.Str "Same" ] ];
  Database.load db "Employee" [ [ i 1; i 1 ]; [ i 2; i 2 ] ];
  let q =
    Canonical.of_input_exn db
      (emp_input ~group_by:[ cr "D" "Name" ] ~select_cols:[ cr "D" "Name" ] ())
  in
  let c = Theorem.check db q in
  Alcotest.(check bool) "FD1 fails on this instance" false c.Theorem.fd1;
  Alcotest.(check bool) "E1 and E2 differ" false (Theorem.equivalent db q);
  (* and TestFD correctly refuses *)
  match Testfd.test db q with
  | Testfd.No _ -> ()
  | Testfd.Yes -> Alcotest.fail "TestFD must reject"

let test_theorem_join_provenance () =
  let db = emp_db () in
  let q = Canonical.of_input_exn db (emp_input ()) in
  let tagged = Theorem.join_with_provenance db q in
  (* 3 employees join (the NULL one does not) *)
  Alcotest.(check int) "join cardinality" 3 (List.length tagged);
  List.iter
    (fun (_, i2) ->
      Alcotest.(check bool) "provenance in range" true (i2 >= 0 && i2 < 3))
    tagged

(* TestFD soundness versus the exact conditions, on the paper examples *)
let test_testfd_implies_instance_fds () =
  let cases =
    [
      (fun () ->
        let db = emp_db () in
        (db, Canonical.of_input_exn db (emp_input ())));
      (fun () ->
        let db = printer_db () in
        (db, printer_query db));
    ]
  in
  List.iter
    (fun mk ->
      let db, q = mk () in
      match Testfd.test db q with
      | Testfd.Yes ->
          let c = Theorem.check db q in
          Alcotest.(check bool) "YES implies FD1" true c.Theorem.fd1;
          Alcotest.(check bool) "YES implies FD2" true c.Theorem.fd2;
          Alcotest.(check bool) "YES implies equivalence" true
            (Theorem.equivalent db q)
      | Testfd.No _ -> Alcotest.fail "expected YES on paper example")
    cases

(* ------------------------------------------------------------------ *)
(* Example 3 numeric result — grounded end-to-end check *)

let test_printer_query_results () =
  let db = printer_db () in
  let q = printer_query db in
  let rows = Eager_exec.Exec.run_rows db (Plans.e2 db q) in
  (* users on dragon: ann (usage 150, speeds {10,30}), bob (70, {30}) *)
  let sorted =
    List.sort compare (List.map Row.to_string rows)
  in
  Alcotest.(check (list string)) "Example 3 answer"
    [ "(1, 'ann', 150, 30, 10)"; "(2, 'bob', 70, 30, 30)" ]
    sorted;
  Alcotest.(check bool) "E1 agrees" true (Theorem.equivalent db q)

(* Theorem 2: SGA ⊂ GA with a DISTINCT projection — the conditions remain
   sufficient *)
let test_theorem2_distinct_subset () =
  let db = emp_db () in
  let q =
    Canonical.of_input_exn db
      {
        (emp_input ()) with
        Canonical.select_cols = [ cr "D" "Name" ] (* drop DeptID: SGA ⊂ GA *);
        select_distinct = true;
      }
  in
  (match Testfd.test db q with
  | Testfd.Yes -> ()
  | Testfd.No r -> Alcotest.fail r);
  Alcotest.(check bool) "Theorem 2 equivalence" true (Theorem.equivalent db q);
  (* both plans project DISTINCT *)
  (match Plans.e1 db q, Plans.e2 db q with
  | Plan.Project { dedup = true; _ }, Plan.Project { dedup = true; _ } -> ()
  | _ -> Alcotest.fail "expected DISTINCT projections");
  (* the projection really is narrower than the grouping *)
  let rows = Eager_exec.Exec.run_rows db (Plans.e2 db q) in
  Alcotest.(check bool) "rows have 2 columns (Name + count)" true
    (List.for_all (fun r -> Array.length r = 2) rows)

let test_reverse_ineligible () =
  let db = emp_db () in
  let q =
    Canonical.of_input_exn db
      (emp_input ~group_by:[ cr "D" "Name" ] ~select_cols:[ cr "D" "Name" ] ())
  in
  match Reverse.eligible db q with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-key grouping must not be reversible"

(* ------------------------------------------------------------------ *)
(* predicate expansion (Example 3 closing remark) *)

let test_predicate_expansion () =
  let db = printer_db () in
  let q = printer_query db in
  (* exactly one derivable binding: A.Machine = 'dragon' through
     U.Machine = A.Machine ∧ U.Machine = 'dragon' *)
  Alcotest.(check int) "one derived atom" 1 (Expand.derived_count q);
  let q' = Expand.query q in
  Alcotest.(check int) "C1 gained the binding" 2 (List.length q'.Canonical.c1);
  Alcotest.(check bool) "idempotent" true (Expand.derived_count q' = 0);
  (* results unchanged on both plans *)
  let rows p = Eager_exec.Exec.run_rows db p in
  Alcotest.(check bool) "E1 unchanged" true
    (Eager_exec.Exec.multiset_equal (rows (Plans.e1 db q)) (rows (Plans.e1 db q')));
  Alcotest.(check bool) "E2 unchanged" true
    (Eager_exec.Exec.multiset_equal (rows (Plans.e2 db q)) (rows (Plans.e2 db q')));
  (* ... but the eager grouping consumes fewer rows: only dragon's auth
     rows (3) instead of all joined auth rows (4) *)
  let group_input plan =
    let _, st = Eager_exec.Exec.run db plan in
    match Eager_exec.Optree.find ~prefix:"GroupBy" st with
    | Some node -> List.hd (Eager_exec.Optree.in_rows node)
    | None -> Alcotest.fail "no group node"
  in
  let before = group_input (Plans.e2 db q) in
  let after = group_input (Plans.e2 db q') in
  Alcotest.(check bool)
    (Printf.sprintf "grouped input shrinks (%d -> %d)" before after)
    true (after < before);
  (* TestFD still accepts the expanded query *)
  (match Testfd.test db q' with
  | Testfd.Yes -> ()
  | Testfd.No r -> Alcotest.fail r);
  (* nothing derivable on Example 1 *)
  let db1 = emp_db () in
  let q1 = Canonical.of_input_exn db1 (emp_input ()) in
  Alcotest.(check int) "Example 1: nothing to derive" 0 (Expand.derived_count q1)

let test_predicate_expansion_host_variable () =
  let db = printer_db () in
  let q0 = printer_query db in
  (* same query with a host variable instead of the literal *)
  let input =
    {
      Canonical.sources =
        [
          { Canonical.table = "UserAccount"; rel = "U" };
          { Canonical.table = "PrinterAuth"; rel = "A" };
          { Canonical.table = "Printer"; rel = "P" };
        ];
      where =
        Expr.conj
          [
            Expr.eq (Expr.col "U" "UserId") (Expr.col "A" "UserId");
            Expr.eq (Expr.col "U" "Machine") (Expr.col "A" "Machine");
            Expr.eq (Expr.col "A" "PNo") (Expr.col "P" "PNo");
            Expr.eq (Expr.col "U" "Machine") (Expr.Param "m");
          ];
      group_by = [ cr "U" "UserId"; cr "U" "UserName" ];
      select_cols = [ cr "U" "UserId"; cr "U" "UserName" ];
      select_aggs = q0.Canonical.aggs;
      select_distinct = false;
      select_having = None;
      r1_hint = [];
    }
  in
  let q = Canonical.of_input_exn db input in
  Alcotest.(check int) "host variable propagates" 1 (Expand.derived_count q);
  let q' = Expand.query q in
  let params name = if name = "m" then Value.Str "dragon" else Value.Null in
  let rows p =
    Eager_exec.Exec.run_rows
      ~options:{ Eager_exec.Exec.default_options with params }
      db p
  in
  Alcotest.(check bool) "parameterised expansion sound" true
    (Eager_exec.Exec.multiset_equal (rows (Plans.e2 db q)) (rows (Plans.e2 db q')))

(* ------------------------------------------------------------------ *)
(* Section 8: reverse transformation *)

let test_reverse () =
  let db = printer_db () in
  let q = printer_query db in
  (match Reverse.eligible db q with
  | Ok () -> ()
  | Error r -> Alcotest.fail ("Example 5 must be eligible: " ^ r));
  (* the view plan is the R1' sub-plan: grouped on GA1+ *)
  (match Reverse.view_plan db q with
  | Plan.Group { by; _ } ->
      Alcotest.(check (list string)) "view grouped on GA1+"
        [ "A.Machine"; "A.UserId" ]
        (List.sort compare (List.map Colref.to_string by))
  | _ -> Alcotest.fail "expected the aggregated view plan");
  (* both strategies compute the same result *)
  let r_view =
    Eager_exec.Exec.run_rows db (Reverse.plan_of db q Reverse.Materialize_view)
  in
  let r_flat = Eager_exec.Exec.run_rows db (Reverse.plan_of db q Reverse.Flatten) in
  Alcotest.(check bool) "strategies agree" true
    (Eager_exec.Exec.multiset_equal r_view r_flat)

let () =
  Alcotest.run "core"
    [
      ( "canonical",
        [
          Alcotest.test_case "Example 1 partition" `Quick
            test_canonical_partition_ex1;
          Alcotest.test_case "Example 3 partition" `Quick
            test_canonical_partition_ex3;
          Alcotest.test_case "errors" `Quick test_canonical_errors;
          Alcotest.test_case "r1_hint for COUNT(*)" `Quick
            test_r1_hint_for_count_star;
        ] );
      ( "plans",
        [
          Alcotest.test_case "E1/E2 shapes" `Quick test_plan_shapes;
          Alcotest.test_case "multi-table side" `Quick
            test_join_tree_multi_table_side;
        ] );
      ( "testfd",
        [
          Alcotest.test_case "Example 1: YES" `Quick test_testfd_ex1_yes;
          Alcotest.test_case "Example 3: YES + trace" `Quick
            test_testfd_ex3_yes_with_trace;
          Alcotest.test_case "non-key grouping: NO" `Quick
            test_testfd_no_nonkey_grouping;
          Alcotest.test_case "inequality join: NO" `Quick
            test_testfd_no_on_inequality_join;
          Alcotest.test_case "strict vs relaxed" `Quick
            test_testfd_strict_vs_relaxed;
          Alcotest.test_case "disjunctive condition" `Quick
            test_testfd_disjunction;
          Alcotest.test_case "host variables" `Quick test_testfd_host_variable;
          Alcotest.test_case "partition sensitivity" `Quick
            test_testfd_partition_sensitivity;
          Alcotest.test_case "nullable UNIQUE keys are unreliable" `Quick
            test_nullable_unique_key_unsound;
        ] );
      ( "theorem",
        [
          Alcotest.test_case "Example 1 conditions" `Quick test_theorem_ex1;
          Alcotest.test_case "FD violation detected" `Quick
            test_theorem_fd_violation;
          Alcotest.test_case "join provenance" `Quick test_theorem_join_provenance;
          Alcotest.test_case "TestFD soundness" `Quick
            test_testfd_implies_instance_fds;
          Alcotest.test_case "Theorem 2 (DISTINCT subset)" `Quick
            test_theorem2_distinct_subset;
          Alcotest.test_case "reverse ineligible" `Quick test_reverse_ineligible;
        ] );
      ( "expansion",
        [
          Alcotest.test_case "Example 3 binding derived" `Quick
            test_predicate_expansion;
          Alcotest.test_case "host variables propagate" `Quick
            test_predicate_expansion_host_variable;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "Example 3 numbers" `Quick test_printer_query_results;
          Alcotest.test_case "reverse transformation" `Quick test_reverse;
        ] );
    ]
