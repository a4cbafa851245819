(* Persistence tests: DDL regeneration, CSV round trips, fidelity of values
   and constraints after reload. *)

open Eager_value
open Eager_storage
open Eager_exec
open Eager_core
open Eager_parser
open Eager_robust
open Eager_workload

let tmpdir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  dir

let heaps_equal a b table =
  Exec.multiset_equal
    (Heap.to_list (Database.heap a table))
    (Heap.to_list (Database.heap b table))

let test_round_trip_workload () =
  let w = Printers.setup ~users:80 ~machines:4 ~printers:12 () in
  let db = w.Printers.db in
  let dir = tmpdir "eagerdb_persist_rt" in
  (match Persist.save db ~dir with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("save: " ^ Err.to_string e));
  let db2 =
    match Persist.load ~dir () with
    | Ok db2 -> db2
    | Error e -> Alcotest.fail ("load: " ^ Err.to_string e)
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) (t ^ " round-trips") true (heaps_equal db db2 t))
    [ "UserAccount"; "PrinterAuth"; "Printer" ];
  (* the canonical query gives identical answers on the reloaded database *)
  let q = w.Printers.query in
  let r1 = Exec.run_rows db (Plans.e2 db q) in
  let r2 = Exec.run_rows db2 (Plans.e2 db2 q) in
  Alcotest.(check bool) "query results equal" true (Exec.multiset_equal r1 r2);
  (* TestFD still says YES: keys survived the round trip *)
  match Testfd.test db2 q with
  | Testfd.Yes -> ()
  | Testfd.No r -> Alcotest.fail ("keys lost in round trip: " ^ r)

let test_value_fidelity () =
  let db = Database.create () in
  (match
     Binder.run_script db
       {|CREATE TABLE v (i INTEGER, f FLOAT, s VARCHAR(50), b BOOLEAN);
         INSERT INTO v VALUES
           (1, 1.5, 'plain', TRUE),
           (-7, 0.1, 'with, comma', FALSE),
           (NULL, NULL, NULL, NULL),
           (0, 2.0, 'quote '' inside', TRUE);|}
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let dir = tmpdir "eagerdb_persist_vals" in
  (match Persist.save db ~dir with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Err.to_string e));
  let db2 =
    match Persist.load ~dir () with
    | Ok d -> d
    | Error e -> Alcotest.fail (Err.to_string e)
  in
  Alcotest.(check bool) "values identical" true (heaps_equal db db2 "v");
  (* the float really came back as a float *)
  let row = Heap.get (Database.heap db2 "v") 0 in
  (match row.(1) with
  | Value.Float f -> Alcotest.(check (float 1e-12)) "float exact" 1.5 f
  | v -> Alcotest.fail ("expected float, got " ^ Value.to_string v))

let test_constraints_survive () =
  let db = Database.create () in
  (match
     Binder.run_script db
       {|CREATE DOMAIN Small INTEGER CHECK (VALUE < 100);
         CREATE TABLE t (id INTEGER, v Small, PRIMARY KEY (id));
         INSERT INTO t VALUES (1, 5);
         CREATE VIEW tv AS SELECT T.id i FROM t T WHERE T.v > 0;|}
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let dir = tmpdir "eagerdb_persist_cons" in
  (match Persist.save db ~dir with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Err.to_string e));
  let db2 =
    match Persist.load ~dir () with
    | Ok d -> d
    | Error e -> Alcotest.fail (Err.to_string e)
  in
  (* duplicate key still rejected *)
  Alcotest.(check bool) "PK enforced after reload" true
    (Result.is_error (Database.insert db2 "t" [ Value.Int 1; Value.Int 6 ]));
  (* the domain check still enforced *)
  Alcotest.(check bool) "domain enforced after reload" true
    (Result.is_error (Database.insert db2 "t" [ Value.Int 2; Value.Int 200 ]));
  (* the view still binds *)
  match
    Binder.bind_select db2 (Parser.parse_select "SELECT i FROM tv V")
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("view lost: " ^ msg)

let test_ddl_text () =
  let w = Sales.setup ~customers:3 ~orders:5 () in
  let ddl = Persist.ddl_of_database w.Sales.db in
  let contains sub =
    let n = String.length ddl and m = String.length sub in
    let rec go i = i + m <= n && (String.sub ddl i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("DDL mentions " ^ sub) true (contains sub))
    [
      "CREATE TABLE Customer"; "CREATE TABLE Orders"; "PRIMARY KEY (OrderID)";
      "FOREIGN KEY (CustID) REFERENCES Customer (CustID)";
      "CHECK (Amount >= 0)"; "Name VARCHAR(255) NOT NULL";
    ]

let test_indexes_survive () =
  let db = Database.create () in
  (match
     Binder.run_script db
       {|CREATE TABLE t (id INTEGER, grp INTEGER, PRIMARY KEY (id));
         CREATE INDEX t_by_grp ON t (grp);
         INSERT INTO t VALUES (1, 7), (2, 7), (3, 9);|}
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let dir = tmpdir "eagerdb_persist_idx" in
  (match Persist.save db ~dir with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Err.to_string e));
  let db2 =
    match Persist.load ~dir () with
    | Ok d -> d
    | Error e -> Alcotest.fail (Err.to_string e)
  in
  match Database.find_equality_index db2 ~table:"t" ~col:"grp" with
  | Some def ->
      Alcotest.(check int) "index usable after reload" 2
        (List.length (Database.index_lookup db2 def [ Value.Int 7 ]))
  | None -> Alcotest.fail "index lost in round trip"

let test_errors () =
  (match Persist.load ~dir:"/nonexistent/dir" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing dir must fail");
  (* strings with newlines are refused at save time *)
  let db = Database.create () in
  (match
     Binder.run_script db "CREATE TABLE t (s VARCHAR(10));"
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  Database.load db "t" [ [ Value.Str "a\nb" ] ];
  let dir = tmpdir "eagerdb_persist_err" in
  match Persist.save db ~dir with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "newline string must refuse to persist"

(* the pre-snapshot layout (schema.sql + one CSV per table) is not a
   snapshot: it is refused, not read *)
let test_schema_sql_dir_refused () =
  let dir = tmpdir "eagerdb_persist_schema_sql" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write name text =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
        output_string oc text)
  in
  write "schema.sql" "CREATE TABLE t (a INTEGER);\n";
  write "t.csv" "a\n1\n2\n";
  match Persist.load ~dir () with
  | Error e ->
      Alcotest.(check string) "typed Io error" "Io"
        (Err.kind_to_string (Err.kind e))
  | Ok _ -> Alcotest.fail "a schema.sql directory must not load"

let () =
  Alcotest.run "persist"
    [
      ( "round-trip",
        [
          Alcotest.test_case "workload database" `Quick test_round_trip_workload;
          Alcotest.test_case "value fidelity" `Quick test_value_fidelity;
          Alcotest.test_case "constraints and views" `Quick
            test_constraints_survive;
          Alcotest.test_case "indexes survive" `Quick test_indexes_survive;
        ] );
      ( "format",
        [
          Alcotest.test_case "DDL text" `Quick test_ddl_text;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "schema.sql directory refused" `Quick
            test_schema_sql_dir_refused;
        ] );
    ]
