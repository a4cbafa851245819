(* Deterministic inputs: one combined database built from the Figure 1,
   Figure 8 and star workload shapes, the three read templates, and the
   single-row INSERT stream.  Everything is a function of the seed. *)

open Eager_value
open Eager_storage
open Eager_exec
open Eager_opt
open Eager_parser
open Eager_workload

type sizes = {
  fact_rows : int;  (** Employee, A and Part each *)
  departments : int;
  b_rows : int;
  matched_rows : int;  (** A rows that join B *)
  matched_groups : int;
  a_groups : int;
  suppliers : int;
  regions : int;
}

let full =
  {
    fact_rows = 100_000;
    departments = 1_000;
    b_rows = 1_000;
    matched_rows = 500;
    matched_groups = 100;
    a_groups = 90_000;
    suppliers = 500;
    regions = 10;
  }

(* the same shapes at 10^3 fact rows, for the smoke alias *)
let smoke =
  {
    fact_rows = 1_000;
    departments = 10;
    b_rows = 10;
    matched_rows = 50;
    matched_groups = 5;
    a_groups = 900;
    suppliers = 5;
    regions = 3;
  }

type template = {
  tname : string;
  sql : string;
  agg_rel : string;  (** the relation carrying the aggregated columns *)
}

(* One per case of the paper: E2 wins (fig1), E2 valid but E1 wins
   (fig8), full E2 invalid but partial E2 wins (star). *)
let templates =
  [
    {
      tname = "fig1";
      sql =
        "SELECT D.DeptID, D.Name, COUNT(E.EmpID) AS emp_count FROM Employee \
         E, Department D WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name";
      agg_rel = "E";
    };
    {
      tname = "fig8";
      sql =
        "SELECT A.j, SUM(A.v) AS total_v FROM A A, B B WHERE A.j = B.k GROUP \
         BY A.j";
      agg_rel = "A";
    };
    {
      tname = "star";
      sql =
        "SELECT G.RegionName, SUM(P.Qty) AS total_qty, COUNT(P.PartNo) AS \
         parts FROM Part P, Supplier S, Region G WHERE P.SupplierNo = \
         S.SupplierNo AND S.RegionNo = G.RegionNo GROUP BY G.RegionName";
      agg_rel = "P";
    };
  ]

(* tables in foreign-key order, so a bulk load never dangles *)
let tables =
  [ "Department"; "Employee"; "B"; "A"; "Region"; "Supplier"; "Part" ]

(* the tables the INSERT stream rotates over, with a count query each *)
let write_tables =
  [
    ("Employee", "SELECT COUNT(E.EmpID) AS n FROM Employee E");
    ("Part", "SELECT COUNT(P.PartNo) AS n FROM Part P");
    ("A", "SELECT COUNT(A.aid) AS n FROM A A");
  ]

type t = {
  db : Database.t;
  sizes : sizes;
  seed : int;
  row_counts : (string * int) list;
  checksum : string;
}

let content_checksum db =
  List.map
    (fun name ->
      let b = Buffer.create 4096 in
      Buffer.add_string b name;
      Heap.iter
        (fun row ->
          Buffer.add_char b '\n';
          Buffer.add_string b (Eager_schema.Row.to_string row))
        (Database.heap db name);
      Digest.string (Buffer.contents b))
    tables
  |> String.concat "" |> Digest.string |> Digest.to_hex

let generate ?(sizes = full) seed =
  let fig1 =
    Employee_dept.setup ~seed:(seed * 3) ~employees:sizes.fact_rows
      ~departments:sizes.departments ()
  in
  let fig8 =
    Contrived.setup ~seed:((seed * 3) + 1) ~a_rows:sizes.fact_rows
      ~b_rows:sizes.b_rows ~matched_rows:sizes.matched_rows
      ~matched_groups:sizes.matched_groups ~a_groups:sizes.a_groups ()
  in
  let star =
    Star.setup ~seed:((seed * 3) + 2) ~parts:sizes.fact_rows
      ~suppliers:sizes.suppliers ~regions:sizes.regions ()
  in
  let sources =
    [ fig1.Employee_dept.db; fig8.Contrived.db; star.Star.db ]
  in
  let db = Database.create () in
  List.iter
    (fun name ->
      let src =
        List.find (fun s -> Database.heap_opt s name <> None) sources
      in
      Database.create_table db
        (Option.get
           (Eager_catalog.Catalog.find_table (Database.catalog src) name));
      Database.load db name
        (List.map Array.to_list (Heap.to_list (Database.heap src name))))
    tables;
  {
    db;
    sizes;
    seed;
    row_counts = List.map (fun n -> (n, Database.row_count db n)) tables;
    checksum = content_checksum db;
  }

let describe d =
  Printf.sprintf "seed %d: %s; checksum %s" d.seed
    (String.concat ", "
       (List.map (fun (n, c) -> Printf.sprintf "%s=%d" n c) d.row_counts))
    d.checksum

(* ---------- the INSERT stream ---------- *)

(* fresh keys start above every generated key *)
let first_fresh_key = 10_000_001

(* The [n]th write of a run: tables in rotation, a fresh key, and
   foreign-key values that exist.  A rows land in matched groups, so
   every template keeps its result cardinality while writes arrive. *)
let write d n =
  let g = Gen.make2 d.seed n in
  let key = first_fresh_key + n in
  let table, _ = List.nth write_tables (n mod List.length write_tables) in
  let sql =
    match table with
    | "Employee" ->
        Printf.sprintf "INSERT INTO Employee VALUES (%d, '%s', '%s', %d)" key
          (Gen.name g) (Gen.name g)
          (1 + Gen.int g d.sizes.departments)
    | "Part" ->
        Printf.sprintf "INSERT INTO Part VALUES (%d, %d, %d)" key
          (1 + Gen.int g d.sizes.suppliers)
          (1 + Gen.int g 100)
    | _ ->
        Printf.sprintf "INSERT INTO A VALUES (%d, %d, %d)" key
          (1 + Gen.int g d.sizes.matched_groups)
          (Gen.int g 1000)
  in
  (table, sql)

(* ---------- reference answers ---------- *)

(* a result row as the server renders it: one string per cell *)
let cells_of_row row = Array.to_list (Array.map Value.to_string row)

let sort_rows rows = List.sort compare rows

let bind_grouped db sql =
  match Binder.exec_statement db (Parser.parse_statement sql) with
  | Ok (Binder.Query (Binder.Grouped input, _)) -> (
      match Eager_core.Canonical.of_input db input with
      | Ok cq -> cq
      | Error m -> failwith ("template not canonical: " ^ m))
  | Ok _ -> failwith ("template is not a grouped query: " ^ sql)
  | Error m -> failwith ("template does not bind: " ^ m)

(* [Ref_eval] over the partial pre-aggregation below the aggregated
   relation: sound for every decomposable aggregate list without an FD
   check, and the only placement whose nested-loop evaluation stays in
   the tens of milliseconds on Figure 1 and the star (the lazy plan
   costs seconds there).  Figure 8 costs seconds either way. *)
let reference db tpl =
  let cq = bind_grouped db tpl.sql in
  match
    Planner.decide
      ~force:(Planner.Force_placement { below = [ tpl.agg_rel ]; partial = true })
      db cq
  with
  | Ok d -> sort_rows (List.map cells_of_row (Ref_eval.eval db d.Planner.chosen))
  | Error e -> failwith (Eager_robust.Err.to_string e)

(* ---------- reading the server's rendered tables ---------- *)

(* "(N rows)", the footer every rendered result carries *)
let rows_footer text =
  String.split_on_char '\n' text
  |> List.find_map (fun l ->
         Scanf.sscanf_opt l "(%d rows)%!" Fun.id)

let split_on sep s =
  let n = String.length sep and len = String.length s in
  let rec go start i acc =
    if i + n > len then List.rev (String.sub s start (len - start) :: acc)
    else if String.sub s i n = sep then
      go (i + n) (i + n) (String.sub s start (i - start) :: acc)
    else go start (i + 1) acc
  in
  go 0 0 []

(* The cells of a rendered table: a header line, a dash separator,
   one " | "-separated line per row, then the "(N rows)" footer. *)
let parse_table text =
  let rec rows acc = function
    | l :: _ when Scanf.sscanf_opt l "(%d rows)%!" Fun.id <> None ->
        Some (List.rev acc)
    | l :: rest -> rows (List.map String.trim (split_on " | " l) :: acc) rest
    | [] -> None
  in
  match String.split_on_char '\n' text with
  | _header :: _sep :: body -> Option.map sort_rows (rows [] body)
  | _ -> None
