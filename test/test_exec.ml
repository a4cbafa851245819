(* Executor tests: every operator, every join/group algorithm, and the SQL2
   semantics corners — unknown-is-false filtering, NULL join keys, =ⁿ
   duplicate elimination, NULL-aware aggregates. *)

open Eager_value
open Eager_schema
open Eager_expr
open Eager_catalog
open Eager_storage
open Eager_algebra
open Eager_exec

let cr = Colref.make
let i n = Value.Int n
let s x = Value.Str x

let coldef name ctype : Table_def.column_def =
  { Table_def.cname = name; ctype; domain = None }

(* A small database with NULLs and duplicates.
   T(a, b): (1,10) (1,10) (2,20) (NULL,30) (3,NULL)
   U(x, y): (1,'one') (2,'two') (NULL,'none') (9,'nine') *)
let make_db () =
  let db = Database.create () in
  Database.create_table db
    (Table_def.make "T" [ coldef "a" Ctype.Int; coldef "b" Ctype.Int ] []);
  Database.create_table db
    (Table_def.make "U" [ coldef "x" Ctype.Int; coldef "y" Ctype.String ] []);
  Database.load db "T"
    [ [ i 1; i 10 ]; [ i 1; i 10 ]; [ i 2; i 20 ]; [ Value.Null; i 30 ];
      [ i 3; Value.Null ] ];
  Database.load db "U"
    [ [ i 1; s "one" ]; [ i 2; s "two" ]; [ Value.Null; s "none" ];
      [ i 9; s "nine" ] ];
  db

let t_schema =
  Schema.make [ (cr "T" "a", Ctype.Int); (cr "T" "b", Ctype.Int) ]

let u_schema =
  Schema.make [ (cr "U" "x", Ctype.Int); (cr "U" "y", Ctype.String) ]

let scan_t = Plan.scan ~table:"T" ~rel:"T" t_schema
let scan_u = Plan.scan ~table:"U" ~rel:"U" u_schema

let rows db ?options plan = Exec.run_rows ?options db plan

let sorted_strings rs = List.sort compare (List.map Row.to_string rs)

let check_rows name expected actual =
  Alcotest.(check (list string)) name
    (List.sort compare expected)
    (sorted_strings actual)

(* ---------------- scan / select / project ---------------- *)

let test_scan () =
  let db = make_db () in
  Alcotest.(check int) "all rows" 5 (List.length (rows db scan_t))

let test_select_3vl () =
  let db = make_db () in
  (* a = 1: the NULL row is unknown → dropped *)
  let p = Plan.select (Expr.eq (Expr.col "T" "a") (Expr.int 1)) scan_t in
  Alcotest.(check int) "a=1 keeps 2" 2 (List.length (rows db p));
  (* a <> 1: NULL row still dropped (unknown), not kept *)
  let p2 =
    Plan.select (Expr.Cmp (Expr.Ne, Expr.col "T" "a", Expr.int 1)) scan_t
  in
  Alcotest.(check int) "a<>1 keeps 2 (not the NULL row)" 2
    (List.length (rows db p2));
  (* IS NULL finds exactly the NULL row *)
  let p3 = Plan.select (Expr.Is_null (Expr.col "T" "a")) scan_t in
  check_rows "IS NULL" [ "(NULL, 30)" ] (rows db p3)

let test_project_all_and_distinct () =
  let db = make_db () in
  let p = Plan.project [ cr "T" "a" ] scan_t in
  Alcotest.(check int) "πA keeps duplicates" 5 (List.length (rows db p));
  let pd = Plan.project ~dedup:true [ cr "T" "a" ] scan_t in
  (* distinct under =ⁿ: {1, 2, NULL, 3} — the two 1s merge, NULL kept once *)
  check_rows "πD dedups with NULL=NULL" [ "(1)"; "(2)"; "(3)"; "(NULL)" ]
    (rows db pd)

let test_distinct_null_pairs () =
  (* two (NULL, NULL) rows are duplicates of each other — SQL2 duplicate
     semantics (paper Section 4.2) *)
  let db = Database.create () in
  Database.create_table db
    (Table_def.make "N" [ coldef "p" Ctype.Int; coldef "q" Ctype.Int ] []);
  Database.load db "N"
    [ [ Value.Null; Value.Null ]; [ Value.Null; Value.Null ]; [ i 1; Value.Null ] ];
  let sc =
    Plan.scan ~table:"N" ~rel:"N"
      (Schema.make [ (cr "N" "p", Ctype.Int); (cr "N" "q", Ctype.Int) ])
  in
  let pd = Plan.project ~dedup:true [ cr "N" "p"; cr "N" "q" ] sc in
  Alcotest.(check int) "NULL rows merge" 2 (List.length (rows db pd))

(* ---------------- joins ---------------- *)

let join_pred = Expr.eq (Expr.col "T" "a") (Expr.col "U" "x")

let expected_join =
  (* T.a=U.x: (1,10,1,one) ×2, (2,20,2,two); NULLs never match *)
  [ "(1, 10, 1, 'one')"; "(1, 10, 1, 'one')"; "(2, 20, 2, 'two')" ]

let test_join_algorithms_agree () =
  let db = make_db () in
  let j = Plan.join join_pred scan_t scan_u in
  List.iter
    (fun (name, algo) ->
      let options = { Exec.default_options with join_algo = algo } in
      check_rows (name ^ " join result") expected_join (rows db ~options j))
    [
      ("nested-loop", Exec.Nested_loop);
      ("hash", Exec.Hash_join);
      ("merge", Exec.Merge_join);
      ("auto", Exec.Auto);
    ]

let test_join_null_keys_never_match () =
  let db = make_db () in
  let j = Plan.join join_pred scan_t scan_u in
  let out = rows db j in
  Alcotest.(check bool) "no NULL key in output" true
    (List.for_all (fun r -> not (Value.is_null r.(0))) out)

let test_join_residual_predicate () =
  let db = make_db () in
  (* equi key plus residual: T.b > 10 *)
  let pred =
    Expr.And (join_pred, Expr.Cmp (Expr.Gt, Expr.col "T" "b", Expr.int 10))
  in
  let j = Plan.join pred scan_t scan_u in
  List.iter
    (fun algo ->
      let options = { Exec.default_options with join_algo = algo } in
      check_rows "residual applied" [ "(2, 20, 2, 'two')" ] (rows db ~options j))
    [ Exec.Nested_loop; Exec.Hash_join; Exec.Merge_join ]

let test_theta_join_falls_back () =
  let db = make_db () in
  (* pure inequality join: only nested loops can run it; Auto must fall back *)
  let pred = Expr.Cmp (Expr.Lt, Expr.col "T" "a", Expr.col "U" "x") in
  let j = Plan.join pred scan_t scan_u in
  let n = List.length (rows db j) in
  (* pairs with a < x among non-null: a∈{1,1,2,3} x∈{1,2,9}:
     1<2,1<9 (×2 rows of a=1 → 4), 2<9 (1), 3<9 (1) → 6 *)
  Alcotest.(check int) "theta join count" 6 n

let test_product () =
  let db = make_db () in
  let p = Plan.Product (scan_t, scan_u) in
  Alcotest.(check int) "5×4 product" 20 (List.length (rows db p))

let test_split_equijoin () =
  let keys, residual = Exec.split_equijoin t_schema u_schema join_pred in
  Alcotest.(check int) "one key pair" 1 (List.length keys);
  Alcotest.(check int) "no residual" 0 (List.length residual);
  let keys2, residual2 =
    Exec.split_equijoin t_schema u_schema
      (Expr.And
         ( Expr.eq (Expr.col "U" "x") (Expr.col "T" "a"),
           Expr.Cmp (Expr.Lt, Expr.col "T" "b", Expr.col "U" "x") ))
  in
  Alcotest.(check int) "flipped equi key recognised" 1 (List.length keys2);
  let l, r = List.hd keys2 in
  Alcotest.(check string) "left side col" "T.a" (Colref.to_string l);
  Alcotest.(check string) "right side col" "U.x" (Colref.to_string r);
  Alcotest.(check int) "inequality is residual" 1 (List.length residual2)

(* ---------------- grouping and aggregates ---------------- *)

let test_group_null_key () =
  let db = make_db () in
  let g =
    Plan.group ~by:[ cr "T" "a" ]
      ~aggs:[ Agg.count_star (cr "" "n") ]
      scan_t
  in
  List.iter
    (fun algo ->
      let options = { Exec.default_options with group_algo = algo } in
      (* groups: 1 (2 rows), 2, NULL, 3 → 4 groups; NULL is its own group *)
      check_rows "groups incl. NULL"
        [ "(1, 2)"; "(2, 1)"; "(3, 1)"; "(NULL, 1)" ]
        (rows db ~options g))
    [ Exec.Hash_group; Exec.Sort_group ]

let test_aggregate_null_rules () =
  let db = make_db () in
  let aggs =
    [
      Agg.count_star (cr "" "cstar");
      Agg.count (cr "" "cb") (Expr.col "T" "b");
      Agg.sum (cr "" "sb") (Expr.col "T" "b");
      Agg.min_ (cr "" "mn") (Expr.col "T" "b");
      Agg.max_ (cr "" "mx") (Expr.col "T" "b");
      Agg.avg (cr "" "av") (Expr.col "T" "b");
    ]
  in
  let g = Plan.group ~by:[] ~aggs scan_t in
  match rows db g with
  | [ row ] ->
      (* b values: 10,10,20,30,NULL *)
      Alcotest.(check bool) "COUNT(*)=5" true (Value.null_eq row.(0) (i 5));
      Alcotest.(check bool) "COUNT(b)=4 skips NULL" true (Value.null_eq row.(1) (i 4));
      Alcotest.(check bool) "SUM(b)=70" true (Value.null_eq row.(2) (i 70));
      Alcotest.(check bool) "MIN(b)=10" true (Value.null_eq row.(3) (i 10));
      Alcotest.(check bool) "MAX(b)=30" true (Value.null_eq row.(4) (i 30));
      Alcotest.(check bool) "AVG(b)=17.5" true
        (Value.null_eq row.(5) (Value.Float 17.5))
  | other -> Alcotest.fail (Printf.sprintf "expected 1 row, got %d" (List.length other))

let test_aggregate_all_null_group () =
  let db = Database.create () in
  Database.create_table db
    (Table_def.make "Z" [ coldef "g" Ctype.Int; coldef "v" Ctype.Int ] []);
  Database.load db "Z" [ [ i 1; Value.Null ]; [ i 1; Value.Null ] ];
  let sc =
    Plan.scan ~table:"Z" ~rel:"Z"
      (Schema.make [ (cr "Z" "g", Ctype.Int); (cr "Z" "v", Ctype.Int) ])
  in
  let g =
    Plan.group ~by:[ cr "Z" "g" ]
      ~aggs:
        [
          Agg.sum (cr "" "s") (Expr.col "Z" "v");
          Agg.min_ (cr "" "m") (Expr.col "Z" "v");
          Agg.avg (cr "" "a") (Expr.col "Z" "v");
          Agg.count (cr "" "c") (Expr.col "Z" "v");
        ]
      sc
  in
  match rows db g with
  | [ row ] ->
      Alcotest.(check bool) "SUM of all-NULL is NULL" true (Value.is_null row.(1));
      Alcotest.(check bool) "MIN of all-NULL is NULL" true (Value.is_null row.(2));
      Alcotest.(check bool) "AVG of all-NULL is NULL" true (Value.is_null row.(3));
      Alcotest.(check bool) "COUNT of all-NULL is 0" true (Value.null_eq row.(4) (i 0))
  | _ -> Alcotest.fail "expected one group"

let test_scalar_agg_empty_input () =
  let db = make_db () in
  let empty = Plan.select (Expr.eq (Expr.col "T" "a") (Expr.int 999)) scan_t in
  let g =
    Plan.group ~scalar:true ~by:[]
      ~aggs:[ Agg.count_star (cr "" "n"); Agg.sum (cr "" "s") (Expr.col "T" "b") ]
      empty
  in
  (match rows db g with
  | [ row ] ->
      Alcotest.(check bool) "COUNT over empty = 0" true (Value.null_eq row.(0) (i 0));
      Alcotest.(check bool) "SUM over empty = NULL" true (Value.is_null row.(1))
  | _ -> Alcotest.fail "scalar aggregation must yield exactly one row");
  (* GROUP BY over empty input yields zero groups *)
  let g2 =
    Plan.group ~by:[ cr "T" "a" ] ~aggs:[ Agg.count_star (cr "" "n") ] empty
  in
  Alcotest.(check int) "grouped empty input: no rows" 0 (List.length (rows db g2));
  (* the paper's G[∅] over empty input also yields zero groups — the
     non-scalar / scalar distinction only matters here *)
  let g3 = Plan.group ~by:[] ~aggs:[ Agg.count_star (cr "" "n") ] empty in
  Alcotest.(check int) "non-scalar G[∅] over empty: no rows" 0
    (List.length (rows db g3));
  (* scalar with grouping columns is a construction error *)
  Alcotest.(check bool) "scalar with by rejected" true
    (try
       ignore (Plan.group ~scalar:true ~by:[ cr "T" "a" ] ~aggs:[] scan_t);
       false
     with Invalid_argument _ -> true)

let test_count_distinct () =
  let db = make_db () in
  (* b values: 10,10,20,30,NULL → 3 distinct non-NULL *)
  let g =
    Plan.group ~by:[]
      ~aggs:[ Agg.count_distinct (cr "" "d") (Expr.col "T" "b") ]
      scan_t
  in
  (match rows db g with
  | [ row ] ->
      Alcotest.(check bool) "3 distinct" true (Value.null_eq row.(0) (i 3))
  | _ -> Alcotest.fail "one row expected");
  (* per group, NULL-key group included *)
  let g2 =
    Plan.group ~by:[ cr "T" "a" ]
      ~aggs:[ Agg.count_distinct (cr "" "d") (Expr.col "T" "b") ]
      scan_t
  in
  check_rows "count distinct per group"
    [ "(1, 1)"; "(2, 1)"; "(3, 0)"; "(NULL, 1)" ]
    (rows db g2)

let test_agg_arith_expression () =
  let db = make_db () in
  (* COUNT(b) + SUM(b+0) over all rows: 4 + 70 = 74 *)
  let calc =
    Agg.Arith
      ( Expr.Add,
        Agg.Call (Agg.Count (Expr.col "T" "b")),
        Agg.Call (Agg.Sum (Expr.Arith (Expr.Add, Expr.col "T" "b", Expr.int 0)))
      )
  in
  let g = Plan.group ~by:[] ~aggs:[ Agg.make (cr "" "combo") calc ] scan_t in
  match rows db g with
  | [ row ] ->
      Alcotest.(check bool) "arith over aggregates" true
        (Value.null_eq row.(0) (i 74))
  | _ -> Alcotest.fail "one row expected"

(* ---------------- aggregate edge cases ---------------- *)

(* Z(g, v): every case runs as a plain Group and as a Partial_group at
   cap 1 under its finalizing Group, on the RAM engine (the unbounded
   spill config) and on a 4-page pool of 128-byte pages, where the
   spill budget is a few rows, so the larger cases really partition.
   Each result must match the reference evaluator, and the reference
   must match the expected rows.  The scalar case runs the plain Group
   only: a finalizing Group re-sums partial counts, so over empty input
   its row count would be the SUM of nothing, NULL — the planner places
   Partial_group under non-scalar groups only. *)
let z_schema = Schema.make [ (cr "Z" "g", Ctype.Int); (cr "Z" "v", Ctype.Int) ]
let scan_z = Plan.scan ~table:"Z" ~rel:"Z" z_schema
let tiny_pool = { Database.pool_pages = Some 4; page_size = 128; spill_dir = None }

let z_db ?storage rows =
  let db = Database.create ?storage () in
  Database.create_table db
    (Table_def.make "Z" [ coldef "g" Ctype.Int; coldef "v" Ctype.Int ] []);
  Database.load db "Z" rows;
  db

let agg_edge_cases =
  let null = Value.Null and g = cr "Z" "g" and v = Expr.col "Z" "v" in
  let n = Agg.count_star (cr "" "n") and sum = Agg.sum (cr "" "s") v in
  (* name, rows, by, scalar, aggs, expected *)
  [
    ("empty input, no GROUP BY", [], [], true, [ n; sum ], [ "(0, NULL)" ]);
    ("empty input, GROUP BY", [], [ g ], false, [ n; sum ], []);
    ( "COUNT(*) against COUNT(col) over NULLs",
      [ [ i 1; null ]; [ i 1; i 5 ]; [ i 1; null ]; [ i 2; null ] ],
      [ g ], false,
      [ n; Agg.count (cr "" "c") v ],
      [ "(1, 3, 1)"; "(2, 1, 0)" ] );
    ( "SUM, MIN, MAX over all-NULL input",
      [ [ i 1; null ]; [ i 1; null ]; [ i 2; null ] ],
      [ g ], false,
      [ sum; Agg.min_ (cr "" "mn") v; Agg.max_ (cr "" "mx") v ],
      [ "(1, NULL, NULL, NULL)"; "(2, NULL, NULL, NULL)" ] );
    ( "NULL group keys group together",
      [ [ null; i 1 ]; [ i 1; i 2 ]; [ null; i 3 ]; [ i 2; i 4 ];
        [ null; null ]; [ i 3; i 5 ]; [ i 4; i 6 ]; [ i 5; i 7 ];
        [ i 6; i 8 ] ],
      [ g ], false, [ n; sum ],
      [ "(NULL, 3, 4)"; "(1, 1, 2)"; "(2, 1, 4)"; "(3, 1, 5)"; "(4, 1, 6)";
        "(5, 1, 7)"; "(6, 1, 8)" ] );
  ]

let test_aggregate_edge_cases () =
  let run_pages = ref 0 in
  List.iter
    (fun (name, zrows, by, scalar, aggs, expected) ->
      let direct = Plan.group ~scalar ~by ~aggs scan_z in
      let partial =
        match Agg.decompose aggs with
        | _ when scalar -> []
        | Ok (partials, finals) ->
            [
              ( "partial cap:1",
                Plan.group ~by ~aggs:finals
                  (Plan.partial_group ~by ~aggs:partials ~cap:1 scan_z) );
            ]
        | Error m -> Alcotest.fail m
      in
      let ram = z_db zrows in
      let reference = Ref_eval.eval ram direct in
      check_rows (name ^ ": reference") expected reference;
      let paged = z_db ~storage:tiny_pool zrows in
      Fun.protect
        ~finally:(fun () -> Database.close_storage paged)
        (fun () ->
          List.iter
            (fun (cname, db) ->
              List.iter
                (fun (pname, plan) ->
                  List.iter
                    (fun group_algo ->
                      let spill = Spill.for_db db in
                      let options =
                        { Exec.default_options with group_algo; spill }
                      in
                      Alcotest.(check bool)
                        (Printf.sprintf "%s: %s %s %s agrees with reference"
                           name pname cname
                           (if group_algo = Exec.Hash_group then "hash"
                            else "sort"))
                        true
                        (Exec.multiset_equal reference
                           (Exec.run_rows ~options db plan));
                      run_pages := !run_pages + Spill.run_pages spill)
                    [ Exec.Hash_group; Exec.Sort_group ])
                (("group", direct) :: partial))
            [ ("unbounded", ram); ("4-page", paged) ]))
    agg_edge_cases;
  Alcotest.(check bool) "the 4-page pool spilled" true (!run_pages > 0)

(* ---------------- sort ---------------- *)

let test_sort () =
  let db = make_db () in
  (* ascending on a: NULL first, then 1,1,2,3 *)
  let p = Plan.sort [ (cr "T" "a", false) ] scan_t in
  let firsts = List.map (fun r -> r.(0)) (rows db p) in
  Alcotest.(check (list string)) "ascending, NULLs first"
    [ "NULL"; "1"; "1"; "2"; "3" ]
    (List.map Value.to_string firsts);
  (* descending *)
  let pd = Plan.sort [ (cr "T" "a", true) ] scan_t in
  let firsts_d = List.map (fun r -> r.(0)) (rows db pd) in
  Alcotest.(check (list string)) "descending, NULLs last"
    [ "3"; "2"; "1"; "1"; "NULL" ]
    (List.map Value.to_string firsts_d);
  (* stability: the two a=1 rows keep their scan order (b = 10 then 10 —
     use the two-key case instead: sort by b desc then check a order) *)
  let p2 = Plan.sort [ (cr "T" "b", false); (cr "T" "a", true) ] scan_t in
  Alcotest.(check int) "sort preserves multiset" 5 (List.length (rows db p2));
  (* empty order list is the identity constructor *)
  (match Plan.sort [] scan_t with
  | Plan.Scan _ -> ()
  | _ -> Alcotest.fail "empty sort should be elided");
  (* schema passes through *)
  Alcotest.(check int) "schema unchanged" 2
    (Schema.arity (Plan.schema_of p))

(* ---------------- order propagation (Section 7) ---------------- *)

let is_sorted_by schema cols rows =
  let idxs = Schema.indices schema cols in
  let rec go = function
    | a :: (b :: _ as rest) -> Row.compare_on idxs a b <= 0 && go rest
    | _ -> true
  in
  go rows

let test_order_propagation () =
  let db = make_db () in
  (* sort-based grouping leaves its output sorted on the grouping columns *)
  let g =
    Plan.group ~by:[ cr "T" "a" ] ~aggs:[ Agg.count_star (cr "" "n") ] scan_t
  in
  let options = { Exec.default_options with group_algo = Exec.Sort_group } in
  let h, _, order = Exec.run_ordered ~options db g in
  Alcotest.(check (list string)) "group claims its by-order" [ "T.a" ]
    (List.map Colref.to_string order);
  Alcotest.(check bool) "claimed order is physical" true
    (is_sorted_by (Heap.schema h) order (Heap.to_list h));
  (* Sort claims its ascending prefix *)
  let s = Plan.sort [ (cr "T" "a", false); (cr "T" "b", true) ] scan_t in
  let _, _, order_s = Exec.run_ordered db s in
  Alcotest.(check (list string)) "ascending prefix only" [ "T.a" ]
    (List.map Colref.to_string order_s);
  (* selection preserves order *)
  let sel = Plan.select (Expr.Is_not_null (Expr.col "T" "a")) s in
  let _, _, order_sel = Exec.run_ordered db sel in
  Alcotest.(check int) "select preserves order" 1 (List.length order_sel)

let test_merge_join_skips_presorted () =
  let db = make_db () in
  (* group T on its join column with sort-grouping, then merge-join with U:
     the left input arrives sorted on the key — the paper's Section 7
     "exploit the grouping order" observation *)
  let grouped =
    Plan.group ~by:[ cr "T" "a" ]
      ~aggs:[ Agg.sum (cr "" "s") (Expr.col "T" "b") ]
      scan_t
  in
  let joined =
    Plan.join (Expr.eq (Expr.col "T" "a") (Expr.col "U" "x")) grouped scan_u
  in
  let options =
    {
      Exec.default_options with
      group_algo = Exec.Sort_group;
      join_algo = Exec.Merge_join;
    }
  in
  let h, stats, order = Exec.run_ordered ~options db joined in
  (* the join recognised one presorted input *)
  (match Optree.find ~prefix:"Join" stats with
  | Some node ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "presorted input recognised (%s)" node.Optree.label)
        true
        (contains node.Optree.label "presorted")
  | None -> Alcotest.fail "no join node in stats");
  (* merge join output is itself key-ordered *)
  Alcotest.(check (list string)) "output ordered on the key" [ "T.a" ]
    (List.map Colref.to_string order);
  Alcotest.(check bool) "physically sorted" true
    (is_sorted_by (Heap.schema h) order (Heap.to_list h));
  (* and the result matches the hash join *)
  let rows_hash =
    Exec.run_rows
      ~options:{ Exec.default_options with group_algo = Exec.Sort_group }
      db joined
  in
  Alcotest.(check bool) "same result as hash join" true
    (Exec.multiset_equal rows_hash (Heap.to_list h))

let test_map_operator () =
  let db = make_db () in
  (* identity + computed items *)
  let m =
    Plan.map_items
      [
        (cr "T" "a", Expr.col "T" "a");
        (cr "" "doubled", Expr.Arith (Expr.Mul, Expr.col "T" "b", Expr.int 2));
      ]
      scan_t
  in
  let rows_out = rows db m in
  Alcotest.(check int) "row count preserved" 5 (List.length rows_out);
  Alcotest.(check bool) "NULL propagates through computation" true
    (List.exists (fun r -> Value.is_null r.(1)) rows_out);
  Alcotest.(check bool) "doubling works" true
    (List.exists (fun r -> Value.null_eq r.(1) (i 20)) rows_out);
  (* order propagation: identity prefix survives, computed tail does not *)
  let sorted_then_mapped =
    Plan.map_items
      [
        (cr "T" "a", Expr.col "T" "a");
        (cr "" "c", Expr.Arith (Expr.Add, Expr.col "T" "b", Expr.int 1));
      ]
      (Plan.sort [ (cr "T" "a", false) ] scan_t)
  in
  let _, _, order = Exec.run_ordered db sorted_then_mapped in
  Alcotest.(check (list string)) "identity item keeps the order" [ "T.a" ]
    (List.map Colref.to_string order);
  (* a renaming breaks the claim *)
  let renamed =
    Plan.map_items
      [ (cr "" "alias", Expr.col "T" "a") ]
      (Plan.sort [ (cr "T" "a", false) ] scan_t)
  in
  let _, _, order_r = Exec.run_ordered db renamed in
  Alcotest.(check int) "renamed column loses the order" 0 (List.length order_r)

(* property: any claimed order is physically true *)
let order_table_gen =
  QCheck.Gen.(
    list_size (int_range 0 12)
      (pair
         (oneof [ return Value.Null; map (fun n -> i n) (int_range 0 3) ])
         (oneof [ return Value.Null; map (fun n -> i n) (int_range 0 3) ])))

let prop_claimed_order_is_real =
  QCheck.Test.make ~count:150 ~name:"claimed sort orders are physical"
    (QCheck.make
       (QCheck.Gen.tup3 order_table_gen order_table_gen
          (QCheck.Gen.int_range 0 6)))
    (fun (trows, urows, variant) ->
      let load ?storage () =
        let db = Database.create ?storage () in
        Database.create_table db
          (Table_def.make "T" [ coldef "a" Ctype.Int; coldef "b" Ctype.Int ] []);
        Database.create_table db
          (Table_def.make "U" [ coldef "x" Ctype.Int; coldef "y" Ctype.Int ] []);
        Database.load db "T" (List.map (fun (a, b) -> [ a; b ]) trows);
        Database.load db "U" (List.map (fun (x, y) -> [ x; y ]) urows);
        db
      in
      let u_schema' =
        Schema.make [ (cr "U" "x", Ctype.Int); (cr "U" "y", Ctype.Int) ]
      in
      let scan_u' = Plan.scan ~table:"U" ~rel:"U" u_schema' in
      let grouped =
        Plan.group ~by:[ cr "T" "a" ]
          ~aggs:[ Agg.count_star (cr "" "n") ]
          scan_t
      in
      let plan =
        match variant with
        | 0 -> Plan.sort [ (cr "T" "a", false) ] scan_t
        | 1 -> grouped
        | 2 -> Plan.join (Expr.eq (Expr.col "T" "a") (Expr.col "U" "x")) grouped scan_u'
        | 3 ->
            Plan.select
              (Expr.Is_not_null (Expr.col "T" "a"))
              (Plan.sort [ (cr "T" "a", false); (cr "T" "b", false) ] scan_t)
        (* hash breakers over sorted input: only the unbounded config
           may pass the order through *)
        | 4 ->
            Plan.group ~by:[ cr "T" "a"; cr "T" "b" ]
              ~aggs:[ Agg.count_star (cr "" "n") ]
              (Plan.sort [ (cr "T" "a", false); (cr "T" "b", false) ] scan_t)
        | 5 ->
            Plan.join
              (Expr.eq (Expr.col "T" "a") (Expr.col "U" "x"))
              scan_t
              (Plan.sort [ (cr "U" "x", false); (cr "U" "y", false) ] scan_u')
        | _ ->
            Plan.project ~dedup:true [ cr "T" "a"; cr "T" "b" ]
              (Plan.sort [ (cr "T" "a", false); (cr "T" "b", false) ] scan_t)
      in
      (* the RAM engine, and the same tables on a 4-page pool whose
         bounded spill config partitions beyond a few rows *)
      let ram = load () and paged = load ~storage:tiny_pool () in
      Fun.protect
        ~finally:(fun () -> Database.close_storage paged)
        (fun () ->
          List.for_all
            (fun db ->
              List.for_all
                (fun (ja, ga) ->
                  let options =
                    {
                      Exec.default_options with
                      join_algo = ja;
                      group_algo = ga;
                      spill = Spill.for_db db;
                    }
                  in
                  let h, _, order = Exec.run_ordered ~options db plan in
                  is_sorted_by (Heap.schema h) order (Heap.to_list h))
                [
                  (Exec.Auto, Exec.Hash_group);
                  (Exec.Merge_join, Exec.Sort_group);
                  (Exec.Nested_loop, Exec.Sort_group);
                ])
            [ ram; paged ]))

(* ---------------- operator statistics ---------------- *)

let test_optree () =
  let db = make_db () in
  let plan =
    Plan.group ~by:[ cr "T" "a" ]
      ~aggs:[ Agg.count_star (cr "" "n") ]
      (Plan.select (Expr.Is_not_null (Expr.col "T" "a")) scan_t)
  in
  let _, st = Exec.run db plan in
  (* shape: GroupBy over Select over Scan *)
  (match Optree.find ~prefix:"GroupBy" st with
  | Some g ->
      Alcotest.(check int) "group consumed the filtered rows" 4
        (List.hd (Optree.in_rows g));
      Alcotest.(check int) "group emitted 3 groups" 3 g.Optree.out_rows
  | None -> Alcotest.fail "no group node");
  (match Optree.find ~prefix:"Scan" st with
  | Some s -> Alcotest.(check int) "scan saw all rows" 5 s.Optree.out_rows
  | None -> Alcotest.fail "no scan node");
  Alcotest.(check bool) "missing prefix" true
    (Optree.find ~prefix:"Window" st = None);
  (* total work = 5 (scan) + 4 (select) + 3 (group) *)
  Alcotest.(check int) "total produced" 12 (Optree.total_produced st);
  (* the printer mentions each operator with its cardinality *)
  let text = Optree.to_string st in
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "printer shows cardinalities" true
    (contains "-- 4 rows" && contains "GroupBy");
  Alcotest.(check bool) "printer shows batch counts" true
    (contains "batch");
  (* per-operator batch counts at a small batch size: 5 rows in batches
     of 2 → the scan emits 3 batches; the select keeps 4 rows but still
     re-batches each nonempty input slice → 3; the group's 3 rows fit 2 *)
  let _, st2 =
    Exec.run ~options:{ Exec.default_options with batch_rows = 2 } db plan
  in
  let batches prefix =
    match Optree.find ~prefix st2 with
    | Some n -> n.Optree.batches
    | None -> Alcotest.failf "no %s node" prefix
  in
  Alcotest.(check int) "scan batches" 3 (batches "Scan");
  Alcotest.(check int) "select batches" 3 (batches "Select");
  Alcotest.(check int) "group batches" 2 (batches "GroupBy")

let test_optree_find_all () =
  let db = make_db () in
  let _, st = Exec.run db (Plan.Product (scan_t, scan_u)) in
  (* [find] commits to the first scan; [find_all] sees both, in order *)
  (match Optree.find_all ~prefix:"Scan" st with
  | [ l; r ] ->
      Alcotest.(check int) "left scan first (T: 5 rows)" 5 l.Optree.out_rows;
      Alcotest.(check int) "right scan second (U: 4 rows)" 4 r.Optree.out_rows;
      Alcotest.(check bool) "find returns the first of them" true
        (Optree.find ~prefix:"Scan" st = Some l)
  | other ->
      Alcotest.failf "expected exactly 2 scans, got %d" (List.length other));
  Alcotest.(check int) "no match is empty" 0
    (List.length (Optree.find_all ~prefix:"Window" st))

(* ---------------- batched pull pipeline ---------------- *)

(* the same plans must mean the same thing at every batch size; sweep a
   plan that exercises scan, select, join, group and project *)
let batch_sizes = [ 1; 2; 7; 1024; max_int ]

let algo_combos =
  [
    (Exec.Auto, Exec.Hash_group);
    (Exec.Nested_loop, Exec.Sort_group);
    (Exec.Merge_join, Exec.Sort_group);
    (Exec.Merge_join, Exec.Hash_group);
  ]

let check_against_reference ?(combos = algo_combos) name db plan =
  let reference = Eager_exec.Ref_eval.eval db plan in
  List.iter
    (fun batch_rows ->
      List.iter
        (fun (join_algo, group_algo) ->
          let options =
            { Exec.default_options with join_algo; group_algo; batch_rows }
          in
          let got = Exec.run_rows ~options db plan in
          Alcotest.(check bool)
            (Printf.sprintf "%s: batch=%d algos agree with reference" name
               (min batch_rows 99999))
            true
            (Exec.multiset_equal reference got))
        combos)
    batch_sizes

let test_batch_size_invariance () =
  let db = make_db () in
  let plan =
    Plan.project ~dedup:true
      [ cr "T" "a"; cr "" "n" ]
      (Plan.group ~by:[ cr "T" "a" ]
         ~aggs:[ Agg.count_star (cr "" "n") ]
         (Plan.join join_pred
            (Plan.select (Expr.Is_not_null (Expr.col "T" "b")) scan_t)
            scan_u))
  in
  check_against_reference "group-over-join" db plan;
  (* empty input through every operator *)
  let empty =
    Plan.group ~by:[ cr "T" "a" ]
      ~aggs:[ Agg.sum (cr "" "s") (Expr.col "T" "b") ]
      (Plan.select Expr.efalse scan_t)
  in
  check_against_reference "empty input" db empty

(* every checked-in fuzz-corpus query, replayed at several batch sizes
   against the naive whole-relation reference evaluator *)
let test_corpus_differential () =
  let dir = if Sys.file_exists "../corpus" then "../corpus" else "corpus" in
  let files =
    if Sys.file_exists dir then
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".sql")
      |> List.sort String.compare
      |> List.map (Filename.concat dir)
    else []
  in
  Alcotest.(check bool) "corpus present" true (files <> []);
  let checked = ref 0 in
  List.iter
    (fun path ->
      match Eager_fuzz.Corpus.queries_of_file path with
      | Error msg -> Alcotest.failf "corpus load: %s" msg
      | Ok (db, qs) ->
          List.iter
            (fun q ->
              let plans =
                (Filename.basename path ^ ":E1", Eager_core.Plans.e1 db q)
                ::
                (match
                   Eager_robust.Err.protect ~kind:Eager_robust.Err.Planner
                     (fun () -> Eager_core.Plans.e2 db q)
                 with
                | Ok p -> [ (Filename.basename path ^ ":E2", p) ]
                | Error _ -> [])
              in
              List.iter
                (fun (name, plan) ->
                  incr checked;
                  check_against_reference name db plan)
                plans)
            qs)
    files;
  Alcotest.(check bool) "at least one corpus plan checked" true (!checked > 0)

(* generated queries too: a slice of the fuzz space beyond the corpus *)
let test_generated_differential () =
  let seeds = List.init 12 (fun k -> 1000 + k) in
  List.iter
    (fun seed ->
      let case = Eager_fuzz.Qgen.generate (Eager_workload.Gen.make2 777 seed) in
      match Eager_fuzz.Qgen.build case with
      | Error m -> Alcotest.failf "qgen build (seed %d): %s" seed m
      | Ok (db, q) ->
          check_against_reference
            ~combos:[ (Exec.Auto, Exec.Hash_group);
                      (Exec.Merge_join, Exec.Sort_group) ]
            (Printf.sprintf "gen seed %d" seed)
            db
            (Eager_core.Plans.e1 db q))
    seeds

(* the profile's high-water mark: breakers account for what they hold,
   and the eager plan's smaller build side shows up as a lower peak *)
let test_profile_peak () =
  let db = make_db () in
  let j = Plan.join join_pred scan_t scan_u in
  let _, _, _, prof = Exec.run_profiled db j in
  (* hash join builds the left side's non-NULL-key rows: 4 of T's 5 *)
  Alcotest.(check bool)
    (Printf.sprintf "join build side tracked (peak %d)" prof.Exec.peak_live_rows)
    true
    (prof.Exec.peak_live_rows >= 4);
  let w = Eager_workload.Employee_dept.setup ~employees:400 ~departments:10 () in
  let wdb = w.Eager_workload.Employee_dept.db in
  let q = w.Eager_workload.Employee_dept.query in
  let peak plan =
    let _, _, _, p = Exec.run_profiled wdb plan in
    p.Exec.peak_live_rows
  in
  let p1 = peak (Eager_core.Plans.e1 wdb q) in
  let p2 = peak (Eager_core.Plans.e2 wdb q) in
  Alcotest.(check bool)
    (Printf.sprintf "E2 peak (%d) strictly below E1 peak (%d)" p2 p1)
    true (p2 < p1)

(* the paged engine, squeezed: each workload must agree with the naive
   reference at every pool size down to a handful of pages.  The
   smallest pool is far below each table's footprint, so scans fault
   pages in and out while the spill breakers (grace join, external
   sort, spilling aggregation) carry the build sides on scratch runs. *)
let test_paged_pool_sweep () =
  let workloads =
    [
      ( "fig1",
        fun storage () ->
          let w =
            Eager_workload.Employee_dept.setup ?storage ~employees:1000
              ~departments:10 ()
          in
          Eager_workload.Employee_dept.(w.db, w.query) );
      ( "sales",
        fun storage () ->
          let w =
            Eager_workload.Sales.setup ?storage ~customers:25 ~orders:800 ()
          in
          Eager_workload.Sales.(w.db, w.query) );
      ( "star",
        fun storage () ->
          let w =
            Eager_workload.Star.setup ?storage ~parts:800 ~suppliers:20
              ~regions:4 ()
          in
          Eager_workload.Star.(w.db, w.query) );
    ]
  in
  let pools = [ Some 4; Some 16; Some 64; None ] in
  List.iter
    (fun (name, build) ->
      (* reference: the RAM engine's whole-relation evaluator over the
         same data (workload seeds are fixed) *)
      let rdb, rq = build None () in
      let reference = Ref_eval.eval rdb (Eager_core.Plans.e1 rdb rq) in
      List.iter
        (fun pool_pages ->
          let storage =
            { Database.pool_pages; page_size = 1024; spill_dir = None }
          in
          let db, q = build (Some storage) () in
          Fun.protect
            ~finally:(fun () -> Database.close_storage db)
            (fun () ->
              let plans =
                ("E1", Eager_core.Plans.e1 db q)
                ::
                (* E2 only where TestFD admits it (star's region rollup
                   fails FD2: SupplierNo is finer than RegionName) *)
                (match
                   Eager_opt.Planner.decide
                     ~force:
                       (Eager_opt.Planner.Force_placement
                          { below = Eager_opt.Planner.default_cut q;
                            partial = false })
                     db q
                 with
                | Ok d -> [ ("E2", d.Eager_opt.Planner.chosen) ]
                | Error _ -> [])
              in
              List.iter
                (fun (pname, plan) ->
                  List.iter
                    (fun group_algo ->
                      let options =
                        {
                          Exec.default_options with
                          group_algo;
                          spill = Spill.for_db db;
                        }
                      in
                      let got = Exec.run_rows ~options db plan in
                      Alcotest.(check bool)
                        (Printf.sprintf "%s %s pool=%s %s agrees with reference"
                           name pname
                           (match pool_pages with
                           | Some n -> string_of_int n
                           | None -> "unbounded")
                           (match group_algo with
                           | Exec.Hash_group -> "hash"
                           | _ -> "sort"))
                        true
                        (Exec.multiset_equal reference got))
                    [ Exec.Hash_group; Exec.Sort_group ])
                plans))
        pools)
    workloads

(* ---------------- multiset equality ---------------- *)

let test_multiset_equal () =
  let r1 = [ [| i 1 |]; [| i 2 |]; [| i 1 |] ] in
  let r2 = [ [| i 2 |]; [| i 1 |]; [| i 1 |] ] in
  let r3 = [ [| i 1 |]; [| i 2 |] ] in
  let r4 = [ [| i 1 |]; [| i 2 |]; [| i 2 |] ] in
  Alcotest.(check bool) "permutation equal" true (Exec.multiset_equal r1 r2);
  Alcotest.(check bool) "different length" false (Exec.multiset_equal r1 r3);
  Alcotest.(check bool) "different multiplicity" false (Exec.multiset_equal r1 r4);
  Alcotest.(check bool) "NULLs compare =ⁿ" true
    (Exec.multiset_equal [ [| Value.Null |] ] [ [| Value.Null |] ])

(* ---------------- property: join algorithms agree on random data -------- *)

let small_val = QCheck.Gen.(oneof [ return Value.Null; map (fun n -> i n) (int_range 0 3) ])

let table_gen =
  QCheck.Gen.(list_size (int_range 0 12) (pair small_val small_val))

let prop_join_algos_agree =
  QCheck.Test.make ~count:120 ~name:"NL, hash and merge joins agree"
    (QCheck.make (QCheck.Gen.pair table_gen table_gen))
    (fun (trows, urows) ->
      let db = Database.create () in
      Database.create_table db
        (Table_def.make "T" [ coldef "a" Ctype.Int; coldef "b" Ctype.Int ] []);
      Database.create_table db
        (Table_def.make "U" [ coldef "x" Ctype.Int; coldef "y" Ctype.Int ] []);
      Database.load db "T" (List.map (fun (a, b) -> [ a; b ]) trows);
      Database.load db "U" (List.map (fun (x, y) -> [ x; y ]) urows);
      let u_schema' =
        Schema.make [ (cr "U" "x", Ctype.Int); (cr "U" "y", Ctype.Int) ]
      in
      let j =
        Plan.join join_pred scan_t (Plan.scan ~table:"U" ~rel:"U" u_schema')
      in
      let run algo =
        rows db ~options:{ Exec.default_options with join_algo = algo } j
      in
      let nl = run Exec.Nested_loop in
      Exec.multiset_equal nl (run Exec.Hash_join)
      && Exec.multiset_equal nl (run Exec.Merge_join))

let prop_group_algos_agree =
  QCheck.Test.make ~count:120 ~name:"hash and sort grouping agree"
    (QCheck.make table_gen)
    (fun trows ->
      let db = Database.create () in
      Database.create_table db
        (Table_def.make "T" [ coldef "a" Ctype.Int; coldef "b" Ctype.Int ] []);
      Database.load db "T" (List.map (fun (a, b) -> [ a; b ]) trows);
      let g =
        Plan.group ~by:[ cr "T" "a" ]
          ~aggs:
            [
              Agg.count_star (cr "" "n");
              Agg.sum (cr "" "s") (Expr.col "T" "b");
              Agg.min_ (cr "" "m") (Expr.col "T" "b");
            ]
          scan_t
      in
      let run algo =
        rows db ~options:{ Exec.default_options with group_algo = algo } g
      in
      Exec.multiset_equal (run Exec.Hash_group) (run Exec.Sort_group))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "exec"
    [
      ( "relational",
        [
          Alcotest.test_case "scan" `Quick test_scan;
          Alcotest.test_case "select 3VL" `Quick test_select_3vl;
          Alcotest.test_case "project ALL/DISTINCT" `Quick
            test_project_all_and_distinct;
          Alcotest.test_case "DISTINCT merges NULL rows" `Quick
            test_distinct_null_pairs;
          Alcotest.test_case "product" `Quick test_product;
        ] );
      ( "joins",
        [
          Alcotest.test_case "algorithms agree" `Quick test_join_algorithms_agree;
          Alcotest.test_case "NULL keys never match" `Quick
            test_join_null_keys_never_match;
          Alcotest.test_case "residual predicates" `Quick
            test_join_residual_predicate;
          Alcotest.test_case "theta join fallback" `Quick
            test_theta_join_falls_back;
          Alcotest.test_case "equi-key extraction" `Quick test_split_equijoin;
        ] );
      ( "grouping",
        [
          Alcotest.test_case "NULL group keys" `Quick test_group_null_key;
          Alcotest.test_case "aggregate NULL rules" `Quick
            test_aggregate_null_rules;
          Alcotest.test_case "all-NULL group" `Quick test_aggregate_all_null_group;
          Alcotest.test_case "scalar agg on empty input" `Quick
            test_scalar_agg_empty_input;
          Alcotest.test_case "arithmetic over aggregates" `Quick
            test_agg_arith_expression;
          Alcotest.test_case "COUNT(DISTINCT)" `Quick test_count_distinct;
          Alcotest.test_case "aggregate edge cases" `Quick
            test_aggregate_edge_cases;
        ] );
      ("sort", [ Alcotest.test_case "ORDER BY semantics" `Quick test_sort ]);
      ( "order propagation",
        [
          Alcotest.test_case "claims and physical order" `Quick
            test_order_propagation;
          Alcotest.test_case "merge join skips presorted input" `Quick
            test_merge_join_skips_presorted;
          Alcotest.test_case "Map operator + order" `Quick test_map_operator;
          QCheck_alcotest.to_alcotest prop_claimed_order_is_real;
        ] );
      ( "multiset",
        [ Alcotest.test_case "multiset_equal" `Quick test_multiset_equal ] );
      ( "stats",
        [
          Alcotest.test_case "operator tree" `Quick test_optree;
          Alcotest.test_case "find_all" `Quick test_optree_find_all;
        ] );
      ( "batch pipeline",
        [
          Alcotest.test_case "batch-size invariance" `Quick
            test_batch_size_invariance;
          Alcotest.test_case "corpus differential" `Quick
            test_corpus_differential;
          Alcotest.test_case "generated differential" `Quick
            test_generated_differential;
          Alcotest.test_case "peak live rows" `Quick test_profile_peak;
          Alcotest.test_case "paged pool sweep" `Quick test_paged_pool_sweep;
        ] );
      ("properties", qsuite [ prop_join_algos_agree; prop_group_algos_agree ]);
    ]
