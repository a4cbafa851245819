(* The fuzz harness's own test suite: NULL-semantics comparator edge
   cases, the planted-comparator mutation smoke-test (the harness must
   catch a broken oracle and shrink the witness to a minimal repro),
   corpus round-tripping, and determinism. *)

open Eager_value
open Eager_schema
open Eager_exec
open Eager_core
open Eager_opt
open Eager_robust
open Eager_fuzz

let n = Value.Null
let i k = Value.Int k

(* ------------------------------------------------------------------ *)
(* comparator: multiset equality under =ⁿ *)

let test_multiset_null_semantics () =
  let eq = Exec.multiset_equal in
  let cases =
    [
      ("NULL equals NULL under =n", [ [| n |] ], [ [| n |] ], true);
      ("duplicates are significant", [ [| i 1 |]; [| i 1 |] ], [ [| i 1 |] ],
       false);
      ("order is not", [ [| i 1 |]; [| i 2 |] ], [ [| i 2 |]; [| i 1 |] ],
       true);
      ("NULL inside a wider row", [ [| n; i 1 |] ], [ [| n; i 1 |] ], true);
      ("NULL is not zero", [ [| n |] ], [ [| i 0 |] ], false);
      ("multiplicity of NULL rows", [ [| n |]; [| n |] ], [ [| n |] ], false);
    ]
  in
  List.iter
    (fun (what, a, b, want) -> Alcotest.(check bool) what want (eq a b))
    cases

(* ------------------------------------------------------------------ *)
(* engine-level NULL semantics, via hand-built cases *)

let base =
  {
    Qgen.s_key = Qgen.No_key;
    r_rows = [];
    s_rows = [ (i 1, i 1) ];
    c1 = 0;
    c0 = 0;
    c2 = 0;
    ga1_b = true;
    ga2_x = false;
    ga2_y = false;
    agg = 1 (* SUM *);
    distinct_subset = false;
  }

let e1_rows c =
  match Qgen.build c with
  | Error m -> Alcotest.failf "build: %s" m
  | Ok (db, q) -> Exec.run_rows db (Eager_core.Plans.e1 db q)

let check_rows what want got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: want %s, got %s" what
       (String.concat ";" (List.map Row.to_string want))
       (String.concat ";" (List.map Row.to_string got)))
    true
    (Exec.multiset_equal want got)

let test_null_groups_merge () =
  (* NULL group keys compare equal under GROUP BY: both rows land in one
     group even though NULL = NULL is unknown in a WHERE *)
  let c = { base with Qgen.r_rows = [ (i 1, n, i 5); (i 1, n, i 7) ] } in
  check_rows "one NULL-keyed group" [ [| n; i 12 |] ] (e1_rows c)

let test_sum_ignores_null () =
  let c = { base with Qgen.r_rows = [ (i 1, i 1, n); (i 1, i 1, i 3) ] } in
  check_rows "SUM skips NULL inputs" [ [| i 1; i 3 |] ] (e1_rows c)

let test_sum_of_all_nulls_is_null () =
  let c = { base with Qgen.r_rows = [ (i 1, i 1, n) ] } in
  check_rows "SUM over only NULLs is NULL" [ [| i 1; n |] ] (e1_rows c)

let test_count_col_vs_count_star () =
  let rows = [ (i 1, i 1, n); (i 1, i 1, i 3) ] in
  check_rows "COUNT(col) ignores NULL"
    [ [| i 1; i 1 |] ]
    (e1_rows { base with Qgen.r_rows = rows; agg = 0 });
  check_rows "COUNT(*) counts NULL rows too"
    [ [| i 1; i 2 |] ]
    (e1_rows { base with Qgen.r_rows = rows; agg = 6 })

let test_avg_ignores_null () =
  let rows = [ (i 1, i 1, n); (i 1, i 1, i 3); (i 1, i 1, i 5) ] in
  check_rows "AVG over non-NULLs only"
    [ [| i 1; Value.Float 4.0 |] ]
    (e1_rows { base with Qgen.r_rows = rows; agg = 4 })

let test_empty_group_is_no_row () =
  (* grouped query over an empty input: zero rows, not one NULL row *)
  check_rows "empty input, grouped" [] (e1_rows { base with Qgen.r_rows = [] })

let test_distinct_subset_dedups () =
  (* group by (R.b, S.x); the Theorem 2 variant drops R.b from the
     SELECT.  Two groups with equal aggregate values become duplicate
     output rows: ALL keeps both, DISTINCT collapses them *)
  let rows = [ (i 1, i 1, i 5); (i 1, i 2, i 5) ] in
  let c = { base with Qgen.r_rows = rows; ga1_b = true; ga2_x = true } in
  check_rows "ALL keeps duplicate projected rows"
    [ [| i 1; i 1; i 5 |]; [| i 2; i 1; i 5 |] ]
    (e1_rows c);
  check_rows "DISTINCT subset collapses them"
    [ [| i 1; i 5 |] ]
    (e1_rows { c with Qgen.distinct_subset = true })

(* ------------------------------------------------------------------ *)
(* force hooks *)

let fixed_yes =
  (* S.x is a declared key and the join is a = x grouped on S.x: TestFD
     certifies the rewrite *)
  {
    base with
    Qgen.s_key = Qgen.Primary_x;
    r_rows = [ (i 1, i 1, i 5); (i 1, i 2, i 7); (i 2, i 1, i 9) ];
    s_rows = [ (i 1, i 1); (i 2, i 2) ];
    c0 = 1;
    ga1_b = false;
    ga2_x = true;
  }

let fixed_no =
  (* no key on S: FD2 is unverifiable, TestFD answers NO *)
  { fixed_yes with Qgen.s_key = Qgen.No_key }

let build_exn c =
  match Qgen.build c with
  | Ok (db, q) -> (db, q)
  | Error m -> Alcotest.failf "build: %s" m

let test_force_verdicts () =
  let db, q = build_exn fixed_yes in
  (match Planner.decide db q with
  | Ok d -> (
      match d.Planner.verdict with
      | Testfd.Yes -> ()
      | Testfd.No r -> Alcotest.failf "expected YES, got NO (%s)" r)
  | Error e -> Alcotest.failf "decide: %s" (Err.to_string e));
  let db', q' = build_exn fixed_no in
  match Planner.decide db' q' with
  | Ok d -> (
      match d.Planner.verdict with
      | Testfd.No _ -> ()
      | Testfd.Yes -> Alcotest.fail "expected NO on the keyless instance")
  | Error e -> Alcotest.failf "decide: %s" (Err.to_string e)

(* the paper's E2 is the full placement at the default (R1) cut *)
let force_e2 q =
  Planner.Force_placement { below = Planner.default_cut q; partial = false }

let test_force_e2_refused_when_invalid () =
  let db, q = build_exn fixed_no in
  match Planner.decide ~force:(force_e2 q) db q with
  | Ok _ -> Alcotest.fail "forced E2 must be refused when TestFD says NO"
  | Error e ->
      Alcotest.(check string)
        "refusal is a typed Planner error" "Planner"
        (Err.kind_to_string (Err.kind e))

let test_force_explain_says_forced () =
  let db, q = build_exn fixed_yes in
  List.iter
    (fun force ->
      match Planner.decide ~force db q with
      | Error e -> Alcotest.failf "force: %s" (Err.to_string e)
      | Ok d ->
          let text = Explain.text db d in
          let has_forced =
            let needle = "forced" in
            let nl = String.length needle and tl = String.length text in
            let rec scan i =
              i + nl <= tl && (String.sub text i nl = needle || scan (i + 1))
            in
            scan 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "explain mentions 'forced' for %s"
               (Planner.force_to_string force))
            true has_forced)
    [ Planner.E1; force_e2 q ]

(* ------------------------------------------------------------------ *)
(* the oracle on fixed instances, faults and budgets included *)

let test_oracle_green_on_fixed_cases () =
  List.iter
    (fun (what, c) ->
      match (Oracle.check ~faults:true ~fault_seed:7 c).Oracle.violation with
      | None -> ()
      | Some v ->
          Alcotest.failf "%s: unexpected violation %s" what
            (Oracle.violation_to_string v))
    [ ("yes-case", fixed_yes); ("no-case", fixed_no) ]

(* the same oracle over the paged engine: a small pool pushes scans
   through the buffer pool and the breakers onto scratch runs, and no
   verdict may change — plus the seeded IO-fault schedules now have
   live storage points to trip *)
let test_oracle_green_on_paged_engine () =
  let storage =
    {
      Eager_storage.Database.pool_pages = Some 8;
      page_size = 1024;
      spill_dir = None;
    }
  in
  let cases =
    [ ("yes-case", fixed_yes); ("no-case", fixed_no) ]
    @ List.init 4 (fun k ->
          let seed = 4200 + k in
          ( Printf.sprintf "gen seed %d" seed,
            Qgen.generate (Eager_workload.Gen.make2 777 seed) ))
  in
  List.iter
    (fun (what, c) ->
      match
        (Oracle.check ~faults:true ~fault_seed:7 ~storage c).Oracle.violation
      with
      | None -> ()
      | Some v ->
          Alcotest.failf "%s (paged): unexpected violation %s" what
            (Oracle.violation_to_string v))
    cases

(* ------------------------------------------------------------------ *)
(* mutation smoke-test: a planted comparator bug must be caught and
   shrunk to a minimal repro *)

(* the planted bug: row equality via SQL WHERE-style 3VL, under which
   NULL never equals NULL — any result containing a NULL now "differs"
   from itself *)
let null_hostile_equal a b =
  let row_eq r1 r2 =
    Array.length r1 = Array.length r2
    && Array.for_all2 (fun v1 v2 -> v1 = v2 && v1 <> Value.Null) r1 r2
  in
  let rec remove_first r = function
    | [] -> None
    | r' :: rest ->
        if row_eq r r' then Some rest
        else Option.map (fun t -> r' :: t) (remove_first r rest)
  in
  let rec go xs ys =
    match (xs, ys) with
    | [], [] -> true
    | x :: xs', _ -> (
        match remove_first x ys with
        | Some ys' -> go xs' ys'
        | None -> false)
    | [], _ :: _ -> false
  in
  go a b

let corpus_tmp =
  Filename.concat (Filename.get_temp_dir_name ()) "eagerdb-fuzz-mutation"

let test_mutation_caught_and_shrunk () =
  let cfg =
    {
      Fuzz.default_config with
      Fuzz.seed = 42;
      iters = 60;
      faults = false;
      corpus_dir = Some corpus_tmp;
    }
  in
  let s = Fuzz.run ~equal:null_hostile_equal cfg in
  Alcotest.(check bool)
    "the planted comparator bug is caught" true
    (s.Fuzz.failures <> []);
  let f = List.hd s.Fuzz.failures in
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to <= 3 rows per table, got R=%d S=%d: %s"
       (List.length f.Fuzz.shrunk.Qgen.r_rows)
       (List.length f.Fuzz.shrunk.Qgen.s_rows)
       (Qgen.to_string f.Fuzz.shrunk))
    true
    (List.length f.Fuzz.shrunk.Qgen.r_rows <= 3
    && List.length f.Fuzz.shrunk.Qgen.s_rows <= 3);
  (* the shrunk witness still trips the planted bug... *)
  (match
     (Oracle.check ~equal:null_hostile_equal ~faults:false f.Fuzz.shrunk)
       .Oracle.violation
   with
  | Some _ -> ()
  | None -> Alcotest.fail "shrunk case no longer fails the broken comparator");
  (* ...and is innocent under the real comparator: the bug is in the
     oracle's eye, not the engine *)
  (match (Oracle.check ~faults:false f.Fuzz.shrunk).Oracle.violation with
  | None -> ()
  | Some v ->
      Alcotest.failf "shrunk case fails the real oracle: %s"
        (Oracle.violation_to_string v));
  (* the repro was serialised and replays: red under the planted bug,
     green under the real oracle *)
  match f.Fuzz.corpus_path with
  | None -> Alcotest.fail "no corpus file written"
  | Some path -> (
      (match Corpus.replay_file ~equal:null_hostile_equal ~faults:false path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "replay under the planted bug should be red");
      match Corpus.replay_file path with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "replay under the real oracle: %s" msg)

(* ------------------------------------------------------------------ *)
(* corpus round-trip and checked-in regression anchors *)

let test_sql_round_trip () =
  (* SQL emission re-parses and re-binds to an instance the oracle still
     accepts, across a spread of generated shapes *)
  for seed = 0 to 19 do
    let case = Qgen.generate (Eager_workload.Gen.make2 777 seed) in
    match Corpus.replay_sql ~faults:false (Qgen.to_sql case) with
    | Ok 1 -> ()
    | Ok k -> Alcotest.failf "seed %d: %d selects, expected 1" seed k
    | Error msg -> Alcotest.failf "seed %d: %s" seed msg
  done

let test_checked_in_corpus_replays () =
  (* under `dune runtest` the cwd is _build/default/test and the glob
     dep materialises ../corpus; direct invocation runs from the root *)
  let dir = if Sys.file_exists "../corpus" then "../corpus" else "corpus" in
  match Corpus.replay_dir dir with
  | Ok (files, selects) ->
      Alcotest.(check bool)
        (Printf.sprintf "at least one anchor (%d files, %d selects)" files
           selects)
        true (files >= 1 && selects >= files)
  | Error msg -> Alcotest.failf "corpus replay: %s" msg

(* ------------------------------------------------------------------ *)
(* determinism: a config determines its summary exactly *)

let test_determinism () =
  let cfg = { Fuzz.default_config with Fuzz.seed = 9; iters = 40 } in
  let a = Fuzz.run cfg and b = Fuzz.run cfg in
  Alcotest.(check bool) "identical summaries" true (a = b);
  let c = Fuzz.run { cfg with Fuzz.seed = 10 } in
  Alcotest.(check bool) "a different seed explores differently" true
    (a.Fuzz.yes <> c.Fuzz.yes || a.Fuzz.no <> c.Fuzz.no || a = c)

(* the multi-way loop: green on a seeded window, and deterministic *)
let test_multiway_green_and_deterministic () =
  let cfg = { Fuzz.default_config with Fuzz.seed = 20260806; iters = 60 } in
  let a = Fuzz.run_multiway cfg in
  (match a.Fuzz.mw_failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "multi-way iteration %d: %s" f.Fuzz.mw_iteration
        (Oracle.violation_to_string f.Fuzz.mw_violation));
  Alcotest.(check int) "all iterations ran" 60 a.Fuzz.mw_iterations;
  Alcotest.(check bool) "verdicts were counted" true
    (a.Fuzz.mw_yes + a.Fuzz.mw_no = 60);
  let b = Fuzz.run_multiway cfg in
  Alcotest.(check bool) "identical summaries" true (a = b)

(* a multi-way case round-trips through the SQL front door: parse,
   bind the N-relation FROM, re-canonicalise under the header hint and
   pass the full oracle — the same path a corpus replay takes *)
let test_multiway_sql_round_trip () =
  let case = Mgen.generate (Eager_workload.Gen.make2 20260806 7) in
  match Corpus.replay_sql ~faults:false (Mgen.to_sql case) with
  | Ok n -> Alcotest.(check int) "one SELECT checked" 1 n
  | Error msg -> Alcotest.failf "multi-way round trip: %s" msg

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fuzz"
    [
      ( "comparator",
        [
          Alcotest.test_case "multiset =n semantics" `Quick
            test_multiset_null_semantics;
        ] );
      ( "null-semantics",
        [
          Alcotest.test_case "NULL group keys merge" `Quick
            test_null_groups_merge;
          Alcotest.test_case "SUM ignores NULL" `Quick test_sum_ignores_null;
          Alcotest.test_case "SUM of only NULLs" `Quick
            test_sum_of_all_nulls_is_null;
          Alcotest.test_case "COUNT col vs star" `Quick
            test_count_col_vs_count_star;
          Alcotest.test_case "AVG ignores NULL" `Quick test_avg_ignores_null;
          Alcotest.test_case "empty group yields no row" `Quick
            test_empty_group_is_no_row;
          Alcotest.test_case "DISTINCT subset dedups" `Quick
            test_distinct_subset_dedups;
        ] );
      ( "force-hooks",
        [
          Alcotest.test_case "verdicts on fixed cases" `Quick
            test_force_verdicts;
          Alcotest.test_case "forced E2 refused on NO" `Quick
            test_force_e2_refused_when_invalid;
          Alcotest.test_case "explain reports forcing" `Quick
            test_force_explain_says_forced;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "green on the paged engine (faults on)" `Quick
            test_oracle_green_on_paged_engine;
          Alcotest.test_case "green on fixed cases (faults on)" `Quick
            test_oracle_green_on_fixed_cases;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "planted comparator bug caught + shrunk" `Quick
            test_mutation_caught_and_shrunk;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "SQL round-trips through the front door" `Quick
            test_sql_round_trip;
          Alcotest.test_case "multi-way SQL round-trips too" `Quick
            test_multiway_sql_round_trip;
          Alcotest.test_case "checked-in anchors replay green" `Quick
            test_checked_in_corpus_replays;
        ] );
      ( "multiway",
        [
          Alcotest.test_case "placement sweep green + deterministic" `Quick
            test_multiway_green_and_deterministic;
        ] );
      ( "determinism",
        [ Alcotest.test_case "seed determines summary" `Quick test_determinism ];
      );
    ]
