(* Robustness tests: the typed error channel, the fault-injection
   harness (100+ seeded schedules), write atomicity under injected
   crashes, the resource governor, planner degradation to E1, crash-safe
   snapshots, corruption rejection, and derived-index eviction on
   drop/recreate. *)

open Eager_value
open Eager_schema
open Eager_expr
open Eager_catalog
open Eager_storage
open Eager_algebra
open Eager_exec
open Eager_core
open Eager_opt
open Eager_parser
open Eager_robust
open Eager_workload

let cr = Colref.make
let i n = Value.Int n

let coldef name ctype : Table_def.column_def =
  { Table_def.cname = name; ctype; domain = None }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go k = k + m <= n && (String.sub s k m = sub || go (k + 1)) in
  go 0

let check_contains name sub s =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S in %S" name sub s)
    true (contains s sub)

let decide_ok ?governor db q =
  match Planner.decide ?governor db q with
  | Ok d -> d
  | Error e -> Alcotest.fail ("Planner.decide: " ^ Err.to_string e)

let check_kind name kind = function
  | Ok _ -> Alcotest.fail (name ^ ": expected Error, got Ok")
  | Error e ->
      Alcotest.(check string)
        (name ^ ": error kind")
        (Err.kind_to_string kind)
        (Err.kind_to_string (Err.kind e))

let tmpdir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  dir

(* K(id PK, v) with two rows — the victim table for write faults *)
let small_db () =
  let db = Database.create () in
  Database.create_table db
    (Table_def.make "K"
       [ coldef "id" Ctype.Int; coldef "v" Ctype.Int ]
       [ Constr.Primary_key [ "id" ] ]);
  Database.load db "K" [ [ i 1; i 10 ]; [ i 2; i 20 ] ];
  db

let k_schema =
  Schema.make [ (cr "K" "id", Ctype.Int); (cr "K" "v", Ctype.Int) ]

let scan_k = Plan.scan ~table:"K" ~rel:"K" k_schema
let k_len db = Heap.length (Database.heap db "K")

let select db sql =
  match Binder.bind_select db (Parser.parse_select sql) with
  | Error msg -> Alcotest.fail ("bind: " ^ msg)
  | Ok b -> (
      match Binder.to_plan db b with
      | Error msg -> Alcotest.fail ("plan: " ^ msg)
      | Ok plan -> Exec.run_rows db plan)

(* ---------------- the error channel itself ---------------- *)

let test_err_channel () =
  let e = Err.add_context "loading x" (Err.storage "boom %d" 7) in
  Alcotest.(check string) "to_string" "[Storage] boom 7 (while loading x)"
    (Err.to_string e);
  List.iter
    (fun (point, kind) ->
      Alcotest.(check string)
        ("of_fault " ^ point)
        (Err.kind_to_string kind)
        (Err.kind_to_string (Err.kind (Err.of_fault point))))
    [
      ("storage.write", Err.Storage);
      ("heap.append", Err.Storage);
      ("persist.rename", Err.Io);
      ("exec.next", Err.Exec);
      ("opt.testfd", Err.Planner);
      ("repl.send", Err.Io);
      ("repl.recv", Err.Io);
      ("backup.copy", Err.Io);
    ];
  (* protect adopts every escape hatch *)
  check_kind "legacy failwith" Err.Exec
    (Err.protect ~kind:Err.Exec (fun () -> failwith "legacy"));
  check_kind "Error_exn" Err.Resource
    (Err.protect ~kind:Err.Exec (fun () ->
         Err.raise_ (Err.resource "budget")));
  check_kind "Fault_injected" Err.Io
    (Err.protect ~kind:Err.Exec (fun () ->
         raise (Err.Fault_injected "persist.write")));
  check_kind "Sys_error" Err.Io
    (Err.protect ~kind:Err.Exec (fun () ->
         ignore (open_in "/nonexistent/robust"); ()))

(* ------------------- clock monotonicity (failover) ------------------ *)

(* The failover machinery (lease deadlines, election backoff) trusts
   [Clock.now_ms] never to step backwards.  The [clock.jump] fault
   subtracts 10 s from the raw wall sample before monotonisation — a
   fake NTP correction the high-water clamp must absorb. *)
let test_clock_monotone_under_jumps () =
  Fault.reset ();
  (* establish a high-water mark with the fault disarmed *)
  let base = Clock.now_ms () in
  (* every subsequent sample jumps 10 s backwards *)
  Fault.arm_seeded ~seed:11 ~rate:1.0 ~points:[ "clock.jump" ] ();
  let prev = ref base in
  for i = 1 to 200 do
    let t = Clock.now_ms () in
    if t < !prev then
      Alcotest.fail
        (Printf.sprintf
           "clock stepped backwards at sample %d: %.3f after %.3f" i t !prev);
    prev := t
  done;
  Fault.reset ();
  (* disarmed again: the clock resumes real time without a discontinuity
     below the water mark *)
  let after = Clock.now_ms () in
  Alcotest.(check bool) "post-fault sample not below the mark" true
    (after >= !prev);
  Alcotest.(check bool) "post-fault sample not below pre-fault time" true
    (after >= base);
  (* seeded sub-1.0 rates interleave jumped and honest samples; the
     clamp must hold across the mix as well *)
  Fault.arm_seeded ~seed:23 ~rate:0.4 ~points:[ "clock.jump" ] ();
  let prev = ref (Clock.now_ms ()) in
  for _ = 1 to 200 do
    let t = Clock.now_ms () in
    Alcotest.(check bool) "mixed schedule stays monotone" true (t >= !prev);
    prev := t
  done;
  Fault.reset ()

let test_registry () =
  Alcotest.(check (slist string compare))
    "every compiled-in point is registered"
    [
      "storage.write"; "heap.append"; "persist.rename"; "persist.write";
      "exec.next"; "opt.testfd"; "opt.cost"; "wal.append"; "wal.fsync";
      "wal.truncate"; "wal.replay"; "wal.group_commit"; "server.accept";
      "server.read"; "repl.send"; "repl.recv"; "backup.copy";
      "repl.lease"; "server.election"; "wal.epoch"; "clock.jump";
      "wal.slow_fsync"; "storage.page_read"; "storage.page_write";
      "exec.spill";
    ]
    Fault.all_points

(* ---------------- each point fires as a typed error ---------------- *)

let test_points_fire () =
  let db = small_db () in
  let fire point f =
    Fault.reset ();
    Fault.arm_nth point 1;
    let r = f () in
    Alcotest.(check bool) (point ^ " disarmed after firing") false
      (Fault.armed ());
    (match r with
    | Ok _ -> Alcotest.fail (point ^ ": expected a typed error")
    | Error e -> check_contains point "injected fault" (Err.to_string e));
    Fault.reset ();
    r
  in
  ignore
    (fire "storage.write" (fun () ->
         Database.insert_result db "K" [ i 9; i 90 ]));
  Alcotest.(check int) "no partial insert (storage.write)" 2 (k_len db);
  ignore
    (fire "heap.append" (fun () ->
         Database.insert_result db "K" [ i 9; i 90 ]));
  Alcotest.(check int) "no partial insert (heap.append)" 2 (k_len db);
  check_kind "exec.next is Exec" Err.Exec
    (fire "exec.next" (fun () -> Exec.run_checked db scan_k));
  let dir = tmpdir "eagerdb_robust_points" in
  check_kind "persist.write is Io" Err.Io
    (fire "persist.write" (fun () -> Persist.save db ~dir));
  check_kind "persist.rename is Io" Err.Io
    (fire "persist.rename" (fun () -> Persist.save db ~dir));
  (* the database is untouched by all of the above *)
  Alcotest.(check int) "table intact" 2 (k_len db);
  (* paged IO points fire through the buffer pool and the spill store *)
  let pool = Buffer_pool.create () in
  let pgr = Pager.create_mem ~page_size:256 () in
  let pid = Buffer_pool.append_page pool pgr [| [| i 1; i 2 |] |] in
  check_kind "storage.page_write is Storage" Err.Storage
    (fire "storage.page_write" (fun () ->
         Err.protect ~kind:Err.Storage (fun () ->
             Buffer_pool.append_page pool pgr [| [| i 3; i 4 |] |])));
  check_kind "storage.page_read is Storage" Err.Storage
    (fire "storage.page_read" (fun () ->
         Err.protect ~kind:Err.Storage (fun () ->
             Buffer_pool.read_page pool pgr pid)));
  check_kind "exec.spill is Exec" Err.Exec
    (fire "exec.spill" (fun () ->
         Err.protect ~kind:Err.Exec (fun () ->
             let scratch = Pager.create_mem ~page_size:256 () in
             let sp =
               Spill.make ~pool ~scratch ~budget_pages:2 ~page_rows:4
             in
             Fun.protect
               ~finally:(fun () ->
                 Spill.cleanup sp;
                 Pager.close scratch)
               (fun () ->
                 let n = ref 0 in
                 let input () =
                   if !n < 200 then begin
                     incr n;
                     Some [| i !n |]
                   end
                   else None
                 in
                 let out = Spill.sort sp ~cmp:compare input in
                 let rec drain () =
                   match out () with Some _ -> drain () | None -> ()
                 in
                 drain ()))))

(* ------------- write atomicity under injected crashes ------------- *)

let test_write_atomicity () =
  let db = small_db () in
  let before = Heap.to_list (Database.heap db "K") in
  let id1 = Expr.eq (Expr.col "K" "id") (Expr.int 1) in
  Fault.reset ();
  (* delete: fault before the heap mutation *)
  Fault.arm_nth "storage.write" 1;
  (match Database.delete db "K" ~where:id1 () with
  | Ok _ -> Alcotest.fail "delete should have been aborted"
  | Error e -> check_contains "delete abort" "injected fault" (Err.to_string e));
  Alcotest.(check bool) "delete aborted, rows intact" true
    (Exec.multiset_equal before (Heap.to_list (Database.heap db "K")));
  (* update goes through Heap.replace_all: all-or-nothing swap *)
  Fault.reset ();
  Fault.arm_nth "heap.append" 1;
  (match
     Database.update db "K" ~set:[ ("v", Expr.int 99) ] ~where:id1 ()
   with
  | Ok _ -> Alcotest.fail "update should have been aborted"
  | Error e -> check_contains "update abort" "injected fault" (Err.to_string e));
  Alcotest.(check bool) "update aborted, rows intact" true
    (Exec.multiset_equal before (Heap.to_list (Database.heap db "K")));
  Fault.reset ();
  (* with nothing armed, the same statements go through *)
  (match Database.update db "K" ~set:[ ("v", Expr.int 99) ] ~where:id1 () with
  | Ok n -> Alcotest.(check int) "update applies after disarm" 1 n
  | Error e -> Alcotest.fail (Err.to_string e));
  match Database.delete db "K" ~where:id1 () with
  | Ok n -> Alcotest.(check int) "delete applies after disarm" 1 n
  | Error e -> Alcotest.fail (Err.to_string e)

(* ---------------- 120 seeded random schedules ---------------- *)

let test_random_schedules () =
  let w = Employee_dept.setup ~employees:80 ~departments:8 () in
  let db = w.Employee_dept.db and q = w.Employee_dept.query in
  let victim = small_db () in
  let emp_len () = Heap.length (Database.heap db "Employee") in
  let oks = ref 0 and errs = ref 0 and fired = ref 0 in
  let next_id = ref 100 and expected = ref (k_len victim) in
  let attempt f =
    match Err.protect ~kind:Err.Exec f with
    | Ok _ -> incr oks
    | Error _ -> incr errs
  in
  for seed = 0 to 119 do
    (try
       Fault.with_seeded ~seed ~rate:0.003 (fun () ->
           attempt (fun () -> Exec.run_rows db (Plans.e1 db q));
           attempt (fun () -> Exec.run_rows db (Plans.e2 db q));
           attempt (fun () ->
               match Planner.decide db q with
               | Ok d -> d
               | Error e -> Err.raise_ e);
           (* a write either lands wholly or not at all *)
           (match Database.insert_result victim "K" [ i !next_id; i 0 ] with
           | Ok () ->
               incr next_id;
               incr expected
           | Error _ -> ());
           Alcotest.(check int)
             (Printf.sprintf "seed %d: no partial write" seed)
             !expected (k_len victim);
           fired := !fired + Fault.fired_count ())
     with exn ->
       Alcotest.fail
         (Printf.sprintf "seed %d leaked exception: %s" seed
            (Printexc.to_string exn)));
    (* read-only queries never touch base tables, even when aborted *)
    Alcotest.(check int)
      (Printf.sprintf "seed %d: workload tables intact" seed)
      80 (emp_len ())
  done;
  Alcotest.(check bool)
    (Printf.sprintf "schedules actually injected (fired %d)" !fired)
    true (!fired > 0);
  Alcotest.(check bool)
    (Printf.sprintf "mixed outcomes (ok %d, err %d)" !oks !errs)
    true
    (!oks > 0 && !errs > 0);
  (* the session is healthy after all 120 schedules *)
  Fault.reset ();
  (match Database.insert_result victim "K" [ i !next_id; i 0 ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("post-run insert: " ^ Err.to_string e));
  Alcotest.(check int) "post-run scan" (!expected + 1) (k_len victim)

(* ---------------- resource governor ---------------- *)

let test_governor () =
  let w = Employee_dept.setup ~employees:400 ~departments:10 () in
  let db = w.Employee_dept.db and q = w.Employee_dept.query in
  let e1 = Plans.e1 db q and e2 = Plans.e2 db q in
  let lim l = { Exec.default_options with Exec.governor = Governor.create l } in
  let r =
    Exec.run_rows_checked
      ~options:(lim { Governor.no_limits with Governor.max_rows = Some 50 })
      db e1
  in
  check_kind "max_rows breach" Err.Resource r;
  (match r with
  | Error e -> check_contains "max_rows message" "row budget" (Err.msg e)
  | Ok _ -> ());
  let r =
    Exec.run_rows_checked
      ~options:(lim { Governor.no_limits with Governor.max_groups = Some 2 })
      db e2
  in
  check_kind "max_groups breach" Err.Resource r;
  (match r with
  | Error e -> check_contains "max_groups message" "aggregation" (Err.msg e)
  | Ok _ -> ());
  let r =
    Exec.run_rows_checked
      ~options:(lim { Governor.no_limits with Governor.deadline_ms = Some 0. })
      db e1
  in
  check_kind "deadline breach" Err.Resource r;
  (match r with
  | Error e -> check_contains "deadline message" "deadline" (Err.msg e)
  | Ok _ -> ());
  (* the aborted statements left the session fully usable *)
  Alcotest.(check int) "base table intact" 400
    (Heap.length (Database.heap db "Employee"));
  match Exec.run_rows_checked db e1 with
  | Ok rows ->
      Alcotest.(check int) "unlimited rerun groups" 10 (List.length rows)
  | Error e -> Alcotest.fail ("unlimited rerun: " ^ Err.to_string e)

(* ---------------- planner degradation ---------------- *)

let test_planner_fallback () =
  let w = Employee_dept.setup ~employees:200 ~departments:10 () in
  let db = w.Employee_dept.db and q = w.Employee_dept.query in
  Fault.reset ();
  let d0 = decide_ok db q in
  Alcotest.(check bool) "healthy decide has no fallback" true
    (d0.Planner.fallback = None);
  let demoted name =
    let d = decide_ok db q in
    Fault.reset ();
    check_contains (name ^ " demotes to E1") "E1"
      (Placement.mode_to_string (Planner.chosen_candidate d).Placement.mode);
    Alcotest.(check bool) (name ^ " records a reason") true
      (d.Planner.fallback <> None);
    check_contains (name ^ " explain") "fallback" (Explain.text db d)
  in
  Fault.arm_nth "opt.testfd" 1;
  demoted "opt.testfd fault";
  Fault.arm_nth "opt.cost" 1;
  demoted "opt.cost fault";
  (* a blown deadline during optimization demotes instead of aborting *)
  let gov =
    Governor.create { Governor.no_limits with Governor.deadline_ms = Some 0. }
  in
  let d = decide_ok ~governor:gov db q in
  Alcotest.(check bool) "deadline demotes" true (d.Planner.fallback <> None);
  (* decide survives even an unplannable query *)
  match Planner.decide db q with
  | Ok d -> Alcotest.(check bool) "checked healthy" true (d.Planner.fallback = None)
  | Error e -> Alcotest.fail (Err.to_string e)

let test_testfd_unknown_table () =
  let w = Employee_dept.setup ~employees:20 ~departments:4 () in
  let db = w.Employee_dept.db and q = w.Employee_dept.query in
  (match Database.drop_table db "Department" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Err.to_string e));
  match Testfd.test db q with
  | Testfd.Yes -> Alcotest.fail "TestFD said YES about a missing table"
  | Testfd.No reason -> check_contains "verdict" "cannot verify" reason

(* ---------------- crash-safe persistence ---------------- *)

let test_crash_safe_save () =
  let db = small_db () in
  let dir = tmpdir "eagerdb_robust_crash" in
  (match Persist.save db ~dir with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("first save: " ^ Err.to_string e));
  (match Database.insert_result db "K" [ i 3; i 30 ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Err.to_string e));
  let old_loadable name =
    match Persist.load ~dir () with
    | Ok db' ->
        Alcotest.(check int) (name ^ ": previous snapshot intact") 2
          (k_len db')
    | Error e -> Alcotest.fail (name ^ ": " ^ Err.to_string e)
  in
  List.iter
    (fun point ->
      Fault.reset ();
      Fault.arm_nth point 1;
      (match Persist.save db ~dir with
      | Ok () -> Alcotest.fail (point ^ ": save should have failed")
      | Error e -> check_contains point "injected fault" (Err.to_string e));
      Fault.reset ();
      old_loadable ("after " ^ point))
    [ "persist.write"; "persist.rename" ];
  (* and the next unarmed save publishes the new state atomically *)
  (match Persist.save db ~dir with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("final save: " ^ Err.to_string e));
  match Persist.load ~dir () with
  | Ok db' -> Alcotest.(check int) "new snapshot visible" 3 (k_len db')
  | Error e -> Alcotest.fail (Err.to_string e)

let test_snapshot_corruption () =
  let db = small_db () in
  let dir = tmpdir "eagerdb_robust_corrupt" in
  (match Persist.save db ~dir with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Err.to_string e));
  let file = Filename.concat dir "snapshot.eagerdb" in
  let original =
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let len = String.length original in
  let flipped =
    let b = Bytes.of_string original in
    let k = len / 2 in
    Bytes.set b k (if Bytes.get b k = 'x' then 'y' else 'x');
    Bytes.to_string b
  in
  let cases =
    [
      ("empty file", "");
      ("truncated header", String.sub original 0 10);
      ("torn mid-file", String.sub original 0 (len / 2));
      ("checksum line cut off", String.sub original 0 (len - 44));
      ("flipped byte", flipped);
      ("trailing garbage", original ^ "junk\n");
    ]
  in
  List.iter
    (fun (name, content) ->
      let oc = open_out_bin file in
      output_string oc content;
      close_out oc;
      match Persist.load ~dir () with
      | Ok _ -> Alcotest.fail (name ^ ": corrupted snapshot was accepted")
      | Error e -> check_kind name Err.Io (Error e))
    cases;
  (* restoring the bytes restores loadability: rejection was content-based *)
  let oc = open_out_bin file in
  output_string oc original;
  close_out oc;
  match Persist.load ~dir () with
  | Ok db' -> Alcotest.(check int) "restored snapshot loads" 2 (k_len db')
  | Error e -> Alcotest.fail (Err.to_string e)

(* ---------------- index eviction on drop/recreate ---------------- *)

let test_index_eviction () =
  let db = small_db () in
  (* sanity: the PK is live *)
  Alcotest.(check bool) "duplicate rejected" true
    (Result.is_error (Database.insert db "K" [ i 1; i 99 ]));
  (match Database.drop_table db "K" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Err.to_string e));
  check_kind "heap of dropped table" Err.Storage
    (Err.protect ~kind:Err.Storage (fun () -> Database.heap db "K"));
  Database.create_table db
    (Table_def.make "K"
       [ coldef "id" Ctype.Int; coldef "v" Ctype.Int ]
       [ Constr.Primary_key [ "id" ] ]);
  (* a stale key index would still hold id=1 and wrongly report a dup *)
  (match Database.insert_result db "K" [ i 1; i 10 ] with
  | Ok () -> ()
  | Error e ->
      Alcotest.fail ("stale index after recreate: " ^ Err.to_string e));
  Alcotest.(check int) "fresh table has one row" 1 (k_len db);
  (* secondary indexes are evicted too: recreate and query by the old key *)
  (match Database.create_index db ~name:"kv" ~table:"K" ~cols:[ "v" ] with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "index lookup" 1
    (List.length (select db "SELECT K.id FROM K K WHERE K.v = 10"));
  (match Database.drop_table db "K" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Err.to_string e));
  Database.create_table db
    (Table_def.make "K"
       [ coldef "id" Ctype.Int; coldef "v" Ctype.Int ]
       [ Constr.Primary_key [ "id" ] ]);
  Database.load db "K" [ [ i 2; i 7 ] ];
  Alcotest.(check int) "old key finds nothing" 0
    (List.length (select db "SELECT K.id FROM K K WHERE K.v = 10"));
  Alcotest.(check int) "new key found by scan" 1
    (List.length (select db "SELECT K.id FROM K K WHERE K.v = 7"))

(* ---------------- typed scan arity diagnostics ---------------- *)

let test_scan_arity () =
  let db = small_db () in
  let bad =
    Schema.make
      [
        (cr "K" "id", Ctype.Int); (cr "K" "v", Ctype.Int);
        (cr "K" "ghost", Ctype.Int);
      ]
  in
  let r = Exec.run_checked db (Plan.scan ~table:"K" ~rel:"K" bad) in
  check_kind "arity mismatch is Exec" Err.Exec r;
  match r with
  | Error e ->
      check_contains "names the table" "K" (Err.msg e);
      check_contains "describes the mismatch" "arity mismatch" (Err.msg e);
      check_contains "expected arity" "3" (Err.msg e);
      check_contains "actual arity" "2" (Err.msg e)
  | Ok _ -> ()

let () =
  Alcotest.run "robust"
    [
      ( "errors",
        [
          Alcotest.test_case "typed channel" `Quick test_err_channel;
          Alcotest.test_case "scan arity" `Quick test_scan_arity;
        ] );
      ( "faults",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "clock monotone under backward jumps" `Quick
            test_clock_monotone_under_jumps;
          Alcotest.test_case "every point fires" `Quick test_points_fire;
          Alcotest.test_case "write atomicity" `Quick test_write_atomicity;
          Alcotest.test_case "120 seeded schedules" `Quick
            test_random_schedules;
        ] );
      ( "governor",
        [ Alcotest.test_case "limits abort, session lives" `Quick test_governor ] );
      ( "planner",
        [
          Alcotest.test_case "degrades to E1" `Quick test_planner_fallback;
          Alcotest.test_case "unknown table verdict" `Quick
            test_testfd_unknown_table;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "interrupted save" `Quick test_crash_safe_save;
          Alcotest.test_case "corruption rejected" `Quick
            test_snapshot_corruption;
        ] );
      ( "indexes",
        [ Alcotest.test_case "evicted on drop/recreate" `Quick test_index_eviction ] );
    ]
