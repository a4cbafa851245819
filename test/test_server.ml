(* Server tests: the monotonised clock, admission control (slots, FIFO
   fairness, the global row pool), the wire protocol's deadline-bounded
   framing, LSN-stamped snapshot reuse, and end-to-end socket sessions —
   concurrent writers sharing group commits, BUSY shed responses with
   retry-after hints, typed mid-stream Resource degradation, STATUS
   telemetry, injected server.* faults, and die-on-broken-wal. *)

open Eager_storage
open Eager_parser
open Eager_durable
open Eager_robust
open Eager_server

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go k = k + m <= n && (String.sub s k m = sub || go (k + 1)) in
  go 0

let fresh_path =
  let n = ref 0 in
  fun name ext ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "eagerdb_srv_%s_%d_%d%s" name (Unix.getpid ()) !n ext)

let ok name = function
  | Ok v -> v
  | Error e -> Alcotest.fail (name ^ ": " ^ Err.to_string e)

(* ========================= monotonised clock ====================== *)

let test_clock () =
  let prev = ref (Clock.now_ms ()) in
  for _ = 1 to 1000 do
    let now = Clock.now_ms () in
    if now < !prev then Alcotest.fail "clock went backwards";
    prev := now
  done;
  let t0 = Clock.now_ms () in
  Clock.sleep_ms 20.;
  let dt = Clock.now_ms () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "sleep advances the clock (%.1f ms)" dt)
    true (dt >= 10.)

(* ========================= admission control ====================== *)

let adm_config =
  {
    Admission.max_sessions = 2;
    max_active = 1;
    max_queued = 0;
    max_wait_ms = 50.;
    global_rows = None;
    statement_limits = Eager_robust.Governor.no_limits;
  }

let test_admission_refusal () =
  let t = Admission.create adm_config in
  let k1 = match Admission.admit t with Ok k -> k | Error _ -> Alcotest.fail "first admit refused" in
  (match Admission.admit t with
  | Ok _ -> Alcotest.fail "over-cap admit accepted"
  | Error (r : Admission.refusal) ->
      Alcotest.(check bool) "typed Resource" true
        (Err.kind r.reason = Err.Resource);
      Alcotest.(check bool) "carries a retry hint" true (r.retry_after_ms > 0));
  Admission.release t k1;
  Admission.release t k1 (* idempotent *);
  (match Admission.admit t with
  | Ok k -> Admission.release t k
  | Error _ -> Alcotest.fail "slot not returned");
  (* session slots are independent of statement slots *)
  let open_ok tag =
    match Admission.open_session t with
    | Ok () -> ()
    | Error _ -> Alcotest.fail (tag ^ ": session refused under the cap")
  in
  open_ok "s1";
  open_ok "s2";
  (match Admission.open_session t with
  | Ok () -> Alcotest.fail "session cap ignored"
  | Error (r : Admission.refusal) ->
      Alcotest.(check bool) "typed Resource" true
        (Err.kind r.reason = Err.Resource));
  Admission.close_session t;
  Admission.close_session t;
  Alcotest.(check int) "sessions drained" 0 (Admission.sessions t)

let test_admission_fifo () =
  let cfg =
    { adm_config with max_queued = 4; max_wait_ms = 5000.; max_sessions = 8 }
  in
  let t = Admission.create cfg in
  let holder =
    match Admission.admit t with
    | Ok k -> k
    | Error _ -> Alcotest.fail "holder refused"
  in
  let mu = Mutex.create () in
  let order = ref [] in
  let spawn tag delay =
    Thread.create
      (fun () ->
        Thread.delay delay;
        match Admission.admit t with
        | Ok k ->
            Mutex.lock mu;
            order := tag :: !order;
            Mutex.unlock mu;
            Thread.delay 0.01;
            Admission.release t k
        | Error _ ->
            Mutex.lock mu;
            order := (tag ^ "!") :: !order;
            Mutex.unlock mu)
      ()
  in
  (* stagger arrivals so the queue order is unambiguous *)
  let a = spawn "a" 0. in
  let b = spawn "b" 0.08 in
  let c = spawn "c" 0.16 in
  Thread.delay 0.35;
  Admission.release t holder;
  List.iter Thread.join [ a; b; c ];
  Alcotest.(check (list string))
    "admitted strictly in arrival order" [ "a"; "b"; "c" ] (List.rev !order)

let test_global_pool () =
  let p = Governor.pool ~cap:10 in
  let g1 = Governor.create ~pool:p Governor.no_limits in
  Governor.charge_rows g1 6;
  Alcotest.(check int) "pool charged" 6 (Governor.pool_in_use p);
  let g2 = Governor.create ~pool:p Governor.no_limits in
  (match Governor.charge_rows g2 5 with
  | () -> Alcotest.fail "over-budget charge accepted"
  | exception Err.Error_exn e ->
      Alcotest.(check bool) "typed Resource" true (Err.kind e = Err.Resource);
      Alcotest.(check bool) "names the global budget" true
        (contains (Err.to_string e) "global row budget"));
  (* the breaching charge sticks until the statement unwinds *)
  Alcotest.(check int) "charge sticks" 11 (Governor.pool_in_use p);
  Governor.finish g2;
  Governor.finish g2;
  Alcotest.(check int) "g2 returned" 6 (Governor.pool_in_use p);
  Governor.finish g1;
  Alcotest.(check int) "drained" 0 (Governor.pool_in_use p)

(* =========================== wire framing ========================= *)

let test_wire_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = Wire.of_fd a and cb = Wire.of_fd b in
  ok "w1" (Wire.write_frame ca ~verb:"STMT" ~args:[ "x"; "y" ] "line one\nline two");
  ok "w2" (Wire.write_frame ca ~verb:"PING" "");
  (match ok "r1" (Wire.read_frame cb ~timeout_ms:2000.) with
  | Some { Wire.verb = "STMT"; args = [ "x"; "y" ]; payload } ->
      Alcotest.(check string) "payload with newlines" "line one\nline two"
        payload
  | _ -> Alcotest.fail "first frame mangled");
  (* the second frame was already buffered by the first read *)
  (match ok "r2" (Wire.read_frame cb ~timeout_ms:2000.) with
  | Some { Wire.verb = "PING"; args = []; payload = "" } -> ()
  | _ -> Alcotest.fail "second frame mangled");
  (* no data: the read must time out, typed, never hang *)
  let t0 = Clock.now_ms () in
  (match Wire.read_frame cb ~timeout_ms:80. with
  | Error e ->
      Alcotest.(check bool) "typed Io" true (Err.kind e = Err.Io);
      Alcotest.(check bool) "says timeout" true
        (contains (Err.to_string e) "timed out")
  | Ok _ -> Alcotest.fail "read with no data did not time out");
  Alcotest.(check bool) "timed out promptly" true (Clock.now_ms () -. t0 < 2000.);
  (* orderly EOF at a frame boundary is Ok None *)
  Wire.close ca;
  (match ok "eof" (Wire.read_frame cb ~timeout_ms:2000.) with
  | None -> ()
  | Some _ -> Alcotest.fail "EOF should be Ok None");
  Wire.close cb

(* ======================= LSN-stamped snapshots ==================== *)

let stmt db sql = ignore (Binder.exec_statement db (Parser.parse_statement sql))

let test_snapshot_reuse () =
  let db = Database.create () in
  stmt db "CREATE TABLE t (a INT)";
  stmt db "INSERT INTO t VALUES (1)";
  let sn = Snapshot.create () in
  let v1 = Snapshot.get sn ~lsn:1 ~db in
  Alcotest.(check int) "snapshot sees one row" 1 (Database.row_count v1 "t");
  (* a later write is invisible to the stamped snapshot *)
  stmt db "INSERT INTO t VALUES (2)";
  let v1' = Snapshot.get sn ~lsn:1 ~db in
  Alcotest.(check int) "same-LSN reader reuses the frozen copy" 1
    (Database.row_count v1' "t");
  Alcotest.(check int) "one deep copy so far" 1 (Snapshot.copies sn);
  let v2 = Snapshot.get sn ~lsn:2 ~db in
  Alcotest.(check int) "new LSN sees the commit" 2 (Database.row_count v2 "t");
  Alcotest.(check int) "second copy taken" 2 (Snapshot.copies sn);
  Alcotest.(check (option int)) "cache holds the newest" (Some 2)
    (Snapshot.cached_lsn sn);
  (* the old view is immutable even as the live db moves on *)
  stmt db "INSERT INTO t VALUES (3)";
  Alcotest.(check int) "old view unchanged" 1 (Database.row_count v1 "t")

(* Two readers plan and execute the same template, each on its own
   reader view of one snapshot, while the live database keeps
   committing inserts (and publishing statistics for later versions)
   into the shared statistics store.  Neither may raise, both must
   agree on the plan, and both must match the reference evaluator. *)
let test_concurrent_planning_shared_stats () =
  let open Eager_workload in
  let open Eager_opt in
  let w = Employee_dept.setup ~employees:2000 ~departments:40 () in
  let db = w.Employee_dept.db and q = w.Employee_dept.query in
  let snap = Database.snapshot db in
  let readers_done = Atomic.make 0 in
  let reader () =
    let rec go i acc =
      if i = 0 then acc
      else
        let view = Database.reader_view snap in
        match Planner.decide view q with
        | Error e -> Error (Err.to_string e)
        | Ok d ->
            let rows = Eager_exec.Exec.run_rows view d.Planner.chosen in
            Thread.yield ();
            let lazy_plan = (Planner.lazy_candidate d).Placement.plan in
            go (i - 1)
              (Ok ((Planner.chosen_candidate d).Placement.mode, lazy_plan, rows))
    in
    let r =
      try go 10 (Error "no run")
      with exn -> Error (Printexc.to_string exn)
    in
    Atomic.incr readers_done;
    r
  in
  let results = Array.make 2 (Error "not run") in
  let threads =
    List.init 2 (fun i -> Thread.create (fun () -> results.(i) <- reader ()) ())
  in
  (* the writer commits inserts in bursts, and after each burst reads
     statistics over a newer version, so its collections race the
     readers' into the store (past the drift bound they evict each
     other's entries) *)
  let next = ref 2001 in
  while Atomic.get readers_done < 2 do
    for _ = 1 to 100 do
      Database.insert_exn db "Employee"
        Eager_value.Value.
          [ Int !next; Str "L"; Str "F"; Int (1 + (!next mod 40)) ];
      incr next
    done;
    ignore
      (Database.stats (Database.reader_view (Database.snapshot db)) "Employee");
    Thread.yield ()
  done;
  List.iter Thread.join threads;
  Alcotest.(check bool) "the writer committed meanwhile" true (!next > 2001);
  match results.(0), results.(1) with
  | Ok (k0, lazy0, rows0), Ok (k1, _, rows1) ->
      Alcotest.(check string) "same plan kind"
        (Placement.mode_to_string k0) (Placement.mode_to_string k1);
      let expected =
        Eager_exec.Ref_eval.eval (Database.reader_view snap) lazy0
      in
      Alcotest.(check bool) "reader 0 matches Ref_eval" true
        (Eager_exec.Exec.multiset_equal expected rows0);
      Alcotest.(check bool) "reader 1 matches Ref_eval" true
        (Eager_exec.Exec.multiset_equal expected rows1)
  | Error e, _ | _, Error e -> Alcotest.fail ("reader raised: " ^ e)

(* ====================== end-to-end socket tests =================== *)

let start_server ?(admission = Admission.default_config) ?db_dir
    ?(die_on_broken_wal = false) name =
  let sock = fresh_path name ".sock" in
  let cfg =
    {
      (Server.default_config (Server.L_unix sock)) with
      admission;
      db_dir;
      die_on_broken_wal;
      read_timeout_ms = 5000.;
    }
  in
  let t, _ = ok "server start" (Server.start cfg) in
  (t, Client.config ~timeout_ms:5000. ~retries:0 (Client.A_unix sock))

let run_ok ccfg sql =
  match ok "run" (Client.run ccfg sql) with
  | Client.Ok_text txt -> txt
  | Client.Refused { msg; _ } -> Alcotest.fail ("refused: " ^ msg)
  | Client.Failed { msg; kind } ->
      Alcotest.fail (Printf.sprintf "failed [%s]: %s" kind msg)

let test_end_to_end () =
  Fault.reset ();
  let srv, ccfg = start_server "e2e" in
  let out = run_ok ccfg "CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (1,10),(2,20),(1,30);" in
  Alcotest.(check bool) "insert acked" true (contains out "3 row(s) inserted");
  let out = run_ok ccfg "SELECT t.a, SUM(t.b) FROM t GROUP BY t.a;" in
  Alcotest.(check bool) "rows rendered" true (contains out "(2 rows)");
  let out = run_ok ccfg "STATUS;" in
  Alcotest.(check bool) "global line" true (contains out "server: sessions=");
  Alcotest.(check bool) "per-session line" true (contains out "session ");
  let out = run_ok ccfg "EXPLAIN SELECT t.a, SUM(t.b) FROM t GROUP BY t.a;" in
  Alcotest.(check bool) "explain carries telemetry" true
    (contains out "-- session ");
  (match ok "parse error" (Client.run ccfg "SELEKT;") with
  | Client.Failed { kind; _ } -> Alcotest.(check string) "typed" "Parse" kind
  | _ -> Alcotest.fail "bad SQL should fail typed");
  (* the session (and server) survived the failed statement *)
  let out = run_ok ccfg "SELECT t.a FROM t;" in
  Alcotest.(check bool) "still serving" true (contains out "(3 rows)");
  Server.stop srv

let test_session_cap_busy () =
  Fault.reset ();
  let admission = { Admission.default_config with max_sessions = 1 } in
  let srv, ccfg = start_server ~admission "busy" in
  let held = ok "connect" (Client.connect ccfg) in
  ok "held session serves" (Client.ping held);
  (* the slot is taken the moment the session opens, before any frame *)
  (match Client.run ccfg "STATUS;" with
  | Ok (Client.Refused { retry_after_ms; msg }) ->
      Alcotest.(check bool) "hint" true (retry_after_ms >= 0);
      Alcotest.(check bool) "typed Resource message" true
        (contains msg "Resource")
  | Error _ ->
      (* the shed session was torn down before the BUSY landed — an
         acceptable (transient, retryable) shape of the same refusal *)
      ()
  | Ok (Client.Ok_text _) -> Alcotest.fail "second session was not shed"
  | Ok (Client.Failed { msg; _ }) ->
      Alcotest.fail ("shed surfaced as a statement failure: " ^ msg));
  Client.close held;
  (* with retries the client rides out the release race *)
  let retrying = { ccfg with Client.retries = 10; backoff_ms = 20. } in
  let out = run_ok retrying "STATUS;" in
  Alcotest.(check bool) "slot freed" true (contains out "server:");
  Server.stop srv

let test_global_rows_degrade () =
  Fault.reset ();
  let admission = { Admission.default_config with global_rows = Some 5 } in
  let srv, ccfg = start_server ~admission "degrade" in
  ignore (run_ok ccfg "CREATE TABLE t (a INT); INSERT INTO t VALUES (1),(2),(3),(4),(5),(6),(7),(8),(9),(10);");
  (match ok "over budget" (Client.run ccfg "SELECT t.a FROM t;") with
  | Client.Failed { kind; msg } ->
      Alcotest.(check string) "typed Resource" "Resource" kind;
      Alcotest.(check bool) "names the global budget" true
        (contains msg "global row budget")
  | _ -> Alcotest.fail "over-budget read should degrade typed");
  (* degradation is per statement: the server keeps serving *)
  let out = run_ok ccfg "STATUS;" in
  Alcotest.(check bool) "degraded counted" true (contains out "degraded=1");
  Server.stop srv

let test_concurrent_writers_group_commit () =
  Fault.reset ();
  let dir = fresh_path "gc" ".db" in
  let srv, ccfg = start_server ~db_dir:dir "gc" in
  ignore (run_ok ccfg "CREATE TABLE t (id INT NOT NULL, v INT, PRIMARY KEY (id));");
  let n = 8 in
  let failures = ref [] in
  let mu = Mutex.create () in
  let writer i =
    Thread.create
      (fun () ->
        let sql = Printf.sprintf "INSERT INTO t VALUES (%d, %d);" i (i * 10) in
        match Client.run { ccfg with Client.retries = 5; backoff_ms = 10.; seed = i } sql with
        | Ok (Client.Ok_text out) when contains out "1 row(s) inserted" -> ()
        | r ->
            Mutex.lock mu;
            failures :=
              (match r with
              | Ok (Client.Failed { msg; _ }) -> msg
              | Ok (Client.Refused { msg; _ }) -> "refused: " ^ msg
              | Error e -> Err.to_string e
              | Ok (Client.Ok_text out) -> "odd ack: " ^ out)
              :: !failures;
            Mutex.unlock mu)
      ()
  in
  let threads = List.init n writer in
  List.iter Thread.join threads;
  (match !failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.fail
        (Printf.sprintf "%d/%d writers failed, e.g. %s" (List.length !failures)
           n f));
  let out = run_ok ccfg "SELECT t.id FROM t;" in
  Alcotest.(check bool) "every acked write visible" true
    (contains out (Printf.sprintf "(%d rows)" n));
  let status = run_ok ccfg "STATUS;" in
  Alcotest.(check bool) "group commits happened" true
    (contains status "group_commits=");
  Server.stop srv;
  (* every acked write is durable: reopen the directory directly *)
  let s, _ = ok "reopen" (Durable.open_ ~dir ()) in
  Alcotest.(check int) "acked rows survived restart" n
    (Database.row_count (Durable.db s) "t");
  Durable.close s

let test_server_read_fault () =
  Fault.reset ();
  let srv, ccfg = start_server "readfault" in
  ignore (run_ok ccfg "CREATE TABLE t (a INT);");
  (* let the finished session's thread drain past its last read_frame
     (which checks the fault point) before arming, so the one-shot fault
     deterministically hits the next session's first read *)
  Thread.delay 0.1;
  Fault.arm_nth "server.read" 1;
  (match Client.run ccfg "STATUS;" with
  | Ok (Client.Failed { kind; msg }) ->
      Alcotest.(check string) "typed Io" "Io" kind;
      Alcotest.(check bool) "names the fault" true
        (contains msg "server.read")
  | Ok _ -> Alcotest.fail "injected read fault should fail the request"
  | Error _ -> (* the server may drop the session before answering *) ());
  Fault.reset ();
  (* one session died; the server did not *)
  let out = run_ok ccfg "STATUS;" in
  Alcotest.(check bool) "server survived" true (contains out "server:");
  Server.stop srv

let test_resolve_host () =
  (match Wire.resolve_host "localhost" with
  | Ok a ->
      Alcotest.(check string) "loopback" "127.0.0.1"
        (Unix.string_of_inet_addr a)
  | Error e -> Alcotest.fail (Err.to_string e));
  (match Wire.resolve_host "192.0.2.7" with
  | Ok a ->
      Alcotest.(check string) "dotted-quad literal" "192.0.2.7"
        (Unix.string_of_inet_addr a)
  | Error e -> Alcotest.fail (Err.to_string e));
  match Wire.resolve_host "no-such-host.invalid" with
  | Ok _ -> Alcotest.fail "resolved an .invalid name"
  | Error e -> Alcotest.(check bool) "typed Io" true (Err.kind e = Err.Io)

(* regression: stopping the server while writers are mid-request used to
   race the commit thread's exit — a batch enqueued just after the final
   drain parked its session on an ivar nobody fills, and Server.stop
   (which joins session threads) deadlocked.  enqueue now refuses under
   the queue mutex once shutdown begins, so stop must return promptly
   and every writer must end with an ack or a typed error. *)
let test_stop_under_write_load () =
  Fault.reset ();
  let srv, ccfg = start_server "stopload" in
  ignore (run_ok ccfg "CREATE TABLE t (a INT);");
  let writers =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            for k = 0 to 30 do
              ignore
                (Client.run
                   { ccfg with Client.retries = 0; seed = (i * 100) + k }
                   (Printf.sprintf "INSERT INTO t VALUES (%d);" ((i * 100) + k)))
            done)
          ())
  in
  Thread.delay 0.05;
  let mu = Mutex.create () in
  let stopped = ref false in
  let stopper =
    Thread.create
      (fun () ->
        Server.stop srv;
        Mutex.lock mu;
        stopped := true;
        Mutex.unlock mu)
      ()
  in
  let deadline = Clock.now_ms () +. 15_000. in
  let rec poll () =
    let done_ =
      Mutex.lock mu;
      let d = !stopped in
      Mutex.unlock mu;
      d
    in
    if done_ then ()
    else if Clock.now_ms () > deadline then
      Alcotest.fail "Server.stop wedged under concurrent write load"
    else begin
      Thread.delay 0.05;
      poll ()
    end
  in
  poll ();
  List.iter Thread.join writers;
  Thread.join stopper

(* ========================== replication =========================== *)

let mk_rec seq payload = { Wal.seq; kind = Wal.Stmt; payload; epoch = 0 }

let test_repl_hub () =
  let hub = Repl.create_hub ~retain:3 ~lsn:0 in
  (* fresh records are delivered in order *)
  Repl.publish hub [ mk_rec 1 "a"; mk_rec 2 "b" ];
  (match Repl.wait_since hub ~seq:0 ~timeout_ms:1000. with
  | Repl.Records es ->
      Alcotest.(check (list int)) "in order" [ 1; 2 ]
        (List.map (fun (e : Repl.entry) -> e.record.Wal.seq) es)
  | _ -> Alcotest.fail "expected fresh records");
  Alcotest.(check int) "hub tracks the tip" 2 (Repl.hub_last_seq hub);
  (* a caught-up sender waits out the timeout and gets Idle *)
  (match Repl.wait_since hub ~seq:2 ~timeout_ms:50. with
  | Repl.Idle -> ()
  | _ -> Alcotest.fail "caught-up sender should idle");
  (* eviction past the retention window turns into a Gap, not a skip *)
  Repl.publish hub [ mk_rec 3 "c"; mk_rec 4 "d"; mk_rec 5 "e"; mk_rec 6 "f" ];
  (match Repl.wait_since hub ~seq:2 ~timeout_ms:50. with
  | Repl.Gap -> ()
  | Repl.Records es ->
      Alcotest.fail
        (Printf.sprintf "evicted cursor got records starting at %d"
           (match es with e :: _ -> e.record.Wal.seq | [] -> -1))
  | _ -> Alcotest.fail "evicted cursor should see a gap");
  (* close wakes everyone with Closed *)
  Repl.close_hub hub;
  match Repl.wait_since hub ~seq:6 ~timeout_ms:1000. with
  | Repl.Closed -> ()
  | _ -> Alcotest.fail "closed hub should report Closed"

(* raw-wire REPL handshakes: an in-memory server refuses replication
   outright, and a durable primary refuses a standby claiming a FUTURE
   lsn — diverged history, the split-brain guard *)
let test_repl_handshake_refusals () =
  Fault.reset ();
  let raw_repl sock lsn =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    let conn = Wire.of_fd fd in
    ok "handshake"
      (Wire.write_frame conn ~verb:"REPL" ~args:[ string_of_int lsn ] "");
    let frame = ok "reply" (Wire.read_frame conn ~timeout_ms:5000.) in
    Wire.close conn;
    match frame with
    | Some { Wire.verb; payload; _ } -> (verb, payload)
    | None -> Alcotest.fail "server closed without answering the handshake"
  in
  (* in-memory server: no WAL, nothing to ship *)
  let sock_mem = fresh_path "replmem" ".sock" in
  let cfg = { (Server.default_config (Server.L_unix sock_mem)) with read_timeout_ms = 5000. } in
  let srv, _ = ok "start mem" (Server.start cfg) in
  let verb, msg = raw_repl sock_mem 0 in
  Alcotest.(check string) "mem server refuses REPL" "ERR" verb;
  Alcotest.(check bool) "says why" true (contains msg "durable");
  Server.stop srv;
  (* durable primary at lsn 2: a peer claiming lsn 7 has a diverged log *)
  let dir = fresh_path "replsb" ".db" in
  let srv, ccfg = start_server ~db_dir:dir "replsb" in
  ignore (run_ok ccfg "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);");
  let sock =
    match ccfg.Client.addr with Client.A_unix p -> p | _ -> assert false
  in
  let verb, msg = raw_repl sock 7 in
  Alcotest.(check string) "future lsn refused" "ERR" verb;
  Alcotest.(check bool) "names the divergence" true (contains msg "diverged");
  (* an honest handshake still streams *)
  let verb, msg = raw_repl sock 0 in
  Alcotest.(check string) "honest handshake accepted" "OK" verb;
  Alcotest.(check bool) "announces the stream" true (contains msg "streaming");
  Server.stop srv

let start_standby ~primary_sock name =
  let sock = fresh_path name ".sock" in
  let dir = fresh_path name ".db" in
  let cfg =
    {
      (Server.default_config (Server.L_unix sock)) with
      db_dir = Some dir;
      read_timeout_ms = 5000.;
      role =
        Server.Standby
          { primary = Client.A_unix primary_sock; repl_seed = 7 };
    }
  in
  let t, _ = ok "standby start" (Server.start cfg) in
  (t, Client.config ~timeout_ms:5000. ~retries:0 (Client.A_unix sock))

let await ?(timeout_ms = 10_000.) name pred =
  let deadline = Clock.now_ms () +. timeout_ms in
  let rec go () =
    if pred () then ()
    else if Clock.now_ms () > deadline then
      Alcotest.fail ("timed out waiting for " ^ name)
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

let test_replication_end_to_end () =
  Fault.reset ();
  let pdir = fresh_path "prim" ".db" in
  let prim, pcfg = start_server ~db_dir:pdir "prim" in
  let psock =
    match pcfg.Client.addr with Client.A_unix p -> p | _ -> assert false
  in
  ignore (run_ok pcfg "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);");
  let stby, scfg = start_standby ~primary_sock:psock "stby" in
  (* the standby catches up from its handshake lsn and then follows *)
  ignore (run_ok pcfg "INSERT INTO t VALUES (2); INSERT INTO t VALUES (3);");
  await "standby catch-up" (fun () ->
      match Client.run scfg "SELECT t.a FROM t;" with
      | Ok (Client.Ok_text out) -> contains out "(3 rows)"
      | _ -> false);
  (* STATUS tells the whole replication story, on both sides *)
  let sstatus = run_ok scfg "STATUS;" in
  Alcotest.(check bool) "standby role line" true
    (contains sstatus "repl: role=standby");
  Alcotest.(check bool) "connected" true (contains sstatus "connected=yes");
  Alcotest.(check bool) "applied lsn" true (contains sstatus "applied_lsn=4");
  Alcotest.(check bool) "no lag" true (contains sstatus "lag_records=0");
  await "primary sees the peer ship lsn 4" (fun () ->
      let p = run_ok pcfg "STATUS;" in
      contains p "repl: role=primary peers=1" && contains p "shipped_lsn=4");
  (* a standby is read-only: writes, checkpoints and backups refuse with
     a typed [Fenced] error whose redirect token names the primary *)
  let noredir = { scfg with Client.redirects = 0 } in
  (match ok "write on standby" (Client.run noredir "INSERT INTO t VALUES (9);") with
  | Client.Failed { kind; msg } ->
      Alcotest.(check string) "typed Fenced" "Fenced" kind;
      Alcotest.(check bool) "names the standby" true
        (contains msg "read-only standby");
      (match Err.redirect_of_msg msg with
      | Some target ->
          Alcotest.(check string) "redirect names the primary"
            ("unix:" ^ psock) target
      | None -> Alcotest.fail "standby refusal carried no redirect token")
  | _ -> Alcotest.fail "standby accepted a write");
  (match ok "backup on standby" (Client.run noredir "CHECKPOINT;") with
  | Client.Failed { msg; _ } ->
      Alcotest.(check bool) "checkpoint refused" true
        (contains msg "read-only standby")
  | _ -> Alcotest.fail "standby accepted a checkpoint");
  (* the default client follows the redirect to the live primary, so the
     same statement sent at the standby lands as a primary commit *)
  ignore (run_ok scfg "INSERT INTO t VALUES (7);");
  await "standby applies the redirected write" (fun () ->
      match Client.run noredir "SELECT t.a FROM t;" with
      | Ok (Client.Ok_text out) -> contains out "(4 rows)"
      | _ -> false);
  (* failover: kill the primary, promote the standby, write through it *)
  Server.stop prim;
  (match Server.promote stby with
  | Ok lsn -> Alcotest.(check int) "promoted at the applied lsn" 5 lsn
  | Error e -> Alcotest.fail ("promote: " ^ Err.to_string e));
  (match Server.promote stby with
  | Ok _ -> Alcotest.fail "second promote should refuse"
  | Error e ->
      Alcotest.(check bool) "already primary" true
        (contains (Err.to_string e) "already primary"));
  let out = run_ok scfg "INSERT INTO t VALUES (4); SELECT t.a FROM t;" in
  Alcotest.(check bool) "promoted node accepts writes" true
    (contains out "(5 rows)");
  let sstatus = run_ok scfg "STATUS;" in
  Alcotest.(check bool) "role flipped" true
    (contains sstatus "repl: role=primary");
  Server.stop stby

(* a live BACKUP under concurrent writers cuts a consistent prefix:
   verify passes, and the restored database holds exactly the first
   [lsn] committed records — acked-but-later writes are absent, torn
   state never appears *)
let test_hot_backup_under_load () =
  Fault.reset ();
  let dir = fresh_path "hotbak" ".db" in
  let srv, ccfg = start_server ~db_dir:dir "hotbak" in
  ignore (run_ok ccfg "CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id));");
  let stop = ref false in
  let mu = Mutex.create () in
  let writers =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            let k = ref 0 in
            let stopped () =
              Mutex.lock mu;
              let s = !stop in
              Mutex.unlock mu;
              s
            in
            while not (stopped ()) do
              ignore
                (Client.run
                   { ccfg with Client.retries = 2; seed = (i * 1000) + !k }
                   (Printf.sprintf "INSERT INTO t VALUES (%d);"
                      ((i * 100_000) + !k)));
              incr k
            done)
          ())
  in
  Thread.delay 0.1;
  let bdir = fresh_path "hotbak" ".bak" in
  let out = run_ok ccfg (Printf.sprintf "BACKUP '%s';" bdir) in
  Alcotest.(check bool) "backup acked with an lsn" true
    (contains out "backup written to");
  Mutex.lock mu;
  stop := true;
  Mutex.unlock mu;
  List.iter Thread.join writers;
  Server.stop srv;
  let blsn = ok "verify" (Backup.verify ~dir:bdir) in
  let rdir = fresh_path "hotbak" ".restored" in
  ignore (ok "restore" (Backup.restore ~from_dir:bdir ~to_dir:rdir));
  let r, _ = ok "reopen restored" (Durable.open_ ~dir:rdir ()) in
  Alcotest.(check int) "restored to the backup lsn" blsn (Durable.lsn r);
  (* lsn 1 was the CREATE TABLE; every later record is one insert *)
  Alcotest.(check int) "exactly the first lsn's rows" (blsn - 1)
    (Database.row_count (Durable.db r) "t");
  Durable.close r

(* the sql client sleeps the server's retry_after_ms hint instead of
   walking its exponential ladder: a shed with a large hint must delay
   the retry by at least (jitter floor x hint) even though the
   configured base backoff is a millisecond *)
let test_client_honors_retry_hint () =
  let sock = fresh_path "hint" ".sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX sock);
  Unix.listen lfd 4;
  let server =
    Thread.create
      (fun () ->
        (* first attempt: shed with a 150 ms hint; second: serve *)
        let serve reply =
          let fd, _ = Unix.accept lfd in
          let conn = Wire.of_fd fd in
          (match Wire.read_frame conn ~timeout_ms:5000. with
          | Ok (Some _) -> reply conn
          | _ -> ());
          Wire.close conn
        in
        serve (fun conn ->
            ignore (Wire.busy conn ~retry_after_ms:150 "shed for the test"));
        serve (fun conn -> ignore (Wire.ok conn "served")))
      ()
  in
  let cfg =
    Client.config ~timeout_ms:5000. ~retries:1 ~backoff_ms:1. ~seed:3
      (Client.A_unix sock)
  in
  let t0 = Clock.now_ms () in
  (match ok "run" (Client.run cfg "STATUS;") with
  | Client.Ok_text out -> Alcotest.(check string) "served" "served" out
  | _ -> Alcotest.fail "retry did not reach the second serve");
  let dt = Clock.now_ms () -. t0 in
  Thread.join server;
  Unix.close lfd;
  Alcotest.(check bool)
    (Printf.sprintf "slept the hint, not the 1 ms ladder (%.0f ms)" dt)
    true
    (dt >= 0.9 *. 150.)

let test_die_on_broken_wal () =
  Fault.reset ();
  let dir = fresh_path "die" ".db" in
  let srv, ccfg = start_server ~db_dir:dir ~die_on_broken_wal:true "die" in
  ignore (run_ok ccfg "CREATE TABLE t (a INT);");
  Thread.delay 0.1;
  Fault.arm_nth "wal.group_commit" 1;
  (match Client.run ccfg "INSERT INTO t VALUES (1);" with
  | Ok (Client.Failed _) | Error _ -> ()
  | Ok (Client.Ok_text _) -> Alcotest.fail "write was acked across a failed sync"
  | Ok (Client.Refused _) -> Alcotest.fail "unexpected shed");
  Fault.reset ();
  (match Server.wait srv with
  | Error e ->
      Alcotest.(check bool) "fatal is the poisoned WAL" true
        (contains (Err.to_string e) "die-on-broken-wal")
  | Ok () -> Alcotest.fail "server should stop fatally on a poisoned WAL")

(* ================== lease-based automated failover ================ *)

(* A 3-node cluster: kill the primary and exactly one standby
   self-promotes (deterministic election — equal LSNs, smallest address
   wins), bumping the epoch; the other retargets; a redirect-following
   client keeps writing through the transition; no acked write is
   lost. *)
let test_auto_promotion () =
  Fault.reset ();
  let psock = fresh_path "fo_p" ".sock" in
  let s1sock = fresh_path "fo_s1" ".sock" in
  let s2sock = fresh_path "fo_s2" ".sock" in
  let lease_ms = 250. in
  let mk ~sock ~db ~role ~peers =
    let cfg =
      {
        (Server.default_config (Server.L_unix sock)) with
        db_dir = Some (fresh_path db ".db");
        read_timeout_ms = 5000.;
        role;
        peers = List.map (fun p -> Client.A_unix p) peers;
        lease_ms;
      }
    in
    fst (ok ("start " ^ db) (Server.start cfg))
  in
  let prim =
    mk ~sock:psock ~db:"fo_p" ~role:Server.Primary ~peers:[ s1sock; s2sock ]
  in
  let pcfg = Client.config ~timeout_ms:5000. ~retries:0 (Client.A_unix psock) in
  let s1 =
    mk ~sock:s1sock ~db:"fo_s1"
      ~role:(Server.Standby { primary = Client.A_unix psock; repl_seed = 3 })
      ~peers:[ psock; s2sock ]
  in
  let s2 =
    mk ~sock:s2sock ~db:"fo_s2"
      ~role:(Server.Standby { primary = Client.A_unix psock; repl_seed = 4 })
      ~peers:[ psock; s1sock ]
  in
  let c1 = Client.config ~timeout_ms:5000. ~retries:0 (Client.A_unix s1sock) in
  let c2 = Client.config ~timeout_ms:5000. ~retries:0 (Client.A_unix s2sock) in
  await "both standbys connected" (fun () ->
      contains (run_ok pcfg "STATUS;") "peers=2");
  (* semi-sync in force: this ack means a standby has the records *)
  ignore (run_ok pcfg "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);");
  let caught_up cfg =
    match Client.run cfg "SELECT t.a FROM t;" with
    | Ok (Client.Ok_text out) -> contains out "(1 rows)"
    | _ -> false
  in
  await "standbys caught up" (fun () -> caught_up c1 && caught_up c2);
  let pstatus = run_ok pcfg "STATUS;" in
  Alcotest.(check bool) "primary failover line" true
    (contains pstatus "failover: epoch=0 role=primary");
  Alcotest.(check bool) "primary holds the lease" true
    (contains pstatus ("lease_holder=unix:" ^ psock));
  (* kill the primary: the lease lapses and an election follows *)
  Server.stop prim;
  let status_of cfg =
    match Client.run cfg "STATUS;" with
    | Ok (Client.Ok_text out) -> out
    | _ -> ""
  in
  let promoted st = contains st "failover: epoch=1 role=primary" in
  await "one standby self-promotes" (fun () ->
      promoted (status_of c1) || promoted (status_of c2));
  let winner, wsock, loser =
    if promoted (status_of c1) then (c1, s1sock, c2) else (c2, s2sock, c1)
  in
  let wstatus = run_ok winner "STATUS;" in
  Alcotest.(check bool) "promotion bumped the epoch" true
    (contains wstatus "failover: epoch=1");
  Alcotest.(check bool) "election counted" true
    (contains wstatus "elections=1");
  Alcotest.(check bool) "no acked write lost" true
    (contains (run_ok winner "SELECT t.a FROM t;") "(1 rows)");
  (* exactly one node accepts writes *)
  let writable cfg =
    match
      Client.run { cfg with Client.redirects = 0 }
        "INSERT INTO t VALUES (2);"
    with
    | Ok (Client.Ok_text _) -> 1
    | _ -> 0
  in
  await "exactly one writable node" (fun () ->
      writable winner + writable loser = 1);
  (* the loser retargets to the new primary; a redirect-following client
     pointed at it keeps writing through the transition *)
  await "loser redirects to the winner" (fun () ->
      match Client.run loser "INSERT INTO t VALUES (3);" with
      | Ok (Client.Ok_text _) -> true
      | _ -> false);
  let wstatus = run_ok winner "STATUS;" in
  Alcotest.(check bool) "winner still holds the lease" true
    (contains wstatus ("lease_holder=unix:" ^ wsock));
  Server.stop s1;
  Server.stop s2

(* A primary greeted by a REPL handshake from a higher epoch has been
   superseded: it fences itself — reads keep serving, writes refuse with
   a typed [Fenced] error, PROMOTE refuses, STATUS says so. *)
let test_zombie_fencing () =
  Fault.reset ();
  let dir = fresh_path "zombie" ".db" in
  let srv, ccfg = start_server ~db_dir:dir "zombie" in
  ignore (run_ok ccfg "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);");
  let sock =
    match ccfg.Client.addr with Client.A_unix p -> p | _ -> assert false
  in
  (* a peer speaking from epoch 5 is the zombie's wake-up call *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let conn = Wire.of_fd fd in
  ok "handshake"
    (Wire.write_frame conn ~verb:"REPL" ~args:[ "0"; "5" ] "");
  (match ok "reply" (Wire.read_frame conn ~timeout_ms:5000.) with
  | Some { Wire.verb = "ERR"; args = kind :: _; payload } ->
      Alcotest.(check string) "typed Fenced on the wire" "Fenced" kind;
      Alcotest.(check bool) "names the epochs" true
        (contains payload "epoch 5")
  | _ -> Alcotest.fail "higher-epoch handshake not refused");
  Wire.close conn;
  (* fenced: reads live, writes refuse, PROMOTE refuses *)
  Alcotest.(check bool) "reads keep serving" true
    (contains (run_ok ccfg "SELECT t.a FROM t;") "(1 rows)");
  (match ok "fenced write" (Client.run ccfg "INSERT INTO t VALUES (2);") with
  | Client.Failed { kind; msg } ->
      Alcotest.(check string) "typed Fenced" "Fenced" kind;
      Alcotest.(check bool) "explains the supersession" true
        (contains msg "fenced at epoch 0")
  | _ -> Alcotest.fail "fenced node accepted a write");
  (match Server.promote srv with
  | Ok _ -> Alcotest.fail "fenced node allowed PROMOTE"
  | Error e ->
      Alcotest.(check bool) "promote names the remedy" true
        (contains (Err.to_string e) "re-seed"));
  let status = run_ok ccfg "STATUS;" in
  Alcotest.(check bool) "STATUS says fenced" true
    (contains status "role=fenced");
  Server.stop srv

(* Regression: a primary that accepts the connection and immediately
   drops it must NOT reset the reconnect ladder — that hot-looped the
   standby at the base interval.  The ladder resets only after a
   completed handshake. *)
let test_accept_drop_backoff () =
  Fault.reset ();
  let sock = fresh_path "flap" ".sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX sock);
  Unix.listen lfd 16;
  let amu = Mutex.create () in
  let accepts = ref 0 in
  let stop = ref false in
  let acceptor =
    Thread.create
      (fun () ->
        let rec go () =
          match Unix.accept lfd with
          | fd, _ ->
              Unix.close fd;
              Mutex.lock amu;
              incr accepts;
              let live = not !stop in
              Mutex.unlock amu;
              if live then go ()
          | exception Unix.Unix_error _ -> ()
        in
        go ())
      ()
  in
  let a =
    Repl.start_applier ~addr:(Client.A_unix sock) ~read_timeout_ms:1000.
      ~backoff_ms:25. ~seed:5 ~lsn:0
      ~ingest:(fun _ -> Ok ())
      ~epoch_now:(fun () -> 0)
      ~observe:(fun ~epoch:_ ~lease_ms:_ -> ())
      ~on_error:(fun _ -> ())
  in
  Thread.delay 1.5;
  Repl.stop_applier a;
  Mutex.lock amu;
  stop := true;
  let n = !accepts in
  Mutex.unlock amu;
  (* nudge the acceptor off its blocking accept, then tear down *)
  (try
     let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     Unix.connect fd (Unix.ADDR_UNIX sock);
     Unix.close fd
   with Unix.Unix_error _ -> ());
  Thread.join acceptor;
  Unix.close lfd;
  Sys.remove sock;
  Alcotest.(check bool)
    (Printf.sprintf "ladder escalates (%d connects in 1.5s)" n)
    true
    (n >= 2 && n <= 15)

let () =
  Alcotest.run "server"
    [
      ("clock", [ Alcotest.test_case "monotone" `Quick test_clock ]);
      ( "admission",
        [
          Alcotest.test_case "typed refusals with hints" `Quick
            test_admission_refusal;
          Alcotest.test_case "FIFO fairness" `Quick test_admission_fifo;
          Alcotest.test_case "global row pool" `Quick test_global_pool;
        ] );
      ( "wire",
        [
          Alcotest.test_case "frames round-trip, reads bounded" `Quick
            test_wire_roundtrip;
          Alcotest.test_case "host resolution" `Quick test_resolve_host;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "LSN-stamped reuse + immutability" `Quick
            test_snapshot_reuse;
          Alcotest.test_case "concurrent planning, shared statistics" `Quick
            test_concurrent_planning_shared_stats;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "end-to-end statements" `Quick test_end_to_end;
          Alcotest.test_case "session cap sheds with BUSY" `Quick
            test_session_cap_busy;
          Alcotest.test_case "global budget degrades typed" `Quick
            test_global_rows_degrade;
          Alcotest.test_case "concurrent writers, one log" `Quick
            test_concurrent_writers_group_commit;
          Alcotest.test_case "server.read fault drops one session" `Quick
            test_server_read_fault;
          Alcotest.test_case "stop under concurrent write load" `Quick
            test_stop_under_write_load;
          Alcotest.test_case "die-on-broken-wal is fatal" `Quick
            test_die_on_broken_wal;
        ] );
      ( "replication",
        [
          Alcotest.test_case "hub: records, idle, gap, closed" `Quick
            test_repl_hub;
          Alcotest.test_case "handshake refusals (mem, split-brain)" `Quick
            test_repl_handshake_refusals;
          Alcotest.test_case "standby follows, refuses writes, promotes"
            `Quick test_replication_end_to_end;
          Alcotest.test_case "hot backup under write load" `Quick
            test_hot_backup_under_load;
          Alcotest.test_case "client sleeps the retry hint" `Quick
            test_client_honors_retry_hint;
        ] );
      ( "failover",
        [
          Alcotest.test_case "primary dies, a standby self-promotes" `Quick
            test_auto_promotion;
          Alcotest.test_case "higher-epoch handshake fences a zombie" `Quick
            test_zombie_fencing;
          Alcotest.test_case "accept-then-drop keeps escalating backoff"
            `Quick test_accept_drop_backoff;
        ] );
    ]
