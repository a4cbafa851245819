(* eagerdb — a small SQL engine demonstrating group-by pushdown
   (Yan & Larson, "Performing Group-By before Join", ICDE 1994).

   Subcommands:
     run FILE     execute a SQL script (SELECTs print results; EXPLAIN
                  SELECT prints the optimizer's reasoning and both plans)
     demo NAME    run a built-in workload report (fig1 | fig8 | ex3 | parts
                  | sales): EXPLAIN, then every ranked placement executed
                  and checked against E1
*)

open Eager_storage
open Eager_exec
open Eager_core
open Eager_opt
open Eager_parser
open Eager_durable
open Eager_workload
open Eager_robust
module Server = Eager_server.Server

(* A query failure is a diagnostic, not a process death: the governor or
   an execution error aborts only the statement, and the session (and
   database) stays usable. *)
let print_err e = Printf.printf "error: %s\n" (Err.to_string e)

(* --faults "point@n,point2@m" arms deterministic one-shots; --fault-seed
   with --fault-rate arms a seeded random schedule over every registered
   injection point.  Both exist to rehearse failure handling from the
   CLI the same way the test harness does. *)
let arm_faults ?fault_points spec seed rate =
  let invalid fmt =
    Printf.ksprintf
      (fun m ->
        prerr_endline ("error: invalid --faults spec: " ^ m);
        exit 2)
      fmt
  in
  (match spec with
  | None -> ()
  | Some spec ->
      String.split_on_char ',' spec
      |> List.iter (fun item ->
             let item = String.trim item in
             if item <> "" then begin
               let point, nth =
                 match String.index_opt item '@' with
                 | Some i ->
                     ( String.sub item 0 i,
                       int_of_string_opt
                         (String.sub item (i + 1) (String.length item - i - 1))
                     )
                 | None -> (item, Some 1)
               in
               if not (List.mem point Fault.all_points) then
                 invalid "unknown point %s (known: %s)" point
                   (String.concat ", " Fault.all_points);
               match nth with
               | Some n when n >= 1 -> Fault.arm_nth point n
               | _ ->
                   invalid "%s: the part after '@' must be a positive integer"
                     item
             end));
  let points =
    match fault_points with
    | None -> None
    | Some spec ->
        let pts =
          String.split_on_char ',' spec
          |> List.map String.trim
          |> List.filter (fun p -> p <> "")
        in
        List.iter
          (fun p ->
            if not (List.mem p Fault.all_points) then
              invalid "unknown point %s in --fault-points (known: %s)" p
                (String.concat ", " Fault.all_points))
          pts;
        if pts = [] then None else Some pts
  in
  match seed with
  | None -> ()
  | Some seed -> Fault.arm_seeded ~seed ~rate ?points ()

(* SELECT and EXPLAIN run through the server's query path; a fresh
   governor per statement starts the deadline clock here.  Binder
   failures print untagged, as they do when they stop a script. *)
let query db q ~limits ~order ~show =
  let buf = Buffer.create 1024 in
  let result =
    Server.run_query_buf db q ~governor:(Governor.create limits) ~order
      ~show buf
  in
  print_string (Buffer.contents buf);
  match result with
  | Ok () -> ()
  | Error e when Err.kind e = Err.Bind -> Printf.printf "error: %s\n" (Err.msg e)
  | Error e -> print_err e

let print_outcome db ~limits = function
  | Binder.Created msg -> Printf.printf "%s\n" msg
  | Binder.Inserted n -> Printf.printf "%d row(s) inserted\n" n
  | Binder.Updated n -> Printf.printf "%d row(s) updated\n" n
  | Binder.Deleted n -> Printf.printf "%d row(s) deleted\n" n
  | Binder.Checkpointed lsn -> Printf.printf "checkpointed at wal lsn %d\n" lsn
  | Binder.Backed_up { dir; lsn } ->
      Printf.printf "backup written to %s at wal lsn %d\n" dir lsn
  | Binder.Promoted lsn ->
      Printf.printf "promoted to primary at wal lsn %d\n" lsn
  | Binder.Query (q, order) -> query db q ~limits ~order ~show:Server.Results
  | Binder.Explained (q, order, an) ->
      query db q ~limits ~order
        ~show:(if an then Server.Explain_analyze else Server.Explain)

let print_recovery dir (r : Durable.recovery) =
  let opt n fmt = if n = 0 then [] else [ Printf.sprintf fmt n ] in
  Printf.printf "recovered %s: %s\n" dir
    (String.concat ", "
       ([ Printf.sprintf "snapshot lsn %d" r.Durable.snapshot_lsn;
          Printf.sprintf "%d record(s) replayed" r.Durable.replayed ]
       @ opt r.Durable.skipped_aborted "%d aborted record(s) skipped"
       @ opt r.Durable.skipped_failed "%d unappliable record(s) skipped"
       @ opt r.Durable.torn_bytes "%d torn byte(s) dropped"
       @ if r.Durable.finished_checkpoint then [ "finished an interrupted checkpoint" ] else []))

let final_save db save_dir =
  match save_dir with
  | None -> 0
  | Some dir -> (
      match Persist.save db ~dir with
      | Ok () ->
          Printf.printf "database saved to %s\n" dir;
          0
      | Error e ->
          Printf.eprintf "error saving %s: %s\n" dir (Err.to_string e);
          1)

let run_file db_dir save_dir limits storage wal checkpoint_every faults
    fault_seed fault_rate path =
  let src =
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  if wal then (
    match db_dir with
    | None ->
        prerr_endline
          "error: --wal needs --db DIR (the log lives beside the snapshot)";
        2
    | Some dir -> (
        (* arm before recovery so injected crashes exercise replay and
           checkpoint completion, not just fresh appends *)
        arm_faults faults fault_seed fault_rate;
        match Durable.open_ ?checkpoint_every ?storage ~dir () with
        | Error e ->
            Printf.eprintf "error recovering %s: %s\n" dir (Err.to_string e);
            1
        | Ok (session, recovery) ->
            print_recovery dir recovery;
            let db = Durable.db session in
            let rc =
              match
                Durable.run_script_with session src
                  ~f:(print_outcome db ~limits)
              with
              | Error e ->
                  Printf.eprintf "error: %s\n" (Err.to_string e);
                  1
              | Ok () -> 0
            in
            Durable.close session;
            if rc <> 0 then rc else final_save db save_dir))
  else
    let db =
      match db_dir with
      | None -> Database.create ?storage ()
      | Some dir -> (
          match Persist.load ?storage ~dir () with
          | Ok db ->
              Printf.printf "loaded database from %s\n" dir;
              db
          | Error e ->
              Printf.eprintf "error loading %s: %s\n" dir (Err.to_string e);
              exit 1)
    in
    arm_faults faults fault_seed fault_rate;
    (* execute eagerly so SELECTs interleaved with DML see the right state *)
    match Binder.run_script_with db src ~f:(print_outcome db ~limits) with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok () -> final_save db save_dir

let repl limits storage =
  let db = ref (Database.create ?storage ()) in
  let timing = ref false in
  print_endline
    "eagerdb — SQL statements end with ';'.  \\q quits, \\h lists \
     meta-commands.  EXPLAIN SELECT shows both plans.";
  let meta line =
    match String.split_on_char ' ' (String.trim line) with
    | [ "\\h" ] ->
        print_endline
          "\\d           list tables and views\n\
           \\d NAME      describe a table\n\
           \\save DIR    save the database\n\
           \\load DIR    load a database (replaces the session)\n\
           \\timing      toggle wall-clock reporting\n\
           \\q           quit"
    | [ "\\d" ] ->
        let cat = Database.catalog !db in
        List.iter
          (fun (td : Eager_catalog.Table_def.t) ->
            Printf.printf "table %-20s %6d row(s)\n" td.Eager_catalog.Table_def.tname
              (Database.row_count !db td.Eager_catalog.Table_def.tname))
          (Eager_catalog.Catalog.tables cat);
        List.iter
          (fun (v : Eager_catalog.Catalog.view_def) ->
            Printf.printf "view  %s\n" v.Eager_catalog.Catalog.vname)
          (Eager_catalog.Catalog.views cat);
        List.iter
          (fun (i : Eager_catalog.Catalog.index_def) ->
            Printf.printf "index %s ON %s (%s)\n" i.Eager_catalog.Catalog.iname
              i.Eager_catalog.Catalog.itable
              (String.concat ", " i.Eager_catalog.Catalog.icols))
          (Eager_catalog.Catalog.indexes cat)
    | [ "\\d"; name ] -> (
        match Eager_catalog.Catalog.find_table (Database.catalog !db) name with
        | Some td ->
            print_endline (Format.asprintf "%a" Eager_catalog.Table_def.pp td)
        | None -> Printf.printf "unknown table %s\n" name)
    | [ "\\save"; dir ] -> (
        match Persist.save !db ~dir with
        | Ok () -> Printf.printf "saved to %s\n" dir
        | Error e -> print_err e)
    | [ "\\load"; dir ] -> (
        match Persist.load ~dir () with
        | Ok d ->
            db := d;
            Printf.printf "loaded %s\n" dir
        | Error e -> print_err e)
    | [ "\\timing" ] ->
        timing := not !timing;
        Printf.printf "timing %s\n" (if !timing then "on" else "off")
    | _ -> print_endline "unknown meta-command (\\h for help)"
  in
  let buffer = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buffer = 0 then "eagerdb> " else "     ... ");
    flush stdout;
    match input_line stdin with
    | exception End_of_file -> 0
    | line when String.trim line = "\\q" && Buffer.length buffer = 0 -> 0
    | line
      when Buffer.length buffer = 0
           && String.length (String.trim line) > 0
           && (String.trim line).[0] = '\\' ->
        meta line;
        loop ()
    | line ->
        Buffer.add_string buffer line;
        Buffer.add_char buffer '\n';
        let text = Buffer.contents buffer in
        let trimmed = String.trim text in
        if String.length trimmed > 0
           && trimmed.[String.length trimmed - 1] = ';'
        then begin
          Buffer.clear buffer;
          let t0 = Unix.gettimeofday () in
          (match
             Binder.run_script_with !db text ~f:(fun o ->
                 print_outcome !db ~limits o)
           with
          | Error msg -> Printf.printf "error: %s\n" msg
          | Ok () -> ());
          if !timing then
            Printf.printf "time: %.2f ms\n"
              ((Unix.gettimeofday () -. t0) *. 1000.);
          loop ()
        end
        else loop ()
  in
  loop ()

let demo name =
  let report db (q : Canonical.t) =
    let decision =
      match Planner.decide db q with
      | Ok d -> d
      | Error e ->
          print_err e;
          exit 1
    in
    print_string (Explain.text db decision);
    (* execute every candidate and hold each to the lazy E1 rows *)
    let rows (p : Placement.t) =
      let h, s = Exec.run db p.Placement.plan in
      Printf.printf "-- executed %s:\n%s\n" (Placement.describe p)
        (Optree.to_string s);
      Heap.to_list h
    in
    let lazy_rows = rows (Planner.lazy_candidate decision) in
    let equal =
      List.fold_left
        (fun ok (p : Placement.t) ->
          (p.Placement.mode = Placement.Lazy
          || Exec.multiset_equal lazy_rows (rows p))
          && ok)
        true decision.Planner.candidates
    in
    Printf.printf "results equal: %b\n" equal;
    if equal then 0 else 1
  in
  match name with
  | "fig1" ->
      let w = Employee_dept.setup () in
      report w.Employee_dept.db w.Employee_dept.query
  | "fig8" ->
      let w = Contrived.setup () in
      report w.Contrived.db w.Contrived.query
  | "ex3" ->
      let w = Printers.setup () in
      report w.Printers.db w.Printers.query
  | "parts" ->
      let w = Parts.setup () in
      report w.Parts.db w.Parts.query
  | "sales" ->
      let w = Sales.setup () in
      report w.Sales.db w.Sales.query
  | _ ->
      Printf.eprintf
        "unknown demo %s (try: fig1 | fig8 | ex3 | parts | sales)\n" name;
      1

(* the concurrent session server (lib/server): accept/commit/session
   threads, snapshot-isolated readers, group-committed writers.
   [primary] switches the node into standby mode: read-only, following
   that address's WAL stream until PROMOTE (or SIGUSR1) flips it. *)
let serve_main ~primary ~repl_seed ~repl_retain ~peers ~lease_ms
    ~no_auto_failover ~storage listen_s db_dir checkpoint_every max_sessions
    max_active max_queued max_wait_ms global_rows statement_limits
    read_timeout_ms die_on_broken_wal faults fault_seed fault_rate fault_points
    =
  let open Eager_server in
  arm_faults ?fault_points faults fault_seed fault_rate;
  let peers =
    List.concat_map (String.split_on_char ',') peers
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.map (fun s ->
           match Client.parse_addr s with
           | Ok a -> a
           | Error m ->
               prerr_endline ("error: invalid --peers address: " ^ m);
               exit 2)
  in
  let listen =
    match Client.parse_addr listen_s with
    | Ok (Client.A_unix p) -> Server.L_unix p
    | Ok (Client.A_tcp (h, p)) -> Server.L_tcp (h, p)
    | Error m ->
        prerr_endline ("error: invalid --listen address: " ^ m);
        exit 2
  in
  let role =
    match primary with
    | None -> Server.Primary
    | Some addr_s -> (
        match Client.parse_addr addr_s with
        | Ok primary -> Server.Standby { primary; repl_seed }
        | Error m ->
            prerr_endline ("error: invalid --primary address: " ^ m);
            exit 2)
  in
  let admission =
    {
      Admission.max_sessions;
      max_active;
      max_queued;
      max_wait_ms;
      global_rows;
      statement_limits;
    }
  in
  let cfg =
    {
      Server.listen;
      admission;
      read_timeout_ms;
      db_dir;
      storage;
      checkpoint_every;
      die_on_broken_wal;
      role;
      repl_retain;
      peers;
      lease_ms;
      auto_failover = not no_auto_failover;
    }
  in
  match Server.start cfg with
  | Error e ->
      Printf.eprintf "error: %s\n" (Err.to_string e);
      1
  | Ok (t, recovery) -> (
      (match (db_dir, recovery) with
      | Some dir, Some r -> print_recovery dir r
      | _ -> ());
      (match role with
      | Server.Standby _ ->
          Printf.printf "eagerdb standby listening on %s (following %s)\n%!"
            (Server.bound_addr t)
            (Option.value primary ~default:"?")
      | Server.Primary ->
          Printf.printf "eagerdb listening on %s\n%!" (Server.bound_addr t));
      (* the handler only requests the stop; the joins happen on a
         helper thread so the handler itself never blocks *)
      let request_stop _ = ignore (Thread.create (fun () -> Server.stop t) ()) in
      List.iter
        (fun s ->
          try Sys.set_signal s (Sys.Signal_handle request_stop)
          with Invalid_argument _ -> ())
        [ Sys.sigint; Sys.sigterm ];
      (* SIGUSR1 = operator-driven promotion.  The handler only raises a
         flag; a poll thread does the actual (joining) work, because a
         signal handler must never block on a thread join *)
      let want_promote = ref false in
      (try
         Sys.set_signal Sys.sigusr1
           (Sys.Signal_handle (fun _ -> want_promote := true))
       with Invalid_argument _ -> ());
      ignore
        (Thread.create
           (fun () ->
             while true do
               if !want_promote then begin
                 want_promote := false;
                 match Server.promote t with
                 | Ok lsn ->
                     Printf.printf "promoted to primary at wal lsn %d\n%!" lsn
                 | Error e ->
                     Printf.eprintf "promote: %s\n%!" (Err.to_string e)
               end;
               Clock.sleep_ms 100.
             done)
           ());
      match Server.wait t with
      | Ok () ->
          print_endline "eagerdb: shut down";
          0
      | Error e ->
          Printf.eprintf "fatal: %s\n%!" (Err.to_string e);
          1)

(* offline backup: open (recover) the directory, seal a backup of it.
   The hot path — no downtime, commit-queue barrier — is the BACKUP
   statement against a running server: eagerdb sql "BACKUP 'dest'" *)
let backup_main db_dir dest faults fault_seed fault_rate =
  arm_faults faults fault_seed fault_rate;
  match Durable.open_ ~dir:db_dir () with
  | Error e ->
      Printf.eprintf "error recovering %s: %s\n" db_dir (Err.to_string e);
      1
  | Ok (session, recovery) ->
      print_recovery db_dir recovery;
      let r = Durable.backup session ~dir:dest in
      Durable.close session;
      (match r with
      | Ok lsn ->
          Printf.printf "backup written to %s at wal lsn %d\n" dest lsn;
          0
      | Error e ->
          Printf.eprintf "error: %s\n" (Err.to_string e);
          1)

let restore_main verify_only src dest =
  if verify_only then (
    match Backup.verify ~dir:src with
    | Ok lsn ->
        Printf.printf "backup %s verifies at wal lsn %d\n" src lsn;
        0
    | Error e ->
        Printf.eprintf "error: %s\n" (Err.to_string e);
        1)
  else
    match dest with
    | None ->
        prerr_endline
          "error: restore needs a destination directory (or --verify-only)";
        2
    | Some dest -> (
        match Backup.restore ~from_dir:src ~to_dir:dest with
        | Error e ->
            Printf.eprintf "error: %s\n" (Err.to_string e);
            1
        | Ok lsn -> (
            (* prove the restored directory actually recovers *)
            match Durable.open_ ~dir:dest () with
            | Ok (s, recovery) ->
                print_recovery dest recovery;
                Durable.close s;
                Printf.printf "restored %s into %s (backup lsn %d)\n" src dest
                  lsn;
                0
            | Error e ->
                Printf.eprintf
                  "error: backup verified and copied, but the restored \
                   directory failed recovery: %s\n"
                  (Err.to_string e);
                1))

let sql_main connect timeout_ms retries backoff_ms seed redirects script file =
  let open Eager_server in
  match Client.parse_addr connect with
  | Error m ->
      prerr_endline ("error: invalid --connect address: " ^ m);
      2
  | Ok addr -> (
      let cfg =
        Client.config ~timeout_ms ~retries ~backoff_ms ~seed ~redirects addr
      in
      let src =
        match (script, file) with
        | Some s, None -> Ok s
        | None, Some path ->
            let ic = open_in path in
            let n = in_channel_length ic in
            let s = really_input_string ic n in
            close_in ic;
            Ok s
        | None, None -> Ok (In_channel.input_all In_channel.stdin)
        | Some _, Some _ -> Error "give SQL either inline or with -f, not both"
      in
      match src with
      | Error m ->
          prerr_endline ("error: " ^ m);
          2
      | Ok src -> (
          match Client.run cfg src with
          | Ok (Client.Ok_text txt) ->
              print_string txt;
              0
          | Ok (Client.Refused { retry_after_ms; msg }) ->
              Printf.eprintf
                "refused after retries (server says retry in %d ms): %s\n"
                retry_after_ms msg;
              3
          | Ok (Client.Failed { kind; msg }) ->
              print_string msg;
              Printf.eprintf "statement failed [%s]\n" kind;
              1
          | Error e ->
              Printf.eprintf "error: %s\n" (Err.to_string e);
              1))

open Cmdliner

(* resource-limit flags shared by [run] and [repl]; each query gets a
   fresh governor built from these limits *)
let limits_term =
  let max_rows =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-rows" ] ~docv:"N"
          ~doc:
            "Abort a query once it has materialized more than $(docv) rows \
             across all operators (a typed Resource error; the session \
             survives)")
  in
  let max_groups =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-groups" ] ~docv:"N"
          ~doc:
            "Abort a query whose aggregation hash table exceeds $(docv) \
             entries")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Per-query wall-clock budget in milliseconds")
  in
  let max_page_ios =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-page-ios" ] ~docv:"N"
          ~doc:
            "Abort a query once it has caused more than $(docv) physical \
             page transfers (buffer-pool miss reads, eviction write-backs, \
             spill pages); only meaningful with $(b,--pages)")
  in
  Term.(
    const (fun max_rows max_groups deadline_ms max_page_ios ->
        { Governor.max_rows; max_groups; deadline_ms; max_page_ios })
    $ max_rows $ max_groups $ deadline_ms $ max_page_ios)

(* paged-storage flags shared by [run], [repl] and [serve]: they select
   the buffer-pool-backed engine instead of the default RAM heaps *)
let storage_term =
  let pages =
    Arg.(
      value
      & opt (some int) None
      & info [ "pages" ] ~docv:"N"
          ~doc:
            "Run over the paged storage engine with an $(docv)-page buffer \
             pool (LRU-K replacement, checksummed 4 KiB pages).  0 means \
             paged but unbounded — every page stays resident")
  in
  let page_size =
    Arg.(
      value & opt int 4096
      & info [ "page-size" ] ~docv:"BYTES"
          ~doc:"Page size in bytes for the paged engine (default 4096)")
  in
  let spill_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "spill-dir" ] ~docv:"DIR"
          ~doc:
            "Scratch directory for operator spill runs (external sorts, \
             grace hash joins, spilling aggregation).  Implies the paged \
             engine; without --pages the pool is unbounded")
  in
  Term.(
    const (fun pages page_size spill_dir ->
        match (pages, spill_dir) with
        | None, None -> None
        | _ ->
            Some
              {
                Database.pool_pages =
                  (match pages with Some 0 -> None | p -> p);
                page_size;
                spill_dir;
              })
    $ pages $ page_size $ spill_dir)

(* fault-injection flags shared by [run] and [serve] *)
let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Arm fault-injection one-shots, e.g. \
           'persist.rename\\@1,exec.next\\@3' (fire on the n-th hit)")

let fault_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:"Arm a seeded random fault schedule over all injection points")

let fault_rate_arg =
  Arg.(
    value & opt float 0.01
    & info [ "fault-rate" ] ~docv:"P"
        ~doc:"Firing probability per hit for --fault-seed (default 0.01)")

let run_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let db_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "db" ] ~docv:"DIR"
          ~doc:
            "Load the database from $(docv) first (with --wal the directory \
             is created if missing)")
  in
  let wal =
    Arg.(
      value & flag
      & info [ "wal" ]
          ~doc:
            "Write-ahead-log every DML/DDL statement to DIR/wal.eagerdb \
             before applying it, and replay the log on startup; requires \
             --db.  The CHECKPOINT statement snapshots and truncates the log")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"With --wal, checkpoint automatically every $(docv) logged \
                statements")
  in
  let save_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"DIR"
          ~doc:"Save the database to $(docv) after the script")
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a SQL script")
    Term.(
      const run_file $ db_dir $ save_dir $ limits_term $ storage_term $ wal
      $ checkpoint_every $ faults_arg $ fault_seed_arg $ fault_rate_arg $ file)

let demo_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run a built-in paper workload (fig1|fig8|ex3|parts)")
    Term.(const demo $ name_arg)

let repl_cmd =
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive SQL shell on an in-memory database")
    Term.(const repl $ limits_term $ storage_term)

(* the differential fuzzing harness: the Main Theorem as an oracle *)
let fuzz seed iters no_faults corpus replay multiway quiet =
  let open Eager_fuzz in
  match replay with
  | Some dir -> (
      match Corpus.replay_dir dir with
      | Ok (files, selects) ->
          Printf.printf "corpus replay: %d file(s), %d query(ies), all green\n"
            files selects;
          0
      | Error msg ->
          Printf.printf "corpus replay FAILED: %s\n" msg;
          1)
  | None ->
      let log = if quiet then ignore else print_endline in
      let cfg =
        { Fuzz.seed; iters; faults = not no_faults; corpus_dir = corpus; log }
      in
      if multiway then (
        let s = Fuzz.run_multiway cfg in
        print_endline (Fuzz.multiway_summary_to_string s);
        match s.Fuzz.mw_failures with
        | [] -> 0
        | failures ->
            List.iter
              (fun (f : Fuzz.multiway_failure) ->
                Printf.printf "  iteration %d: %s%s\n" f.Fuzz.mw_iteration
                  (Oracle.violation_to_string f.Fuzz.mw_violation)
                  (match f.Fuzz.mw_corpus_path with
                  | Some p -> " -> " ^ p
                  | None -> ""))
              failures;
            1)
      else
        let s = Fuzz.run cfg in
        print_endline (Fuzz.summary_to_string s);
        match s.Fuzz.failures with
        | [] -> 0
        | failures ->
            List.iter
              (fun (f : Fuzz.failure) ->
                Printf.printf "  iteration %d: %s%s\n" f.Fuzz.iteration
                  (Oracle.violation_to_string f.Fuzz.violation)
                  (match f.Fuzz.corpus_path with
                  | Some p -> " -> " ^ p
                  | None -> ""))
              failures;
            1

let fuzz_cmd =
  let seed =
    Arg.(
      value & opt int 20260806
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Run seed.  Iteration $(i,i) draws from the independent stream \
             (seed, i), so any failure replays standalone")
  in
  let iters =
    Arg.(
      value & opt int 500
      & info [ "iters" ] ~docv:"K" ~doc:"Number of generated instances")
  in
  let no_faults =
    Arg.(
      value & flag
      & info [ "no-faults" ]
          ~doc:"Skip the injected-fault and governor-budget checks")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Write shrunk repros of any violation to $(docv) as .sql files")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"DIR"
          ~doc:
            "Instead of generating, replay every .sql under $(docv) through \
             the parser/binder and re-run the oracle on each")
  in
  let multiway =
    Arg.(
      value & flag
      & info [ "multiway" ]
          ~doc:
            "Generate 3-4 relation chain/star instances instead of the \
             two-relation canonical form, and sweep every forced \
             aggregation placement (full and partial at each admissible \
             cut) against forced E1 and the reference evaluator")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Only print the summary line")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: execute generated queries as forced-E1, \
          forced-E2 and planner's choice, and check the Main Theorem's \
          invariants as an executable oracle")
    Term.(
      const fuzz $ seed $ iters $ no_faults $ corpus $ replay $ multiway
      $ quiet)

(* the failover chaos harness: seeded 3-node cluster schedules *)
let chaos seed schedules max_seconds quiet =
  Eager_fuzz.Chaos.run ~exe:Sys.executable_name ~seed ~schedules ~max_seconds
    ~quiet

let chaos_cmd =
  let seed =
    Arg.(
      value & opt int 20260808
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Sweep seed.  Schedule $(i,i) derives its private generator and \
             the spawned servers' fault schedules from (seed, i), so a \
             failing schedule replays standalone")
  in
  let schedules =
    Arg.(
      value & opt int 8
      & info [ "schedules" ] ~docv:"K"
          ~doc:
            "Number of schedules; fault templates (primary SIGKILL, \
             SIGSTOP/SIGCONT partition, backwards clock jumps, slow \
             fsyncs) cycle round-robin")
  in
  let max_seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-seconds" ] ~docv:"S"
          ~doc:
            "Wall-clock cap: stop launching new schedules after $(docv) \
             seconds (started schedules always finish)")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Only print failures and the summary line")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Failover chaos harness: boot seeded 3-node clusters, inject one \
          fault per schedule, and check that exactly one node stays \
          writable, every acked write survives on the final primary, and \
          the standbys converge to byte-identical WALs")
    Term.(const chaos $ seed $ schedules $ max_seconds $ quiet)

(* server flags shared by [serve] and [standby] *)
let srv_listen =
  Arg.(
    value
    & opt string "unix:/tmp/eagerdb.sock"
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Listen address: unix:PATH or tcp:HOST:PORT (port 0 picks a free \
           port; the chosen one is in the 'listening on' line)")

let srv_db_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "db" ] ~docv:"DIR"
        ~doc:
          "Serve a durable database under $(docv): writes are \
           write-ahead-logged with group commit and recovery runs at \
           startup.  Without it the server is in-memory")

let srv_checkpoint_every =
  Arg.(
    value
    & opt (some int) None
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"With --db, checkpoint automatically every $(docv) logged \
              statements")

let srv_max_sessions =
  Arg.(
    value & opt int 64
    & info [ "max-sessions" ] ~docv:"N"
        ~doc:"Concurrent connections before refusing new sessions")

let srv_max_active =
  Arg.(
    value & opt int 8
    & info [ "max-active" ] ~docv:"N"
        ~doc:"Statements executing at once; excess arrivals queue fairly")

let srv_max_queued =
  Arg.(
    value & opt int 32
    & info [ "max-queued" ] ~docv:"N"
        ~doc:"Queued statements before shedding load with BUSY")

let srv_max_wait_ms =
  Arg.(
    value & opt float 2000.
    & info [ "max-wait-ms" ] ~docv:"MS"
        ~doc:"Queue-wait budget before a statement is refused")

let srv_global_rows =
  Arg.(
    value
    & opt (some int) None
    & info [ "global-rows" ] ~docv:"N"
        ~doc:
          "Aggregate row budget across every executing statement (the \
           global pool behind per-statement --max-rows)")

let srv_read_timeout_ms =
  Arg.(
    value & opt float 30_000.
    & info [ "read-timeout-ms" ] ~docv:"MS"
        ~doc:"Per-frame socket read deadline (also the idle-session \
              timeout)")

let srv_die_on_broken_wal =
  Arg.(
    value & flag
    & info [ "die-on-broken-wal" ]
        ~doc:
          "Treat a poisoned write-ahead log as fatal and stop the server \
           instead of degrading to read-only (the crash-test harness uses \
           this to turn injected log faults into process deaths)")

let srv_repl_retain =
  Arg.(
    value & opt int 1024
    & info [ "repl-retain" ] ~docv:"N"
        ~doc:
          "Committed WAL records kept in memory for replication catch-up; \
           standbys further behind are caught up from the on-disk log, and \
           past a checkpoint truncation told to re-seed from a backup")

let srv_repl_seed =
  Arg.(
    value & opt int 1
    & info [ "repl-seed" ] ~docv:"N"
        ~doc:"Jitter seed for the standby's reconnect backoff (explicit so \
              failover drills are reproducible)")

let srv_peers =
  Arg.(
    value & opt_all string []
    & info [ "peers" ] ~docv:"ADDRS"
        ~doc:
          "The OTHER nodes of the cluster (comma-separated or repeated; \
           unix:PATH or tcp:HOST:PORT).  Naming them arms lease-based \
           automated failover: the primary grants leases over its \
           replication streams and suspends writes when no standby \
           acknowledges it within --lease-ms; a standby whose lease \
           observation lapses elects deterministically among the peers \
           (highest applied LSN wins, ties to the smallest address) and \
           promotes itself, bumping the cluster epoch that fences the old \
           primary out")

let srv_lease_ms =
  Arg.(
    value & opt float 1000.
    & info [ "lease-ms" ] ~docv:"MS"
        ~doc:
          "The write-lease window: how long the primary may keep acking \
           writes after its last successful ship to a standby, and how \
           long a standby waits (plus a skew margin) after the last grant \
           before electing")

let srv_no_auto_failover =
  Arg.(
    value & flag
    & info [ "no-auto-failover" ]
        ~doc:
          "Keep replication and epoch fencing, but never elect, suspend or \
           self-promote: promotion stays manual (PROMOTE or SIGUSR1) even \
           when --peers is set")

let fault_points_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-points" ] ~docv:"POINTS"
        ~doc:
          "With --fault-seed, restrict the seeded schedule to this \
           comma-separated subset of injection points (the chaos harness \
           uses this to aim at one subsystem at a time)")

let serve_term primary_t =
  Term.(
    const
      (fun primary repl_seed repl_retain peers lease_ms no_auto_failover
           storage ->
        serve_main ~primary ~repl_seed ~repl_retain ~peers ~lease_ms
          ~no_auto_failover ~storage)
    $ primary_t $ srv_repl_seed $ srv_repl_retain $ srv_peers $ srv_lease_ms
    $ srv_no_auto_failover $ storage_term $ srv_listen $ srv_db_dir
    $ srv_checkpoint_every $ srv_max_sessions $ srv_max_active $ srv_max_queued
    $ srv_max_wait_ms $ srv_global_rows $ limits_term $ srv_read_timeout_ms
    $ srv_die_on_broken_wal $ faults_arg $ fault_seed_arg $ fault_rate_arg
    $ fault_points_arg)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve concurrent SQL sessions over a socket (snapshot-isolated \
          reads, group-committed writes, admission control).  A durable \
          server also serves REPL streams to standbys and the BACKUP \
          statement; with --peers it takes part in lease-based automated \
          failover (leases ride the replication stream, elections are \
          deterministic, every promotion bumps an epoch that fences the \
          old primary out)")
    (serve_term Term.(const None))

let standby_cmd =
  let primary =
    Arg.(
      required
      & opt (some string) None
      & info [ "primary" ] ~docv:"ADDR"
          ~doc:
            "The primary to follow (unix:PATH or tcp:HOST:PORT).  The \
             standby serves reads and STATUS only, replays the primary's \
             WAL stream as it arrives, reconnects with jittered backoff \
             when the stream breaks, and becomes a primary on PROMOTE (or \
             SIGUSR1)")
  in
  Cmd.v
    (Cmd.info "standby"
       ~doc:
         "Serve a read-only hot standby replaying a primary's WAL stream \
          (requires --db; PROMOTE or SIGUSR1 fails over)")
    (serve_term Term.(const Option.some $ primary))

let backup_cmd =
  let db_dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "db" ] ~docv:"DIR" ~doc:"The database directory to back up")
  in
  let dest =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DEST")
  in
  Cmd.v
    (Cmd.info "backup"
       ~doc:
         "Write a checksummed, LSN-stamped backup (snapshot + WAL tail + \
          manifest) of a database directory into a fresh DEST.  This \
          subcommand opens the directory itself — for a hot backup of a \
          live server, run the BACKUP statement through it instead: \
          eagerdb sql \"BACKUP 'DEST'\"")
    Term.(
      const backup_main $ db_dir $ dest $ faults_arg $ fault_seed_arg
      $ fault_rate_arg)

let restore_cmd =
  let verify_only =
    Arg.(
      value & flag
      & info [ "verify-only" ]
          ~doc:"Only verify the backup's checksums and LSN stamps; write \
                nothing")
  in
  let src =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BACKUP_DIR")
  in
  let dest = Arg.(value & pos 1 (some string) None & info [] ~docv:"DEST") in
  Cmd.v
    (Cmd.info "restore"
       ~doc:
         "Verify a backup end to end (manifest checksums, snapshot trailer, \
          full WAL scan — any corrupted byte is a typed refusal) and copy \
          it into a fresh DEST ready to serve")
    Term.(const restore_main $ verify_only $ src $ dest)

let sql_cmd =
  let connect =
    Arg.(
      value
      & opt string "unix:/tmp/eagerdb.sock"
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:"Server address: unix:PATH or tcp:HOST:PORT")
  in
  let timeout =
    Arg.(
      value & opt float 30_000.
      & info [ "timeout" ] ~docv:"MS"
          ~doc:"Per-response read deadline in milliseconds")
  in
  let retries =
    Arg.(
      value & opt int 5
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry budget for transient failures and BUSY shed responses \
             (jittered exponential backoff, honouring the server's \
             retry-after hint)")
  in
  let backoff =
    Arg.(
      value & opt float 25.
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:"Base backoff between retries, doubled per attempt")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "retry-seed" ] ~docv:"N"
          ~doc:"Jitter seed (explicit so retry schedules are reproducible)")
  in
  let redirects =
    Arg.(
      value & opt int 2
      & info [ "redirects" ] ~docv:"N"
          ~doc:
            "Fenced redirects to follow before giving up: a node that lost \
             (or never held) the write lease refuses with a typed Fenced \
             error naming the new primary, and the client re-aims the \
             script there (duplicate-safe — the refusal precedes \
             execution).  0 pins the client to --connect")
  in
  let script =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL")
  in
  let file =
    Arg.(
      value
      & opt (some file) None
      & info [ "f"; "file" ] ~docv:"FILE"
          ~doc:
            "Read the SQL script from $(docv) (stdin if neither SQL nor -f \
             is given)")
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Send a SQL script to a running server")
    Term.(
      const sql_main $ connect $ timeout $ retries $ backoff $ seed
      $ redirects $ script $ file)

let () =
  let main =
    Cmd.group
      (Cmd.info "eagerdb" ~version:"1.0.0"
         ~doc:"Group-by pushdown demonstrator (Yan & Larson, ICDE 1994)")
      [ run_cmd; demo_cmd; repl_cmd; fuzz_cmd; chaos_cmd; serve_cmd;
        standby_cmd; backup_cmd; restore_cmd; sql_cmd ]
  in
  exit (Cmd.eval' main)
