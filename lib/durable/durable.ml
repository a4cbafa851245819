(* A write-ahead-logged database session.  See durable.mli for the
   protocol; the invariants that matter here:

   - the WAL fsync is the commit point: a statement is committed iff its
     record (header + payload + terminator) is fully on disk,
   - apply failures after logging leave an abort marker so replay skips
     the record instead of re-raising on a statement that never took,
   - a snapshot's [wal-lsn] stamp makes checkpointing a two-step
     protocol that is safe to interrupt anywhere: records at or below
     the stamp are redundant, never required. *)

open Eager_storage
open Eager_robust
open Eager_parser

let ( let* ) = Err.( let* )

type t = {
  db : Database.t;
  wal : Wal.t;
  dir : string;
  checkpoint_every : int option;
  mutable since_checkpoint : int;
  mutable tap : (Wal.record list -> unit) option;
      (* invoked with each batch of records immediately after the fsync
         that commits them — the replication feed *)
}

type recovery = {
  snapshot_lsn : int;
  replayed : int;
  skipped_aborted : int;
  skipped_failed : int;
  torn_bytes : int;
  finished_checkpoint : bool;
}

let db t = t.db
let dir t = t.dir
let lsn t = Wal.next_seq t.wal - 1
let wal_bytes t = Wal.bytes_logged t.wal
let wal_broken t = Wal.broken t.wal
let set_commit_tap t tap = t.tap <- tap

let committed t records =
  match (t.tap, records) with
  | None, _ | _, [] -> ()
  | Some tap, records -> tap records

let snapshot_exists ~dir =
  Sys.file_exists (Filename.concat dir "snapshot.eagerdb")

(* abort payloads are the decimal seq of the victim record *)
let aborted_seqs records =
  List.fold_left
    (fun acc (r : Wal.record) ->
      let* acc = acc in
      match r.kind with
      | Wal.Stmt -> Ok acc
      | Wal.Abort -> (
          match int_of_string_opt r.payload with
          | Some victim when victim > 0 && victim < r.seq -> Ok (victim :: acc)
          | _ ->
              Error
                (Err.io "wal record #%d: malformed abort marker %S" r.seq
                   r.payload)))
    (Ok []) records

let replay db records ~lsn =
  let replayed = ref 0 and skipped_failed = ref 0 in
  let* aborted = aborted_seqs records in
  let* () =
    Err.iter_result
      (fun (r : Wal.record) ->
        if r.kind <> Wal.Stmt || r.seq <= lsn || List.mem r.seq aborted then
          Ok ()
        else
          let* () = Fault.check "wal.replay" in
          let* stmt =
            match Parser.parse_statement r.payload with
            | stmt -> Ok stmt
            | exception Parser.Parse_error msg ->
                (* checksummed payloads always re-parse unless the log
                   was written by an incompatible build *)
                Error (Err.io "wal record #%d does not re-parse: %s" r.seq msg)
            | exception Lexer.Lex_error msg ->
                Error (Err.io "wal record #%d does not re-lex: %s" r.seq msg)
          in
          match Binder.exec_statement db stmt with
          | Ok _ ->
              incr replayed;
              Ok ()
          | Error _ ->
              (* the original apply refused this statement and the crash
                 ate its abort marker; refusing again is the
                 deterministic replay of that history *)
              incr skipped_failed;
              Ok ())
      records
  in
  Ok (!replayed, !skipped_failed, List.length aborted)

let open_ ?checkpoint_every ?storage ~dir () =
  let result =
    let* () =
      Err.protect ~kind:Err.Io (fun () ->
          if not (Sys.file_exists dir) then Unix.mkdir dir 0o755)
    in
    let* db, lsn =
      if snapshot_exists ~dir then Persist.load_with_lsn ?storage ~dir ()
      else Ok (Database.create ?storage (), 0)
    in
    let wal_path = Wal.path ~dir in
    let* records, tail = Wal.scan wal_path in
    let* torn_bytes =
      match tail with
      | Wal.Complete -> Ok 0
      | Wal.Torn { valid_len; dropped } ->
          let* () = Wal.truncate_to wal_path valid_len in
          Ok dropped
    in
    let* () =
      match records with
      | { seq; _ } :: _ when seq > lsn + 1 ->
          Error
            (Err.io
               "wal starts at record #%d but the snapshot only covers up to \
                #%d — committed records are missing"
               seq lsn)
      | _ -> Ok ()
    in
    let* replayed, skipped_failed, skipped_aborted = replay db records ~lsn in
    let last_seq =
      List.fold_left (fun _ (r : Wal.record) -> r.seq) 0 records
    in
    let next_seq = max last_seq lsn + 1 in
    (* the cluster epoch is the max of the epoch file and what the log
       records carry; if the records are ahead (the epoch file write is
       atomic, but belt and braces) re-persist before trusting it *)
    let* file_epoch = Wal.load_epoch ~dir in
    let record_epoch =
      List.fold_left (fun acc (r : Wal.record) -> max acc r.epoch) 0 records
    in
    let epoch = max file_epoch record_epoch in
    let* () =
      if record_epoch > file_epoch then Wal.persist_epoch ~dir epoch
      else Ok ()
    in
    let* wal =
      Wal.open_append ~path:wal_path ~next_seq ~epoch ~rec_epoch:record_epoch
        ()
    in
    (* a log whose every record is covered by the snapshot is the
       residue of a checkpoint that crashed between snapshot and
       truncate; finish the job *)
    let* finished_checkpoint =
      if records <> [] && last_seq <= lsn then
        let* () = Wal.truncate wal in
        Ok true
      else Ok false
    in
    let t = { db; wal; dir; checkpoint_every; since_checkpoint = 0; tap = None } in
    let recovery =
      {
        snapshot_lsn = lsn;
        replayed;
        skipped_aborted;
        skipped_failed;
        torn_bytes;
        finished_checkpoint;
      }
    in
    Ok (t, recovery)
  in
  Err.with_context (Printf.sprintf "recovering %s" dir) result

let epoch t = Wal.epoch t.wal

(* Ratchet the cluster epoch: persist first, adopt in memory second, so
   a failure leaves us at the old epoch (safe: the caller refuses to
   promote / ingest) rather than acting on an epoch a crash would
   forget. *)
let set_epoch t e =
  if e <= epoch t then Ok ()
  else
    let* () = Wal.persist_epoch ~dir:t.dir e in
    Wal.set_epoch t.wal e;
    Ok ()

let bump_epoch t =
  let e = epoch t + 1 in
  let* () = set_epoch t e in
  Ok e

let checkpoint t =
  let lsn = Wal.next_seq t.wal - 1 in
  let result =
    (* flush-before-checkpoint barrier: a paged database writes every
       dirty page back before the snapshot reads the heaps, so the
       snapshot and the pager files agree *)
    let* () = Err.protect ~kind:Err.Io (fun () -> Database.flush t.db) in
    let* () = Persist.save ~wal_lsn:lsn t.db ~dir:t.dir in
    let* () = Wal.truncate t.wal in
    t.since_checkpoint <- 0;
    Ok lsn
  in
  Err.with_context "checkpoint" result

let backup t ~dir:target =
  Backup.write ~db:t.db ~lsn:(lsn t) ~epoch:(epoch t)
    ~wal_path:(Wal.path ~dir:t.dir) ~dir:target

(* Standby-side replication apply: log the shipped record verbatim (the
   fsync is the standby's commit point too), then apply statements.  The
   standby NEVER originates records of its own — an abort marker for an
   apply that failed on the primary arrives as the next stream record,
   and a statement that refuses locally refused on the primary too, so
   its marker is already in flight; synthesising one here would desync
   the two logs' sequence numbering and poison every later handshake. *)
let ingest t (r : Wal.record) =
  let* () = Fault.check "repl.recv" in
  let expected = Wal.next_seq t.wal in
  if r.seq <> expected then
    Error
      (Err.io "replication stream out of order: got record #%d, expected #%d"
         r.seq expected)
  else if r.epoch < Wal.rec_epoch t.wal then
    (* epoch fencing: a zombie primary that lost an election can never
       rewrite history — its records carry an epoch below the log's
       high-water mark and die here.  The fence is the RECORD epoch, not
       the node's floor: a standby that has observed a promotion (floor
       bumped) must still ingest the older-epoch backlog it is catching
       up through — the stream-level handshake guard is what keeps
       whole zombie streams out. *)
    Error
      (Err.fenced
         "record #%d carries stale epoch %d but this log is at epoch %d"
         r.seq r.epoch (Wal.rec_epoch t.wal))
  else
    let* () = set_epoch t r.epoch in
    let* stmt =
      match r.kind with
      | Wal.Abort -> Ok None
      | Wal.Stmt -> (
          match Parser.parse_statement r.payload with
          | stmt -> Ok (Some stmt)
          | exception Parser.Parse_error msg ->
              Error
                (Err.io "shipped record #%d does not re-parse: %s" r.seq msg)
          | exception Lexer.Lex_error msg ->
              Error (Err.io "shipped record #%d does not re-lex: %s" r.seq msg))
    in
    let* (_ : int) = Wal.append ~epoch:r.epoch t.wal ~kind:r.kind r.payload in
    committed t [ r ];
    (match stmt with
    | None -> ()
    | Some stmt -> (
        match Binder.exec_statement t.db stmt with
        | Ok _ -> t.since_checkpoint <- t.since_checkpoint + 1
        | Error _ ->
            (* the primary's apply refused this statement too; its abort
               marker is the next record in the stream *)
            ()));
    match t.checkpoint_every with
    | Some every when t.since_checkpoint >= every ->
        let* (_ : int) = checkpoint t in
        Ok ()
    | _ -> Ok ()

let exec t stmt =
  match stmt with
  | Ast.S_select _ | Ast.S_explain _ | Ast.S_status | Ast.S_promote ->
      (* reads never touch the log; STATUS and PROMOTE are answered by
         the server front end (or refused by the binder outside one) *)
      Err.of_msg Err.Exec (Binder.exec_statement t.db stmt)
  | Ast.S_checkpoint ->
      let* lsn = checkpoint t in
      Ok (Binder.Checkpointed lsn)
  | Ast.S_backup dir ->
      let* lsn = backup t ~dir in
      Ok (Binder.Backed_up { dir; lsn })
  | _ ->
      let sql = Ast.statement_to_string stmt in
      let* seq = Wal.append t.wal ~kind:Wal.Stmt sql in
      committed t
        [ { Wal.seq; kind = Wal.Stmt; payload = sql; epoch = epoch t } ];
      let applied = Binder.exec_statement t.db stmt in
      (match applied with
      | Ok outcome ->
          t.since_checkpoint <- t.since_checkpoint + 1;
          let* () =
            match t.checkpoint_every with
            | Some every when t.since_checkpoint >= every ->
                let* (_ : int) = checkpoint t in
                Ok ()
            | _ -> Ok ()
          in
          Ok outcome
      | Error msg ->
          (* logged but not applied: leave an abort marker so replay
             skips the record.  If even that write fails the handle is
             poisoned and the session refuses further statements. *)
          let marker = string_of_int seq in
          let aborted = Wal.append t.wal ~kind:Wal.Abort marker in
          let e = Err.exec "%s" msg in
          Error
            (match aborted with
            | Ok mseq ->
                committed t
                  [ { Wal.seq = mseq; kind = Wal.Abort; payload = marker;
                      epoch = epoch t } ];
                e
            | Error we ->
                Err.add_context
                  (Printf.sprintf "and the abort marker failed: %s"
                     (Err.to_string we))
                  e))

(* Group commit: log every statement of the batch buffered, commit the
   lot with ONE fsync, then apply each.  The single [Wal.sync] is the
   commit point for the whole batch — a crash before it loses every
   statement of the batch (none was acknowledged), a crash after it
   loses none.  Apply failures leave abort markers exactly as in [exec];
   the markers themselves are group-committed with a second sync.  The
   per-statement results come back in order; a batch-level log failure
   (poisoned handle, injected wal fault) replicates into every entry,
   because with the fsync never issued none of them committed. *)
let exec_grouped t stmts =
  let all_failed e = List.map (fun _ -> Error e) stmts in
  let loggable = function
    | Ast.S_select _ | Ast.S_explain _ | Ast.S_checkpoint | Ast.S_status
    | Ast.S_backup _ | Ast.S_promote ->
        false
    | _ -> true
  in
  if List.exists (fun s -> not (loggable s)) stmts then
    all_failed
      (Err.exec
         "exec_grouped: queries, CHECKPOINT, BACKUP and PROMOTE cannot ride \
          a group commit")
  else
    (* phase 1: buffered appends *)
    let sqls = List.map Ast.statement_to_string stmts in
    let seqs =
      List.map (fun sql -> Wal.append_buffered t.wal ~kind:Wal.Stmt sql) sqls
    in
    match List.find_opt Result.is_error seqs with
    | Some (Error e) -> all_failed e
    | Some (Ok _) (* unreachable *) | None -> (
        (* phase 2: the one fsync that commits the whole batch *)
        match Wal.sync t.wal with
        | Error e -> all_failed e
        | Ok () ->
            committed t
              (List.map2
                 (fun sql seq ->
                   { Wal.seq = Result.get_ok seq;
                     kind = Wal.Stmt;
                     payload = sql;
                     epoch = epoch t;
                   })
                 sqls seqs);
            (* phase 3: apply each committed statement *)
            let aborts = ref [] in
            let results =
              List.map2
                (fun stmt seq ->
                  let seq = Result.get_ok seq in
                  match Binder.exec_statement t.db stmt with
                  | Ok outcome ->
                      t.since_checkpoint <- t.since_checkpoint + 1;
                      Ok outcome
                  | Error msg ->
                      aborts := seq :: !aborts;
                      Error (Err.exec "%s" msg))
                stmts seqs
            in
            (* phase 4: group-commit the abort markers, if any *)
            let abort_failure =
              match !aborts with
              | [] -> None
              | victims -> (
                  let markers =
                    List.map
                      (fun victim ->
                        ( victim,
                          Wal.append_buffered t.wal ~kind:Wal.Abort
                            (string_of_int victim) ))
                      (List.rev victims)
                  in
                  let failed =
                    List.find_map
                      (fun (_, r) ->
                        match r with Ok _ -> None | Error e -> Some e)
                      markers
                  in
                  match failed with
                  | Some e -> Some e
                  | None -> (
                      match Wal.sync t.wal with
                      | Ok () ->
                          committed t
                            (List.map
                               (fun (victim, r) ->
                                 { Wal.seq = Result.get_ok r;
                                   kind = Wal.Abort;
                                   payload = string_of_int victim;
                                   epoch = epoch t;
                                 })
                               markers);
                          None
                      | Error e -> Some e))
            in
            let results =
              match abort_failure with
              | None -> results
              | Some we ->
                  (* the failed statements' markers may not be durable;
                     surface that on each failed entry so the caller
                     knows replay might re-refuse them instead *)
                  List.map
                    (function
                      | Ok _ as ok -> ok
                      | Error e ->
                          Error
                            (Err.add_context
                               (Printf.sprintf
                                  "and the abort marker failed: %s"
                                  (Err.to_string we))
                               e))
                    results
              in
            (* auto-checkpoint once per batch, after everything applied *)
            (match t.checkpoint_every with
            | Some every when t.since_checkpoint >= every ->
                ignore (checkpoint t : (int, Err.t) result)
            | _ -> ());
            results)

let run_script_with t src ~f =
  let* stmts =
    match Parser.parse_script src with
    | stmts -> Ok stmts
    | exception Parser.Parse_error msg -> Error (Err.parse "%s" msg)
    | exception Lexer.Lex_error msg -> Error (Err.parse "%s" msg)
  in
  Err.iter_result
    (fun stmt ->
      let* outcome = exec t stmt in
      f outcome;
      Ok ())
    stmts

let close t =
  Wal.close t.wal
