(* The session server: one accept thread, one commit thread, one thread
   per session.

   Write path: session threads never touch the WAL or the database
   directly — they enqueue statement runs on the commit queue and block
   on an ivar.  The commit thread drains the whole queue each wake-up
   and commits every drained run with ONE fsync (Durable.exec_grouped),
   which is where group commit amortization comes from: concurrency in
   the arrival process directly becomes batching in the log.

   Read path: session threads take the commit lock just long enough to
   stamp an LSN and obtain a frozen snapshot (Snapshot.get), then run
   the query with zero shared mutable state.  Writers committing
   concurrently are invisible to an in-flight reader by construction. *)

open Eager_storage
open Eager_exec
open Eager_core
open Eager_opt
open Eager_parser
open Eager_durable
open Eager_robust

type listen = L_unix of string | L_tcp of string * int

type role = Primary | Standby of { primary : Client.addr; repl_seed : int }

type config = {
  listen : listen;
  admission : Admission.config;
  read_timeout_ms : float;
  db_dir : string option;
  storage : Database.storage_config option;
      (* paged engine: buffer pool + pager files behind every heap *)
  checkpoint_every : int option;
  die_on_broken_wal : bool;
  role : role;
  repl_retain : int;
  peers : Client.addr list;
  lease_ms : float;
  auto_failover : bool;
}

let default_config listen =
  {
    listen;
    admission = Admission.default_config;
    read_timeout_ms = 30_000.;
    db_dir = None;
    storage = None;
    checkpoint_every = None;
    die_on_broken_wal = false;
    role = Primary;
    repl_retain = 1024;
    peers = [];
    lease_ms = 1_000.;
    auto_failover = true;
  }

(* how long a standby waits between heartbeats before declaring the
   stream dead; senders heartbeat at a quarter of this *)
let repl_heartbeat_ms = 250.

(* Failover is armed only when the operator names the rest of the
   cluster: a peerless server never elects, never fences itself for a
   lapsed lease, and never holds commits for a standby ack — exactly
   the pre-failover behaviour. *)
let failover_active cfg = cfg.auto_failover && cfg.peers <> []

(* The skew margin a standby adds past its lease-observation deadline
   before electing: the primary self-suspends at [lease_ms] after the
   send-instant of the last grant a standby ACKNOWLEDGED, and the
   standby observed that grant at or after the send, so by
   [deadline + skew] a live-but-slow primary has already stopped
   acking writes (see DESIGN.md §15 for the timing argument). *)
let skew_margin_ms cfg = Float.max 100. (cfg.lease_ms /. 2.)

(* How long a granted ballot binds its voter.  It must comfortably
   outlast one election round — every probe timing out, plus the
   winner's promotion fsync — or a voter could back a second candidate
   while the first is still mid-promotion; it must also expire, or a
   winner that died between collecting grants and promoting would wedge
   the cluster on its stale ballots. *)
let vote_window_ms cfg =
  let probe = Float.max 250. (cfg.lease_ms /. 2.) in
  (2. *. cfg.lease_ms) +. (float_of_int (List.length cfg.peers) *. probe)

(* a write-once cell the commit thread fills and a session thread waits on *)
module Ivar = struct
  type 'a t = { mu : Mutex.t; cv : Condition.t; mutable v : 'a option }

  let create () = { mu = Mutex.create (); cv = Condition.create (); v = None }

  let fill t v =
    Mutex.lock t.mu;
    t.v <- Some v;
    Condition.broadcast t.cv;
    Mutex.unlock t.mu

  let read t =
    Mutex.lock t.mu;
    while Option.is_none t.v do
      Condition.wait t.cv t.mu
    done;
    let v = Option.get t.v in
    Mutex.unlock t.mu;
    v
end

type write_req =
  | W_batch of Ast.statement list * (Binder.outcome, Err.t) result list Ivar.t
      (** a contiguous run of loggable writes from one request *)
  | W_checkpoint of (Binder.outcome, Err.t) result Ivar.t
  | W_backup of string * (Binder.outcome, Err.t) result Ivar.t
      (** online hot backup: a commit-queue barrier, so the snapshot and
          WAL tail it seals describe one quiesced instant — without ever
          blocking readers, who run on frozen snapshots anyway *)

type backend =
  | Durable of Durable.t
  | Mem of { db : Database.t; mutable mem_lsn : int }

(* A primary that lost its place in the cluster: it keeps serving reads
   on its last-known history, but every write refuses with a typed
   [Fenced] error, and only a restart (re-seeded from the new history)
   clears the state.  [leader] fills in as the successor is
   discovered. *)
type fenced = { at_epoch : int; new_epoch : int; leader : string option }

type t = {
  cfg : config;
  backend : backend;
  adm : Admission.t;
  tel : Telemetry.t;
  snaps : Snapshot.t;
  commit_mu : Mutex.t;  (* apply vs snapshot exclusion *)
  q_mu : Mutex.t;
  q_cv : Condition.t;
  queue : write_req Queue.t;
  mutable shutdown : bool;
  mutable fatal : Err.t option;
  listen_fd : Unix.file_descr;
  addr_str : string;
  sess_mu : Mutex.t;
  mutable session_fds : Unix.file_descr list;
  mutable session_threads : Thread.t list;
  mutable core_threads : Thread.t list;  (* commit + accept *)
  fin_mu : Mutex.t;
  mutable finalized : bool;
  (* replication *)
  hub : Repl.hub option;  (* Some iff the backend is durable *)
  role_mu : Mutex.t;  (* guards the fields below *)
  mutable is_standby : bool;
  mutable applier : Repl.applier option;
  mutable senders : Repl.sender_stats list;  (* live outbound streams *)
  (* failover *)
  mutable fenced : fenced option;
  mutable primary_addr : Client.addr option;  (* current upstream (standby) *)
  mutable elections : int;
  mutable grace_until_ms : float;
      (* lease grace after start/promotion: no suspension, no election *)
  (* the ballot ledger: at most one candidate granted per target epoch
     per window (all under role_mu).  In-memory only — a restart forgets
     it — but the window it needs to hold is one election round, and a
     restart takes longer than that. *)
  mutable voted_epoch : int;
  mutable voted_for : string;
  mutable voted_at_ms : float;
}

let bound_addr t = t.addr_str
let db_of t = match t.backend with Durable d -> Durable.db d | Mem m -> m.db

let current_lsn t =
  match t.backend with Durable d -> Durable.lsn d | Mem m -> m.mem_lsn

let epoch_of t = match t.backend with Durable d -> Durable.epoch d | Mem _ -> 0

let standby_now t =
  Mutex.lock t.role_mu;
  let v = t.is_standby in
  Mutex.unlock t.role_mu;
  v

let is_fenced t =
  Mutex.lock t.role_mu;
  let v = Option.is_some t.fenced in
  Mutex.unlock t.role_mu;
  v

(* ---------- fencing ---------- *)

(* Fence this primary out of the cluster: a higher epoch exists, so some
   standby won an election past us.  Reads keep serving (the data up to
   our last commit is real history), writes refuse from here on, and the
   hub closes so every outbound stream — which would be shipping grants
   for a lease we no longer hold — dies now.  Idempotent; later calls
   may fill in a newly discovered leader or a higher epoch. *)
let fence t ~new_epoch ~leader =
  Mutex.lock t.role_mu;
  let first = Option.is_none t.fenced && not t.is_standby in
  (match t.fenced with
  | Some f ->
      let leader = if Option.is_some leader then leader else f.leader in
      t.fenced <- Some { f with new_epoch = max f.new_epoch new_epoch; leader }
  | None ->
      if not t.is_standby then
        t.fenced <- Some { at_epoch = epoch_of t; new_epoch; leader });
  Mutex.unlock t.role_mu;
  if first then
    match t.hub with Some hub -> Repl.close_hub hub | None -> ()

let fenced_err t ~what =
  Mutex.lock t.role_mu;
  let f = t.fenced in
  Mutex.unlock t.role_mu;
  match f with
  | None -> None
  | Some f ->
      Some
        (Err.fenced
           "%s refused: this node was fenced at epoch %d (the cluster moved \
            on to epoch %d)%s"
           what f.at_epoch f.new_epoch
           (match f.leader with
           | Some l -> Printf.sprintf " — the new primary is redirect=%s" l
           | None -> ""))

(* The primary holds its lease iff SOME standby ACKNOWLEDGED a recent
   grant — or we are inside the startup/promotion grace, when no
   standby has had time to connect yet.  A local socket write proves
   nothing (a partition's TCP buffers absorb frames indefinitely), so
   the lease reads [lease_anchor_ms]: the send-instant of the last
   grant a standby echoed back in an RACK.  The standby observed that
   grant AT OR AFTER the anchor, so its observation window always
   outlives this reckoning — delivery failure lapses both sides, the
   primary first.  Reads race benignly with the sender threads: a
   stale read errs toward giving the lease up early, never toward
   keeping it. *)
let holds_lease t =
  let now = Clock.now_ms () in
  Mutex.lock t.role_mu;
  let grace = t.grace_until_ms in
  let anchor =
    List.fold_left
      (fun acc (s : Repl.sender_stats) -> Float.max acc s.lease_anchor_ms)
      0. t.senders
  in
  Mutex.unlock t.role_mu;
  now <= grace || (anchor > 0. && now -. anchor <= t.cfg.lease_ms)

(* Semi-synchronous acknowledgement, failover mode only: a batch is
   reported committed only once some standby ACKNOWLEDGED applying the
   records (its RACK covers the batch's LSN) — a record sitting in
   this node's socket buffer dies with it under a partition, so a
   local write success counts for nothing.  Bounded by the lease
   window; on timeout the batch IS durable locally, but it is answered
   with a typed error telling the client to treat it as failed (if the
   cluster moves on, the epoch fence erases it; if this node survives,
   the write stands — the classic semi-sync ambiguity, scoped to a
   window the operator chose). *)
let await_ship t d =
  if not (failover_active t.cfg) || standby_now t then Ok ()
  else begin
    let target = Durable.lsn d in
    let deadline = Clock.now_ms () +. t.cfg.lease_ms in
    let acked () =
      Mutex.lock t.role_mu;
      let v =
        List.fold_left
          (fun acc (s : Repl.sender_stats) -> max acc s.acked_lsn)
          (-1) t.senders
      in
      Mutex.unlock t.role_mu;
      v
    in
    let rec wait () =
      if acked () >= target then Ok ()
      else if Clock.now_ms () >= deadline then
        Error
          (Err.io
             "commit is durable on this node but no standby acknowledged it \
              within the %.0f ms lease window; treat the statement as failed \
              — if the cluster elects a new primary this write will be \
              fenced away with this node"
             t.cfg.lease_ms)
      else begin
        Clock.sleep_ms 2.;
        wait ()
      end
    in
    wait ()
  end

(* ---------- shutdown plumbing ---------- *)

(* idempotent, join-free: safe to call from the commit thread itself *)
let initiate_shutdown t =
  Mutex.lock t.q_mu;
  let first = not t.shutdown in
  t.shutdown <- true;
  Condition.broadcast t.q_cv;
  Mutex.unlock t.q_mu;
  if first then begin
    (* nudge every live session off its blocking select *)
    Mutex.lock t.sess_mu;
    List.iter
      (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.session_fds;
    Mutex.unlock t.sess_mu;
    (* wake outbound replication streams and stop the inbound one *)
    (match t.hub with Some hub -> Repl.close_hub hub | None -> ());
    Mutex.lock t.role_mu;
    let applier = t.applier in
    t.applier <- None;
    Mutex.unlock t.role_mu;
    match applier with Some a -> Repl.stop_applier a | None -> ()
  end

let set_fatal t e =
  Mutex.lock t.q_mu;
  if Option.is_none t.fatal then t.fatal <- Some e;
  Mutex.unlock t.q_mu;
  initiate_shutdown t

(* ---------- commit thread ---------- *)

let rec take n l =
  if n = 0 then ([], l)
  else
    match l with
    | [] -> ([], [])
    | x :: rest ->
        let a, b = take (n - 1) rest in
        (x :: a, b)

(* Commit the drained batches in arrival order; contiguous W_batch runs
   share one group commit, W_checkpoint acts as a barrier.  [commit_mu]
   is held only around the backend mutations (apply vs snapshot
   exclusion) — NOT across the semi-sync wait, which can last a whole
   lease window: a reader stamping a snapshot, or a reconnecting
   standby's handshake reading the LSN under the same lock, must never
   be held hostage by a commit that is waiting for that very standby's
   ack. *)
let process_drain t reqs =
  let locked f =
    Mutex.lock t.commit_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.commit_mu) f
  in
  let flush_batches = function
    | [] -> ()
    | batches -> (
        match fenced_err t ~what:"write" with
        | Some e ->
            (* the commit queue is poisoned: runs that were enqueued
               before the fence landed refuse without touching the WAL —
               the fenced node must not extend a superseded history *)
            Telemetry.fenced_refused t.tel;
            List.iter
              (fun (stmts, iv) ->
                Ivar.fill iv (List.map (fun _ -> Error e) stmts))
              batches
        | None ->
        let all = List.concat_map fst batches in
        let results =
          match t.backend with
          | Durable d ->
              let rs = locked (fun () -> Durable.exec_grouped d all) in
              Telemetry.group_commit t.tel ~statements:(List.length all);
              (match await_ship t d with
              | Ok () -> rs
              | Error e ->
                  (* committed locally, never acked: downgrade every
                     success to the typed never-acked error; statement
                     refusals stay what they were *)
                  List.map (function Ok _ -> Error e | r -> r) rs)
          | Mem m ->
              locked (fun () ->
                  List.map
                    (fun s ->
                      match
                        Err.of_msg Err.Bind (Binder.exec_statement m.db s)
                      with
                      | Ok o ->
                          m.mem_lsn <- m.mem_lsn + 1;
                          Ok o
                      | Error e -> Error e)
                    all)
        in
        let rec give rs = function
          | [] -> ()
          | (stmts, iv) :: rest ->
              let mine, rs' = take (List.length stmts) rs in
              Ivar.fill iv mine;
              give rs' rest
        in
        give results batches)
  in
  let rec go acc = function
    | [] -> flush_batches (List.rev acc)
    | W_batch (stmts, iv) :: rest -> go ((stmts, iv) :: acc) rest
    | W_checkpoint iv :: rest ->
        flush_batches (List.rev acc);
        let r =
          match t.backend with
          | Durable d ->
              locked (fun () ->
                  Result.map
                    (fun l -> Binder.Checkpointed l)
                    (Durable.checkpoint d))
          | Mem _ ->
              Error
                (Err.io "CHECKPOINT requires a durable server (serve --db DIR)")
        in
        Ivar.fill iv r;
        go [] rest
    | W_backup (dir, iv) :: rest ->
        flush_batches (List.rev acc);
        let r =
          match t.backend with
          | Durable d ->
              locked (fun () ->
                  Result.map
                    (fun lsn -> Binder.Backed_up { dir; lsn })
                    (Durable.backup d ~dir))
          | Mem _ ->
              Error (Err.io "BACKUP requires a durable server (serve --db DIR)")
        in
        Ivar.fill iv r;
        go [] rest
  in
  go [] reqs

let commit_loop t =
  let rec loop () =
    Mutex.lock t.q_mu;
    while Queue.is_empty t.queue && not t.shutdown do
      Condition.wait t.q_cv t.q_mu
    done;
    let drained = List.of_seq (Queue.to_seq t.queue) in
    Queue.clear t.queue;
    let stopping = t.shutdown && drained = [] in
    Mutex.unlock t.q_mu;
    if stopping then ()
    else begin
      process_drain t drained;
      (match t.backend with
      | Durable d when t.cfg.die_on_broken_wal && Durable.wal_broken d ->
          set_fatal t
            (Err.io
               "write-ahead log poisoned mid-commit; halting (die-on-broken-wal)")
      | _ -> ());
      loop ()
    end
  in
  loop ()

(* Refuse new work once shutdown has begun.  The commit thread exits
   as soon as (shutdown && queue empty) holds under [q_mu]; an enqueue
   racing past that check would park its session on an ivar nobody will
   ever fill, and [wait] (which joins session threads) would deadlock.
   Checking the flag under the same mutex closes the race: either the
   commit thread sees our request before exiting, or we see the flag. *)
let enqueue t req =
  Mutex.lock t.q_mu;
  if t.shutdown then begin
    Mutex.unlock t.q_mu;
    Error (Err.io "server is shutting down; statement not executed")
  end
  else begin
    Queue.add req t.queue;
    Condition.signal t.q_cv;
    Mutex.unlock t.q_mu;
    Ok ()
  end

(* ---------- query rendering (shared with the CLI's script runner) ---------- *)

let render_table buf heap =
  let schema = Heap.schema heap in
  let headers =
    Array.map (fun (c, _) -> Eager_schema.Colref.to_string c)
      (Eager_schema.Schema.cols schema)
  in
  let rows =
    Heap.to_list heap
    |> List.map (fun row -> Array.map Eager_value.Value.to_string row)
  in
  let ncols = Array.length headers in
  let widths = Array.map String.length headers in
  List.iter
    (fun row ->
      Array.iteri (fun i s -> widths.(i) <- max widths.(i) (String.length s)) row)
    rows;
  let line cells =
    String.concat " | "
      (List.init ncols (fun i ->
           let s = if i < Array.length cells then cells.(i) else "" in
           s ^ String.make (widths.(i) - String.length s) ' '))
  in
  let out s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  out (line headers);
  out
    (String.concat "-+-"
       (Array.to_list (Array.map (fun w -> String.make w '-') widths)));
  List.iter (fun r -> out (line r)) rows;
  Buffer.add_string buf (Printf.sprintf "(%d rows)\n" (List.length rows))

type show = Results | Explain | Explain_analyze

let plan_label d =
  Placement.mode_to_string (Planner.chosen_candidate d).Placement.mode

let run_query_buf db (q : Binder.bound_query) ~governor ~order ~show buf =
  let ( let* ) = Err.( let* ) in
  let bprintf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let options =
    { Exec.default_options with governor; spill = Spill.for_db db }
  in
  let io = Cost.default_io db in
  let checked plan k =
    let* heap, stats = Exec.run_checked ~options db plan in
    k (heap, stats);
    Ok ()
  in
  let analyze plan =
    let t0 = Clock.now_ms () in
    checked (Binder.apply_order order plan) (fun (heap, stats) ->
        bprintf "%s(%d rows in %.2f ms)\n" (Optree.to_string stats)
          (Heap.length heap)
          (Clock.now_ms () -. t0))
  in
  let finish plan =
    match show with
    | Explain ->
        bprintf "%s\n"
          (Eager_algebra.Plan.to_string (Binder.apply_order order plan));
        Ok ()
    | Explain_analyze -> analyze plan
    | Results ->
        checked (Binder.apply_order order plan) (fun (heap, _) ->
            render_table buf heap)
  in
  match q with
  | Binder.Grouped input -> (
      match Canonical.of_input db input with
      | Ok cq -> (
          let* decision = Planner.decide ~governor ?io db cq in
          match show with
          | Explain ->
              Buffer.add_string buf (Explain.text db decision);
              if order <> [] then bprintf "-- final output sorted per ORDER BY\n";
              Ok ()
          | Explain_analyze ->
              bprintf "-- plan: %s\n" (plan_label decision);
              analyze decision.Planner.chosen
          | Results ->
              let plan = Binder.apply_order order decision.Planner.chosen in
              checked plan (fun (heap, _) ->
                  render_table buf heap;
                  bprintf "-- plan: %s\n" (plan_label decision)))
      | Error reason -> (
          match Binder.to_plan db q with
          | Ok plan ->
              if show <> Results then
                bprintf "-- not in the transformable class: %s\n" reason;
              finish plan
          | Error msg -> Error (Err.bind "%s" msg)))
  | _ -> (
      match Binder.to_plan db q with
      | Ok plan -> finish plan
      | Error msg -> Error (Err.bind "%s" msg))

(* ---------- per-request statement execution ---------- *)

let is_loggable_write = function
  | Ast.S_create_table _ | Ast.S_create_domain _ | Ast.S_create_view _
  | Ast.S_create_index _ | Ast.S_insert _ | Ast.S_update _ | Ast.S_delete _ ->
      true
  | Ast.S_select _ | Ast.S_explain _ | Ast.S_checkpoint | Ast.S_status
  | Ast.S_backup _ | Ast.S_promote ->
      false

let rec span p = function
  | x :: rest when p x ->
      let a, b = span p rest in
      (x :: a, b)
  | l -> ([], l)

let describe_outcome buf = function
  | Binder.Created msg -> Buffer.add_string buf (msg ^ "\n")
  | Binder.Inserted n -> Buffer.add_string buf (Printf.sprintf "%d row(s) inserted\n" n)
  | Binder.Updated n -> Buffer.add_string buf (Printf.sprintf "%d row(s) updated\n" n)
  | Binder.Deleted n -> Buffer.add_string buf (Printf.sprintf "%d row(s) deleted\n" n)
  | Binder.Checkpointed lsn ->
      Buffer.add_string buf (Printf.sprintf "checkpointed at wal lsn %d\n" lsn)
  | Binder.Backed_up { dir; lsn } ->
      Buffer.add_string buf
        (Printf.sprintf "backup written to %s at wal lsn %d\n" dir lsn)
  | Binder.Promoted lsn ->
      Buffer.add_string buf
        (Printf.sprintf "promoted to primary at wal lsn %d\n" lsn)
  | Binder.Query _ | Binder.Explained _ -> ()

(* a frozen reader view stamped with the current LSN; the commit lock is
   held only for the stamp-and-copy, never during query execution *)
let reader_snapshot t =
  Mutex.lock t.commit_mu;
  let lsn = current_lsn t in
  let view = Snapshot.get t.snaps ~lsn ~db:(db_of t) in
  Mutex.unlock t.commit_mu;
  view

let run_read t sess ~governor buf stmt =
  let ( let* ) = Err.( let* ) in
  let view = reader_snapshot t in
  let rows0 = Governor.rows_charged governor in
  let batches0 = Governor.batches_charged governor in
  let* outcome = Err.of_msg Err.Bind (Binder.exec_statement view stmt) in
  let* () =
    match outcome with
    | Binder.Query (q, order) ->
        run_query_buf view q ~governor ~order ~show:Results buf
    | Binder.Explained (q, order, an) ->
        let* () =
          run_query_buf view q ~governor ~order
            ~show:(if an then Explain_analyze else Explain)
            buf
        in
        Buffer.add_string buf ("-- " ^ Telemetry.session_line sess ^ "\n");
        Ok ()
    | other ->
        (* unreachable: writes are routed to the commit queue *)
        describe_outcome buf other;
        Ok ()
  in
  Telemetry.query_served t.tel sess
    ~rows_pulled:(Governor.rows_charged governor - rows0)
    ~batches:(Governor.batches_charged governor - batches0);
  Ok ()

(* the replication line of STATUS: role, LSN positions, lag *)
let repl_line t =
  match t.hub with
  | None -> None
  | Some hub ->
      Mutex.lock t.role_mu;
      let line =
        match (t.is_standby, t.applier) with
        | true, Some a ->
            let primary =
              match t.primary_addr with
              | Some a -> Client.addr_to_string a
              | None -> "?"
            in
            Repl.standby_line (Repl.applier_stats a) ~primary
        | true, None ->
            (* mid-retarget (or a failed promotion): still a standby,
               just between streams — never claim to be a primary *)
            Printf.sprintf "repl: role=standby primary=%s connected=no"
              (match t.primary_addr with
              | Some a -> Client.addr_to_string a
              | None -> "?")
        | false, _ ->
            let hub_lsn = Repl.hub_last_seq hub in
            let shipped =
              List.fold_left
                (fun acc (s : Repl.sender_stats) -> min acc s.shipped_lsn)
                hub_lsn t.senders
            in
            let acked =
              List.fold_left
                (fun acc (s : Repl.sender_stats) -> min acc s.acked_lsn)
                hub_lsn t.senders
            in
            Printf.sprintf
              "repl: role=primary peers=%d shipped_lsn=%d acked_lsn=%d \
               hub_lsn=%d lag_records=%d retain=%d"
              (List.length t.senders) shipped acked hub_lsn (hub_lsn - shipped)
              t.cfg.repl_retain
      in
      Mutex.unlock t.role_mu;
      Some line

(* the failover line of STATUS: epoch, who holds the lease and for how
   much longer, how many election rounds this node has run *)
let failover_line t =
  match t.backend with
  | Mem _ -> None
  | Durable d ->
      if not (failover_active t.cfg) && Durable.epoch d = 0 && not (is_fenced t)
      then None
      else begin
        let now = Clock.now_ms () in
        Mutex.lock t.role_mu;
        let fenced = t.fenced in
        let standby = t.is_standby in
        let elections = t.elections in
        let primary = t.primary_addr in
        let grace = t.grace_until_ms in
        let applier = t.applier in
        let anchor =
          List.fold_left
            (fun acc (s : Repl.sender_stats) -> Float.max acc s.lease_anchor_ms)
            0. t.senders
        in
        Mutex.unlock t.role_mu;
        let role, holder, remaining =
          match fenced with
          | Some f ->
              ("fenced", Option.value f.leader ~default:"?", 0.)
          | None ->
              if standby then begin
                let deadline =
                  match applier with
                  | Some a ->
                      let st = Repl.applier_stats a in
                      Mutex.lock st.Repl.smu;
                      let v = st.Repl.lease_deadline_ms in
                      Mutex.unlock st.Repl.smu;
                      v
                  | None -> 0.
                in
                let holder =
                  if deadline > now then
                    match primary with
                    | Some a -> Client.addr_to_string a
                    | None -> "?"
                  else "-"
                in
                ("standby", holder, Float.max 0. (deadline -. now))
              end
              else
                let remaining =
                  Float.max (grace -. now)
                    (if anchor > 0. then t.cfg.lease_ms -. (now -. anchor)
                     else 0.)
                in
                let holder = if remaining > 0. then t.addr_str else "-" in
                ("primary", holder, Float.max 0. remaining)
        in
        Some
          (Printf.sprintf
             "failover: epoch=%d role=%s lease_holder=%s \
              lease_remaining_ms=%.0f elections=%d peers=%d lease_ms=%.0f"
             (Durable.epoch d) role holder remaining elections
             (List.length t.cfg.peers) t.cfg.lease_ms)
      end

let pool_line t =
  match Database.pool_stats (db_of t) with
  | None -> None
  | Some s ->
      let open Buffer_pool in
      Some
        (Printf.sprintf
           "buffer_pool: cap=%s resident=%d pinned=%d peak_pinned=%d dirty=%d \
            hit_rate=%.2f hits=%d misses=%d evictions=%d page_reads=%d \
            page_writes=%d"
           (match Database.storage_config (db_of t) with
           | Some { Database.pool_pages = Some c; _ } -> string_of_int c
           | _ -> "unbounded")
           s.resident s.pinned s.peak_pinned s.dirty (hit_rate s) s.hits
           s.misses s.evictions s.page_reads s.page_writes)

let status_report t =
  let repl =
    match (repl_line t, failover_line t) with
    | None, None -> None
    | Some a, None -> Some a
    | None, Some b -> Some b
    | Some a, Some b -> Some (a ^ "\n" ^ b)
  in
  Telemetry.render ?repl ?pool:(pool_line t) t.tel
    ~snapshot_lsn:(current_lsn t) ~sessions:(Admission.sessions t.adm)
    ~active:(Admission.active t.adm) ~queued:(Admission.queued t.adm)

let run_write_batch t sess buf run =
  let ( let* ) = Err.( let* ) in
  let iv = Ivar.create () in
  let* () = enqueue t (W_batch (run, iv)) in
  let results = Ivar.read iv in
  Err.iter_result
    (fun (stmt, result) ->
      let* outcome = result in
      describe_outcome buf outcome;
      Telemetry.write_committed t.tel sess
        ~wal_bytes:(String.length (Ast.statement_to_string stmt));
      Ok ())
    (List.combine run results)

(* Promotion: stop the inbound stream, durably bump the cluster epoch,
   flip the role.  The hub and commit tap have been live since start (a
   standby publishes what it ingests), so the moment the flag flips this
   node serves writes and REPL streams with no further wiring.  The
   epoch bump happens BEFORE the first write is accepted: every record
   this primary commits carries the new epoch, which is what fences the
   old primary's zombie stream out of the rest of the cluster. *)
let promote t =
  match t.backend with
  | Mem _ -> Error (Err.io "PROMOTE requires a durable server (serve --db DIR)")
  | Durable d ->
      Mutex.lock t.role_mu;
      if Option.is_some t.fenced then begin
        Mutex.unlock t.role_mu;
        Error
          (Err.io
             "this node was fenced out of the cluster; re-seed it from a \
              fresh backup before promoting it")
      end
      else if not t.is_standby then begin
        Mutex.unlock t.role_mu;
        Error (Err.io "already primary; PROMOTE is a standby operation")
      end
      else begin
        let applier = t.applier in
        t.applier <- None;
        Mutex.unlock t.role_mu;
        (match applier with Some a -> Repl.stop_applier a | None -> ());
        (* the applier is joined: the LSN is quiescent until writes
           start.  Flip the role only after the bump persists — on
           failure the node stays a read-only standby (its monitor will
           retry the election) rather than becoming a primary whose
           records are indistinguishable from the dead one's. *)
        match Durable.bump_epoch d with
        | Error e ->
            Error (Err.add_context "promotion aborted before taking writes" e)
        | Ok _new_epoch ->
            Mutex.lock t.role_mu;
            t.is_standby <- false;
            t.primary_addr <- None;
            t.grace_until_ms <- Clock.now_ms () +. (2. *. t.cfg.lease_ms);
            Mutex.unlock t.role_mu;
            Ok (Durable.lsn d)
      end

(* The write-refusal ladder, checked before anything is enqueued:
   fenced beats standby beats a lapsed lease.  The first two refuse with
   a typed [Fenced] error whose [redirect=<addr>] token lets [Client.run]
   re-aim the statement at the real primary (duplicate-safe: refusal
   precedes execution); the lease case is a [Resource] suspension — this
   node is still the primary, it just cannot prove it right now, so it
   degrades to read-only instead of risking a split brain. *)
let refuse_writes t what =
  match fenced_err t ~what with
  | Some e ->
      Telemetry.fenced_refused t.tel;
      Error e
  | None ->
      if standby_now t then begin
        Telemetry.fenced_refused t.tel;
        Mutex.lock t.role_mu;
        let primary = t.primary_addr in
        Mutex.unlock t.role_mu;
        Error
          (Err.fenced
             "%s refused: this node is a read-only standby (PROMOTE it, or \
              address the primary)%s"
             what
             (match primary with
             | Some a ->
                 Printf.sprintf " — the primary is redirect=%s"
                   (Client.addr_to_string a)
             | None -> ""))
      end
      else if failover_active t.cfg && not (holds_lease t) then
        Error
          (Err.resource
             "%s suspended: no standby acknowledged this primary within the \
              %.0f ms lease window, so it degrades to read-only rather than \
              risk a split brain; retry once a standby reconnects"
             what t.cfg.lease_ms)
      else Ok ()

(* execute one parsed request under one admission ticket, rendering into
   [buf]; the first failing statement stops the request *)
let run_statements t sess ~governor buf stmts =
  let ( let* ) = Err.( let* ) in
  let rec go = function
    | [] -> Ok ()
    | (s :: _ as l) when is_loggable_write s ->
        let* () = refuse_writes t "write" in
        let run, rest = span is_loggable_write l in
        let* () = run_write_batch t sess buf run in
        go rest
    | Ast.S_checkpoint :: rest ->
        let* () = refuse_writes t "CHECKPOINT" in
        let iv = Ivar.create () in
        let* () = enqueue t (W_checkpoint iv) in
        let* outcome = Ivar.read iv in
        describe_outcome buf outcome;
        go rest
    | Ast.S_backup dir :: rest ->
        let* () = refuse_writes t "BACKUP" in
        let iv = Ivar.create () in
        let* () = enqueue t (W_backup (dir, iv)) in
        let* outcome = Ivar.read iv in
        describe_outcome buf outcome;
        go rest
    | Ast.S_promote :: rest ->
        let* lsn = promote t in
        describe_outcome buf (Binder.Promoted lsn);
        go rest
    | Ast.S_status :: rest ->
        Buffer.add_string buf (status_report t);
        go rest
    | stmt :: rest ->
        let* () = run_read t sess ~governor buf stmt in
        go rest
  in
  go stmts

let parse_request payload =
  match Parser.parse_script payload with
  | exception Parser.Parse_error m -> Error (Err.parse "%s" m)
  | stmts -> Ok stmts

(* handle one STMT frame; Error means the socket write failed and the
   session should end — statement failures are answered in-band *)
let handle_request t sess conn payload =
  match parse_request payload with
  | Error e ->
      Telemetry.errored t.tel sess;
      Wire.err conn ~kind:(Err.kind_to_string (Err.kind e)) (Err.to_string e)
  | Ok stmts -> (
      match Admission.admit t.adm with
      | Error (r : Admission.refusal) ->
          (* shed load: typed refusal, nothing was executed, safe retry *)
          Telemetry.budget_refused t.tel sess;
          Wire.busy conn ~retry_after_ms:r.retry_after_ms
            (Err.to_string r.reason)
      | Ok ticket ->
          let buf = Buffer.create 256 in
          let outcome =
            Fun.protect
              ~finally:(fun () -> Admission.release t.adm ticket)
              (fun () ->
                run_statements t sess
                  ~governor:(Admission.governor ticket)
                  buf stmts)
          in
          (match outcome with
          | Ok () -> Wire.ok conn (Buffer.contents buf)
          | Error e ->
              if Err.kind e = Err.Resource then Telemetry.degraded t.tel sess
              else Telemetry.errored t.tel sess;
              Buffer.add_string buf ("error: " ^ Err.to_string e ^ "\n");
              Wire.err conn
                ~kind:(Err.kind_to_string (Err.kind e))
                (Buffer.contents buf)))

(* ---------- session + accept threads ---------- *)

let unregister_session t fd =
  Mutex.lock t.sess_mu;
  t.session_fds <- List.filter (fun f -> f != fd) t.session_fds;
  Mutex.unlock t.sess_mu

(* One REPL handshake turns this session into an outbound replication
   stream; the session ends when the stream does.  Split-brain stance:
   a standby announcing an LSN ahead of ours is the fingerprint of a
   diverged history (it was promoted, took writes, and is now talking
   to the old primary) — serving it would silently fork the data, so
   the handshake is refused with a typed error and this node keeps
   running untouched. *)
let handle_repl t conn args =
  let refuse ?(kind = "Io") msg =
    ignore (Wire.err conn ~kind msg : (unit, Err.t) result)
  in
  match (t.backend, t.hub) with
  | Mem _, _ | _, None ->
      refuse "replication requires a durable server (serve --db DIR)"
  | Durable d, Some hub -> (
      match fenced_err t ~what:"replication" with
      | Some e ->
          (* a fenced primary must not ship its superseded history (or
             grants for a lease it no longer holds); the redirect sends
             the standby to the real primary *)
          refuse ~kind:"Fenced" (Err.to_string e)
      | None ->
      if standby_now t then
        refuse
          "this node is a standby; cascading replication is not supported — \
           connect to the primary"
      else
        match args with
        | lsn_s :: rest -> (
            let peer_epoch =
              match rest with
              | e :: _ -> Option.value (int_of_string_opt e) ~default:0
              | [] -> 0
            in
            match int_of_string_opt lsn_s with
            | Some peer_lsn when peer_lsn >= 0 -> (
                Mutex.lock t.commit_mu;
                let my_lsn = Durable.lsn d in
                Mutex.unlock t.commit_mu;
                let my_epoch = Durable.epoch d in
                if peer_epoch > my_epoch then begin
                  (* the peer lives in a later epoch: an election went
                     past us while we were not looking.  Fence first,
                     then refuse — this handshake is the zombie's wake-up
                     call. *)
                  fence t ~new_epoch:peer_epoch ~leader:None;
                  refuse ~kind:"Fenced"
                    (Printf.sprintf
                       "split-brain refused: peer speaks from epoch %d but \
                        this node is still at epoch %d — this node has been \
                        superseded and is now fenced"
                       peer_epoch my_epoch)
                end
                else if peer_lsn > my_lsn then
                  refuse
                    (Printf.sprintf
                       "split-brain refused: peer is at lsn %d, ahead of this \
                        primary at lsn %d — it has a diverged history and \
                        must be re-seeded, not replicated to"
                       peer_lsn my_lsn)
                else
                  match
                    Wire.write_frame conn ~verb:"OK"
                      ~args:[ string_of_int my_epoch ]
                      (Printf.sprintf "streaming from %d" my_lsn)
                  with
                  | Error _ -> ()
                  | Ok () ->
                      let stats =
                        {
                          Repl.shipped_lsn = peer_lsn;
                          last_send_ms = Clock.now_ms ();
                          (* the handshake LSN is the standby's own
                             statement of what it has — seed the
                             semi-sync watermark there; the lease
                             anchor stays 0 until a grant is echoed *)
                          acked_lsn = peer_lsn;
                          lease_anchor_ms = 0.;
                        }
                      in
                      Mutex.lock t.role_mu;
                      t.senders <- stats :: t.senders;
                      Mutex.unlock t.role_mu;
                      Fun.protect
                        ~finally:(fun () ->
                          Mutex.lock t.role_mu;
                          t.senders <-
                            List.filter (fun s -> s != stats) t.senders;
                          Mutex.unlock t.role_mu)
                        (fun () ->
                          match
                            Repl.sender_loop ~hub
                              ~wal_path:(Wal.path ~dir:(Durable.dir d))
                              ~conn ~heartbeat_ms:(repl_heartbeat_ms /. 4.)
                              ~stats ~cursor:peer_lsn
                              ~epoch_now:(fun () -> Durable.epoch d)
                              ~lease_ms:
                                (if failover_active t.cfg then t.cfg.lease_ms
                                 else 0.)
                          with
                          | Ok () -> ()
                          | Error e ->
                              (* a typed end of stream (unservable gap,
                                 injected repl.send fault): tell the peer
                                 if the pipe still works, then drop *)
                              ignore
                                (Wire.err conn
                                   ~kind:(Err.kind_to_string (Err.kind e))
                                   (Err.to_string e)
                                  : (unit, Err.t) result)))
            | _ -> refuse "REPL handshake needs a non-negative lsn argument")
        | [] -> refuse "REPL handshake needs a non-negative lsn argument")

(* Answer an election probe with the bare facts — our address, applied
   LSN, epoch, role — plus one BALLOT: whether this node grants the
   prober its vote for the probe's target epoch.  The ledger grants at
   most one candidate per target epoch per window, which is what makes
   "two candidates both conclude Won off racing LSN snapshots"
   impossible: a quorum of grants can only assemble behind one of them
   (any two quorums share a voter, and that voter granted once).  The
   facts are answered either way — candidates rank every response, but
   count only grants toward quorum.  Ballots expire after
   [vote_window_ms] so a winner that died between collecting grants
   and promoting cannot wedge the cluster.  See DESIGN.md §15. *)
let handle_elec t conn args =
  let req_epoch, req_lsn, req_addr, req_candidate =
    match args with
    | e :: l :: a :: rest ->
        ( Option.value (int_of_string_opt e) ~default:0,
          Option.value (int_of_string_opt l) ~default:(-1),
          a,
          (* pre-flag peers always probed as candidates *)
          match rest with "f" :: _ -> false | _ -> true )
    | _ -> (0, -1, "", false)
  in
  let my_epoch = epoch_of t in
  let my_lsn = current_lsn t in
  let now = Clock.now_ms () in
  Mutex.lock t.role_mu;
  let role =
    if Option.is_some t.fenced then "fenced"
    else if t.is_standby then "standby"
    else "primary"
  in
  (* Ranked voting: the ballot goes only to a candidate this node could
     not beat itself.  The prober's history lives one epoch below its
     target; compare by (epoch, lsn, address) — the same total order
     run_election uses to rank candidates — so grants always point at
     the deterministic winner.  A stale-history candidate collects
     facts, never ballots; and when this node is not an eligible rival
     (it is the primary, or fenced) the address tie-break is waived. *)
  let hist_epoch = req_epoch - 1 in
  let outranks_me =
    hist_epoch > my_epoch
    || (hist_epoch = my_epoch
       && (req_lsn > my_lsn
          || (req_lsn = my_lsn
             && (req_addr < t.addr_str || role <> "standby"))))
  in
  let granted =
    req_addr <> "" && req_candidate
    (* an election into an epoch the cluster already reached must never
       count *)
    && req_epoch > my_epoch
    && outranks_me
    && (req_epoch > t.voted_epoch
       || (req_epoch = t.voted_epoch && req_addr = t.voted_for)
       || now -. t.voted_at_ms > vote_window_ms t.cfg)
  in
  if granted then begin
    t.voted_epoch <- req_epoch;
    t.voted_for <- req_addr;
    t.voted_at_ms <- now
  end;
  Mutex.unlock t.role_mu;
  Wire.vote conn ~addr:t.addr_str ~lsn:my_lsn ~epoch:my_epoch ~role ~granted

let session_loop t fd =
  let conn = Wire.of_fd fd in
  let sess = Telemetry.connect t.tel in
  let finish () =
    Telemetry.disconnect t.tel sess;
    unregister_session t fd;
    Wire.close conn
  in
  match Admission.open_session t.adm with
  | Error (r : Admission.refusal) ->
      Telemetry.budget_refused t.tel sess;
      ignore
        (Wire.busy conn ~retry_after_ms:r.retry_after_ms
           (Err.to_string r.reason));
      finish ()
  | Ok () ->
      Fun.protect
        ~finally:(fun () ->
          Admission.close_session t.adm;
          finish ())
        (fun () ->
          let rec loop () =
            if t.shutdown then ()
            else
              match
                Wire.read_frame ~fault:"server.read" conn
                  ~timeout_ms:t.cfg.read_timeout_ms
              with
              | Ok None -> ()
              | Ok (Some { Wire.verb = "PING"; _ }) -> (
                  match Wire.ok conn "pong" with
                  | Ok () -> loop ()
                  | Error _ -> ())
              | Ok (Some { Wire.verb = "STMT"; payload; _ }) -> (
                  match handle_request t sess conn payload with
                  | Ok () -> loop ()
                  | Error _ -> () (* peer gone *))
              | Ok (Some { Wire.verb = "ELEC"; args; _ }) -> (
                  (* an election probe (or a primary's prober): answer
                     with our position and keep the session alive *)
                  match handle_elec t conn args with
                  | Ok () -> loop ()
                  | Error _ -> ())
              | Ok (Some { Wire.verb = "REPL"; args; _ }) ->
                  (* the session becomes an outbound replication stream
                     and ends with it — no loop back to the verb reader *)
                  handle_repl t conn args
              | Ok (Some { Wire.verb; _ }) -> (
                  match
                    Wire.err conn ~kind:"Io"
                      (Printf.sprintf "unknown verb %S" verb)
                  with
                  | Ok () -> loop ()
                  | Error _ -> ())
              | Error e ->
                  (* read timeout, torn frame, or injected server.read
                     fault: answer if the pipe still works, then drop
                     the session — never hang it *)
                  Telemetry.errored t.tel sess;
                  ignore
                    (Wire.err conn
                       ~kind:(Err.kind_to_string (Err.kind e))
                       (Err.to_string e))
          in
          loop ())

(* The shutdown flag is checked under [sess_mu], the same mutex
   initiate_shutdown's one-time nudge pass takes: either this fd makes
   the list before the pass (and gets nudged), or we see the flag and
   refuse — a late-accepted session can never sit in read_frame waiting
   out the full read timeout before noticing shutdown. *)
let spawn_session t fd =
  Mutex.lock t.sess_mu;
  if t.shutdown then begin
    Mutex.unlock t.sess_mu;
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  end
  else begin
    t.session_fds <- fd :: t.session_fds;
    let th = Thread.create (fun () -> session_loop t fd) () in
    t.session_threads <- th :: t.session_threads;
    Mutex.unlock t.sess_mu
  end

let accept_loop t =
  let rec loop () =
    if t.shutdown then begin
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
      match t.cfg.listen with
      | L_unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | L_tcp _ -> ()
    end
    else
      (* short select so shutdown is noticed without a connection *)
      match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | exception Unix.Unix_error _ -> loop ()
      | [], _, _ -> loop ()
      | _ -> (
          match Fault.check "server.accept" with
          | Error _ ->
              (* injected accept failure: shed this connection (the
                 client sees EOF and retries), keep serving *)
              (try
                 let fd, _ = Unix.accept t.listen_fd in
                 Unix.close fd
               with Unix.Unix_error _ -> ());
              loop ()
          | Ok () -> (
              match Unix.accept t.listen_fd with
              | exception Unix.Unix_error _ -> loop ()
              | fd, _ ->
                  spawn_session t fd;
                  loop ()))
  in
  loop ()

(* ---------- the failover monitor ---------- *)

(* Spawn (or re-point) the inbound replication stream.  Guarded against
   a racing shutdown: an applier created after [initiate_shutdown]'s
   stop pass already ran would never be stopped, so re-check under
   [role_mu] — either the stop pass sees the applier we set, or we see
   the flag and stop it ourselves. *)
let spawn_applier t d ~addr =
  let seed =
    match t.cfg.role with
    | Standby { repl_seed; _ } -> repl_seed
    | Primary -> 1
  in
  let ingest r =
    Mutex.lock t.commit_mu;
    let res = Durable.ingest d r in
    Mutex.unlock t.commit_mu;
    res
  in
  let a =
    Repl.start_applier ~addr ~read_timeout_ms:(repl_heartbeat_ms *. 20.)
      ~backoff_ms:25. ~seed ~lsn:(Durable.lsn d) ~ingest
      ~epoch_now:(fun () -> Durable.epoch d)
      ~observe:(fun ~epoch ~lease_ms:_ ->
        (* every grant ratchets this node's durable epoch floor, so a
           zombie stream is refused even before it ships a record *)
        if epoch > Durable.epoch d then
          ignore (Durable.set_epoch d epoch : (unit, Err.t) result))
      ~on_error:(fun _ -> ())
  in
  Mutex.lock t.role_mu;
  let racing_shutdown = t.shutdown in
  if not racing_shutdown then begin
    t.applier <- Some a;
    t.primary_addr <- Some addr
  end;
  Mutex.unlock t.role_mu;
  if racing_shutdown then Repl.stop_applier a

(* Re-point the inbound stream at a newly discovered primary.  A no-op
   when we already follow that address. *)
let retarget t d ~addr =
  Mutex.lock t.role_mu;
  let same = t.primary_addr = Some addr in
  let applier = if same then None else t.applier in
  if not same then t.applier <- None;
  Mutex.unlock t.role_mu;
  if not same then begin
    (match applier with Some a -> Repl.stop_applier a | None -> ());
    spawn_applier t d ~addr
  end

let bump_grace t ms =
  Mutex.lock t.role_mu;
  t.grace_until_ms <- Float.max t.grace_until_ms (Clock.now_ms () +. ms);
  Mutex.unlock t.role_mu

(* One election round, run on the failover thread after the lease
   observation window lapsed past the skew margin.  Deterministic:
   probe every peer, rank candidates by (epoch, applied LSN, address) —
   the newest epoch's history outranks any LSN from an older one (an
   old primary restarted on its stale WAL must never resurrect fenced
   history), then highest LSN, ties to the smallest address — and
   promote only if this node is the unique maximum AND holds a quorum
   of the full cluster's GRANTED ballots (self included).  Each peer
   grants one ballot per target epoch per window, so two candidates
   racing on shifting LSN snapshots can never both reach quorum.  A
   live primary at our epoch or above aborts the round (the lapse was
   a stall or a healed partition, not a death). *)
let run_election t d ~self =
  let now = Clock.now_ms () in
  let my_epoch = Durable.epoch d in
  let my_lsn = Durable.lsn d in
  let target = my_epoch + 1 in
  Mutex.lock t.role_mu;
  t.elections <- t.elections + 1;
  (* claim our own ballot first: granting it to a peer and then running
     as a candidate in the same window would be voting for both sides *)
  let can_self =
    target > t.voted_epoch
    || (target = t.voted_epoch && t.voted_for = self)
    || now -. t.voted_at_ms > vote_window_ms t.cfg
  in
  if can_self then begin
    t.voted_epoch <- target;
    t.voted_for <- self;
    t.voted_at_ms <- now
  end;
  Mutex.unlock t.role_mu;
  (* a failed round must release our self-ballot: two standbys that
     lapse together would otherwise each hold their own ballot fresh
     forever and withhold from the other — a split-vote livelock.  The
     release is safe because a failed round's self-ballot was never
     part of any assembled quorum (only our own, which did not form). *)
  let release_self result =
    (match result with
    | `Won _ -> ()
    | `Lost | `No_quorum | `Primary_alive _ ->
        Mutex.lock t.role_mu;
        if t.voted_epoch = target && t.voted_for = self then
          t.voted_at_ms <- 0.;
        Mutex.unlock t.role_mu);
    result
  in
  (* Even without our own ballot we still sweep the peers: an
     abstaining standby must discover the new primary (to retarget) or
     the better-placed rival; but it announces itself as a fact-finder,
     not a candidate, so it cannot pin anyone's ledger. *)
  begin
    let attempt () =
    let votes =
      List.filter_map
        (fun addr ->
          match
            Repl.probe ~addr
              ~timeout_ms:(Float.max 250. (t.cfg.lease_ms /. 2.))
              ~epoch:target ~lsn:my_lsn ~self ~candidate:can_self
          with
          | Ok v -> Some v
          | Error _ -> None)
        t.cfg.peers
    in
    let live_primary =
      List.find_opt
        (fun (v : Repl.vote) -> v.v_role = "primary" && v.v_epoch >= my_epoch)
        votes
    in
    match live_primary with
    | Some v ->
        `Primary_alive (if v.v_epoch > my_epoch then Some v.v_addr else None)
    | None ->
        let cluster = List.length t.cfg.peers + 1 in
        let quorum = (cluster / 2) + 1 in
        if 1 + List.length votes < quorum then `No_quorum
        else
          let beats_me (v : Repl.vote) =
            v.v_role = "standby"
            && (v.v_epoch > my_epoch
               || (v.v_epoch = my_epoch
                  && (v.v_lsn > my_lsn
                     || (v.v_lsn = my_lsn && v.v_addr < self))))
          in
          let grants =
            (if can_self then 1 else 0)
            + List.length
                (List.filter (fun (v : Repl.vote) -> v.v_granted) votes)
          in
          if List.exists beats_me votes then `Lost
          else if (not can_self) || grants < quorum then `No_quorum
          else
            (* promote past every epoch observed in the round, not just
               our own: bump_epoch advances from the floor we set, so
               the new epoch is strictly greater than anything any
               responder has used *)
            `Won
              (List.fold_left
                 (fun acc (v : Repl.vote) -> max acc v.v_epoch)
                 my_epoch votes)
    in
    (* Two standbys that lapse together each self-vote before the
       other's probe lands, so the first sweep can find every ballot
       withheld.  The rival's round concludes [`Lost] against our
       ranked position within milliseconds and releases its ballot, so
       a short in-round re-probe collects it — one election, not a
       drawn-out series of [`No_quorum] rounds. *)
    let rec go n =
      match attempt () with
      | `No_quorum when can_self && n < 2 ->
          Thread.delay (Float.max 20. (t.cfg.lease_ms /. 10.) /. 1000.);
          go (n + 1)
      | result -> result
    in
    release_self (go 0)
  end

(* The standby side of one monitor tick: elect when the lease
   observation window (extended by every grant the stream carries) has
   lapsed past the skew margin. *)
let standby_tick t d ~self =
  let lease = t.cfg.lease_ms in
  let now = Clock.now_ms () in
  Mutex.lock t.role_mu;
  let applier = t.applier in
  let grace = t.grace_until_ms in
  Mutex.unlock t.role_mu;
  let observed =
    match applier with
    | Some a ->
        let st = Repl.applier_stats a in
        Mutex.lock st.Repl.smu;
        let v = st.Repl.lease_deadline_ms in
        Mutex.unlock st.Repl.smu;
        v
    | None -> 0.
  in
  let deadline = Float.max observed grace in
  if now > deadline +. skew_margin_ms t.cfg then begin
    match Fault.check "server.election" with
    | Error _ ->
        (* the injected fault forfeits this round; re-arm and retry at
           the next lapse *)
        bump_grace t lease
    | Ok () -> (
        match run_election t d ~self with
        | `Won max_seen -> (
            (* ratchet the epoch floor over everything the round saw
               BEFORE bumping: a re-minted epoch would let fenced
               history back in *)
            if max_seen > Durable.epoch d then
              (match Durable.set_epoch d max_seen with
              | Ok () -> ()
              | Error _ -> ());
            match promote t with Ok _ -> () | Error _ -> bump_grace t lease)
        | `Primary_alive (Some leader) ->
            (* a successor exists: follow it *)
            (match Client.parse_addr leader with
            | Ok addr -> retarget t d ~addr
            | Error _ -> ());
            bump_grace t lease
        | `Primary_alive None | `Lost | `No_quorum ->
            (* the healed primary's grants, or the winner's promotion,
               will show up on the stream; don't spin the cluster with
               back-to-back rounds in the meantime *)
            bump_grace t lease)
  end

(* The primary side of one monitor tick: probe one peer (round-robin)
   for evidence of a successor epoch.  A fenced or superseded primary
   learns its fate here even if no standby ever reconnects to tell it. *)
let primary_tick t d ~self ~round =
  match t.cfg.peers with
  | [] -> ()
  | peers -> (
      let addr = List.nth peers (round mod List.length peers) in
      let my_epoch = Durable.epoch d in
      let my_lsn = Durable.lsn d in
      match
        Repl.probe ~addr
          ~timeout_ms:(Float.max 250. (t.cfg.lease_ms /. 2.))
          ~epoch:my_epoch ~lsn:my_lsn ~self ~candidate:false
      with
      | Error _ -> ()
      | Ok v ->
          if v.Repl.v_epoch > my_epoch then
            fence t ~new_epoch:v.v_epoch
              ~leader:(if v.v_role = "primary" then Some v.v_addr else None)
          else if v.v_role = "primary" && v.v_epoch = my_epoch then
            (* two primaries inside one epoch — the state the lease is
               built to prevent; if it happens anyway (operator promoted
               by hand, clocks jumped), the deterministic (lsn, addr)
               tie-break fences the loser on both sides *)
            if v.v_lsn > my_lsn || (v.v_lsn = my_lsn && v.v_addr < self) then
              fence t ~new_epoch:my_epoch ~leader:(Some v.v_addr))

(* The monitor thread: poll at a tenth of the lease.  Standbys watch
   their lease-observation window; primaries probe for a successor
   roughly once per lease interval. *)
let failover_loop t =
  match t.backend with
  | Mem _ -> ()
  | Durable d ->
      let self = t.addr_str in
      let poll = Float.max 20. (t.cfg.lease_ms /. 10.) in
      let rec loop round =
        if t.shutdown then ()
        else begin
          (if standby_now t then standby_tick t d ~self
           else if (not (is_fenced t)) && round mod 10 = 0 then
             primary_tick t d ~self ~round:(round / 10));
          Clock.sleep_ms poll;
          loop (round + 1)
        end
      in
      loop 0

(* ---------- lifecycle ---------- *)

let bind_listener listen =
  Err.protect ~kind:Err.Io (fun () ->
      match listen with
      | L_unix path ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          (try Unix.unlink path with Unix.Unix_error _ -> ());
          Unix.bind fd (Unix.ADDR_UNIX path);
          Unix.listen fd 64;
          (fd, "unix:" ^ path)
      | L_tcp (host, port) ->
          let addr =
            match Wire.resolve_host host with
            | Ok a -> a
            | Error e -> Err.raise_ e
          in
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
          Unix.bind fd (Unix.ADDR_INET (addr, port));
          Unix.listen fd 64;
          let bound =
            match Unix.getsockname fd with
            | Unix.ADDR_INET (a, p) ->
                Printf.sprintf "tcp:%s:%d" (Unix.string_of_inet_addr a) p
            | _ -> Printf.sprintf "tcp:%s:%d" host port
          in
          (fd, bound))

let start cfg =
  let ( let* ) = Err.( let* ) in
  let* () =
    match (cfg.role, cfg.db_dir) with
    | Standby _, None ->
        Error
          (Err.io
             "a standby must be durable (standby --db DIR): it has no other \
              place to log the shipped records")
    | _ -> Ok ()
  in
  let* backend, recovery =
    match cfg.db_dir with
    | None ->
        Ok (Mem { db = Database.create ?storage:cfg.storage (); mem_lsn = 0 },
            None)
    | Some dir ->
        let* d, r =
          Durable.open_ ?checkpoint_every:cfg.checkpoint_every
            ?storage:cfg.storage ~dir ()
        in
        Ok (Durable d, Some r)
  in
  match bind_listener cfg.listen with
  | Error e ->
      (match backend with Durable d -> Durable.close d | Mem _ -> ());
      Error e
  | Ok (listen_fd, addr_str) ->
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
       with Invalid_argument _ -> ());
      (* Every durable node gets a hub and a commit tap, whatever its
         role: a standby publishes what it ingests, so at PROMOTE the
         outbound machinery is already warm, and a primary's hub starts
         covering records from its recovered LSN. *)
      let hub =
        match backend with
        | Durable d ->
            let hub =
              Repl.create_hub ~retain:cfg.repl_retain ~lsn:(Durable.lsn d)
            in
            Durable.set_commit_tap d (Some (Repl.publish hub));
            Some hub
        | Mem _ -> None
      in
      let t =
        {
          cfg;
          backend;
          hub;
          role_mu = Mutex.create ();
          is_standby = (match cfg.role with Standby _ -> true | Primary -> false);
          applier = None;
          senders = [];
          fenced = None;
          primary_addr =
            (match cfg.role with
            | Standby { primary; _ } -> Some primary
            | Primary -> None);
          elections = 0;
          (* boot grace: give the cluster 3 leases to find each other
             before anyone suspends writes or calls an election *)
          grace_until_ms = Clock.now_ms () +. (3. *. cfg.lease_ms);
          voted_epoch = 0;
          voted_for = "";
          voted_at_ms = 0.;
          adm = Admission.create cfg.admission;
          tel = Telemetry.create ();
          snaps = Snapshot.create ();
          commit_mu = Mutex.create ();
          q_mu = Mutex.create ();
          q_cv = Condition.create ();
          queue = Queue.create ();
          shutdown = false;
          fatal = None;
          listen_fd;
          addr_str;
          sess_mu = Mutex.create ();
          session_fds = [];
          session_threads = [];
          core_threads = [];
          fin_mu = Mutex.create ();
          finalized = false;
        }
      in
      (match (cfg.role, backend) with
      | Standby { primary; _ }, Durable d -> spawn_applier t d ~addr:primary
      | _ -> ());
      t.core_threads <-
        [ Thread.create commit_loop t; Thread.create accept_loop t ]
        @ (match backend with
          | Durable _ when failover_active cfg ->
              [ Thread.create failover_loop t ]
          | _ -> []);
      Ok (t, recovery)

let wait t =
  List.iter Thread.join t.core_threads;
  (* accept thread is gone: the session list can only shrink now *)
  Mutex.lock t.sess_mu;
  let sessions = t.session_threads in
  Mutex.unlock t.sess_mu;
  List.iter Thread.join sessions;
  Mutex.lock t.fin_mu;
  let first = not t.finalized in
  t.finalized <- true;
  Mutex.unlock t.fin_mu;
  if first then
    (match t.backend with Durable d -> Durable.close d | Mem _ -> ());
  match t.fatal with None -> Ok () | Some e -> Error e

let stop t =
  initiate_shutdown t;
  ignore (wait t)
