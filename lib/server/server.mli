(** The concurrent multi-session front end.

    One thread per session, one commit thread, one accept thread.
    Readers run against immutable LSN-stamped snapshots ({!Snapshot});
    writers are serialized through a commit queue whose drain is a
    group commit — every writer waiting at the moment the commit
    thread wakes shares a single WAL fsync ([Durable.exec_grouped]).
    Admission control ({!Admission}) bounds sessions, concurrent
    statements, queue depth and the aggregate row budget; every
    refusal is a typed [Resource] error carried to the client as a
    [BUSY] frame with a retry-after hint.

    Degradation ladder, mildest first:
    + per-statement budget breach → that request fails typed, session
      lives;
    + admission refusal → [BUSY] + retry-after, nothing executed;
    + session cap → refused at accept;
    + poisoned WAL (a log write failed) → writes refuse typed, reads
      keep serving — unless [die_on_broken_wal] is set, in which case
      the server stops with the error (the crash-test matrix uses this
      to simulate a kill at an injected wal fault).

    The server never calls [exit]; {!wait} returns and the caller
    decides. *)

open Eager_robust
open Eager_storage
open Eager_durable

type listen = L_unix of string | L_tcp of string * int

type role =
  | Primary
  | Standby of { primary : Client.addr; repl_seed : int }
      (** follow [primary]'s WAL stream, serving reads only.  [repl_seed]
          drives the reconnect jitter (the global [Random] is banned). *)

type config = {
  listen : listen;
  admission : Admission.config;
  read_timeout_ms : float;
      (** per-frame read deadline — also the idle-session timeout *)
  db_dir : string option;
      (** WAL-backed ([Durable]) when set; in-memory otherwise *)
  storage : Database.storage_config option;
      (** run the database on the paged engine: heaps on checksummed
          pages behind a shared buffer pool, executor breakers spilling
          to the scratch pager, the planner costing page IO.  [None]
          keeps the RAM engine *)
  checkpoint_every : int option;
  die_on_broken_wal : bool;
  role : role;
  repl_retain : int;
      (** committed records kept in memory for replication catch-up;
          standbys further behind are served from the on-disk WAL, and
          past that told to re-seed from a backup *)
  peers : Client.addr list;
      (** the OTHER nodes of the cluster.  Non-empty (with
          [auto_failover]) arms lease-based failover: the primary
          piggybacks lease grants on its replication stream and
          suspends writes when no standby acknowledges it within
          [lease_ms]; a standby whose lease observation lapses runs a
          deterministic election among the peers (highest applied LSN
          wins, ties to the smallest address; quorum is a majority of
          the full cluster) and self-promotes, bumping the cluster
          epoch that fences the old primary out.  Empty = the
          pre-failover behaviour, exactly. *)
  lease_ms : float;  (** the write lease window (and semi-sync ack bound) *)
  auto_failover : bool;
      (** [false] disarms elections, fencing-by-lease and semi-sync
          acks even when [peers] is set — replication keeps flowing,
          promotion stays manual (PROMOTE / SIGUSR1) *)
}

val default_config : listen -> config

type t

val start : config -> (t * Durable.recovery option, Err.t) result
(** Bind the listener, run recovery (WAL mode), spawn the accept and
    commit threads.  [Error] if the address cannot be bound or
    recovery fails. *)

val wait : t -> (unit, Err.t) result
(** Block until {!stop} or a fatal condition; returns the fatal error
    if there was one. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, wake and drain the commit
    queue, nudge every live session off its socket, join the threads,
    close the durable session.  Writes and checkpoints that arrive
    after shutdown begins are refused with a typed [Io] error rather
    than queued (nobody would ever commit them).  Idempotent. *)

val bound_addr : t -> string
(** Human-readable listening address (for "listening on ..." lines). *)

val promote : t -> (int, Err.t) result
(** Promote a standby to primary: stop and join the inbound replication
    applier, then start accepting writes and serving [REPL] streams at
    the returned LSN.  A typed error on a node that is already primary
    or has no durable backend.  Also reachable in-band as the [PROMOTE]
    statement; this entry point exists for the operator signal path. *)

(** {1 Running one query}

    The read path every front end shares: a server session runs its
    SELECTs and EXPLAINs through {!run_query_buf}, and so does the CLI's
    script runner and REPL. *)

type show = Results | Explain | Explain_analyze

val render_table : Buffer.t -> Heap.t -> unit
(** Append the heap as an aligned text table and a [(N rows)] line. *)

val run_query_buf :
  Database.t ->
  Eager_parser.Binder.bound_query ->
  governor:Governor.t ->
  order:(Eager_schema.Colref.t * bool) list ->
  show:show ->
  Buffer.t ->
  (unit, Err.t) result
(** Plan (through {!Eager_opt.Planner.decide} for the transformable
    class), execute and render one bound query into the buffer.
    [Results] appends the table and, for a planned query, a
    [-- plan: <strategy>] footer; [Explain] appends the planner's
    reasoning ({!Eager_opt.Explain.text}) or the plan tree;
    [Explain_analyze] appends the executed per-operator cardinalities.
    On [Error] the buffer holds whatever was rendered before the
    failure. *)
