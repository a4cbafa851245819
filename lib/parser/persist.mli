(** Crash-safe database persistence.

    A database is saved as a single [snapshot.eagerdb] file inside [dir]:
    a version header, the regenerated DDL (re-parsed on load, so the
    persisted schema is itself a test of the SQL round-trip), one section
    of CSV rows per base table, an [\[end\]] sentinel, and a trailing MD5
    checksum line covering everything above it.

    Durability protocol: the snapshot is written to a temp file, fsynced,
    and atomically renamed over the previous one.  A crash — or an
    injected fault at the [persist.write] / [persist.rename] points — at
    any instant leaves either the complete previous snapshot or the
    complete new one; [load] verifies the checksum and rejects torn or
    corrupted files with a typed error instead of half-loading.

    CSV encoding: fields separated by commas; strings double-quoted with
    [""] escaping; NULL is the bare token [NULL]; booleans are
    [TRUE]/[FALSE].  Rows are loaded back through the raw heap (the dump
    is trusted; constraints were enforced when the data was first
    inserted, and re-checking FKs would impose a table ordering). *)

open Eager_storage
open Eager_robust

val save : ?wal_lsn:int -> Database.t -> dir:string -> (unit, Err.t) result
(** Creates [dir] if needed and atomically replaces its snapshot.  On
    [Error] the previous snapshot, if any, is intact and loadable.
    [wal_lsn] stamps the snapshot with the write-ahead-log position it
    reflects (a [\[wal-lsn N\]] line under the magic header, covered by
    the checksum); recovery replays only log records beyond it.  When
    omitted or [0] the line is not written and the snapshot has the
    same shape as before WAL support existed. *)

val load :
  ?storage:Database.storage_config ->
  dir:string ->
  unit ->
  (Database.t, Err.t) result
(** Returns a fully loaded database or a typed [Error] — never a
    partially populated instance. *)

val load_with_lsn :
  ?storage:Database.storage_config ->
  dir:string ->
  unit ->
  (Database.t * int, Err.t) result
(** {!load}, also returning the snapshot's WAL position ([0] for
    snapshots written without one). *)

val ddl_of_database : Database.t -> string
(** The DDL text embedded in the snapshot, exposed for tests. *)
