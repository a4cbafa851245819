(** MVCC-lite: LSN-stamped immutable snapshots for readers.

    The server keeps one frozen copy of the database per commit point.
    A reader asks for the snapshot at the current LSN; if the cache
    already holds that version it is shared (snapshots are never
    mutated), otherwise one [Database.snapshot] is taken and cached —
    O(directory entries), since versions share every row and every full
    chunk or page — so even that cost is paid once per committed batch,
    not once per query.  Readers receive a private [Database.reader_view]
    over the frozen copy, so concurrent readers share row storage and
    the database's lock-guarded statistics store, but never share index
    caches.

    Isolation rule: a reader observes exactly the state at its
    snapshot's LSN for its whole statement, regardless of writers
    committing meanwhile; uncommitted or torn writes are unobservable
    because snapshots are only ever taken under the commit lock, at a
    batch boundary. *)

open Eager_storage

type t

val create : unit -> t

val get : t -> lsn:int -> db:Database.t -> Database.t
(** The reader view for the snapshot stamped [lsn], copying [db] first
    if the cached version is older.  MUST be called with the server's
    commit lock held (writers quiesced), so the copy observes a
    committed batch boundary. *)

val cached_lsn : t -> int option
val copies : t -> int
(** Snapshots taken so far — the denominator of snapshot reuse. *)
