(** A heap table: a growable multiset of rows with a fixed schema.

    Rows are identified by their insertion position, which serves as the
    paper's [RowID] — the column that "uniquely identifies a row" and lets
    the formalism distinguish duplicates (Section 4.3).  The RowID is not
    part of the schema; operators that need it use {!iteri}. *)

open Eager_schema
open Eager_robust

type t

val create : Schema.t -> t
(** RAM-backed heap: rows live in fixed 1024-row chunks behind a chunk
    directory.  Only the tail chunk is ever written; full chunks are
    frozen immutable, which is what keeps {!copy} snapshots cheap and
    safe. *)

val create_paged : pool:Buffer_pool.t -> pager:Pager.t -> Schema.t -> t
(** Paged heap file: rows live on fixed-size pages owned by [pager] and
    cached/pinned through [pool], behind a page directory.  Only the
    tail page is ever rewritten; full pages are frozen immutable. *)

val is_paged : t -> bool

val page_count : t -> int
(** Pages in the directory (0 for a RAM heap). *)

val of_rows : Schema.t -> Row.t list -> t

(** [copy t] is an independent heap with the same contents, in
    O(directory entries) — one per 1024-row RAM chunk or per page; no row
    is copied.  Sharing rule: the directory is duplicated and [t]'s tail
    chunk or page frozen, so both heaps share every existing segment,
    and a frozen segment is never written again.  A later write that
    would change one writes a fresh segment instead: an append into a
    frozen RAM tail copies that chunk (at most 1024 slots), a paged
    append starts a new page, and {!truncate} copies the kept prefix of
    a frozen segment it cuts into.  The copy keeps [t]'s {!id} and
    {!compactions} count (it is the same table at another version); its
    {!generation} restarts at zero. *)
val copy : t -> t

val id : t -> int
(** Identity of the table this heap stores, unique per process: every
    {!create}/{!create_paged} draws a fresh one and {!copy} keeps it.
    A table dropped and recreated under the same name gets a new id. *)

val schema : t -> Schema.t
val length : t -> int
val insert : t -> Row.t -> unit
(** Raises [Invalid_argument] on arity mismatch. *)

val get : t -> int -> Row.t
val iter : (Row.t -> unit) -> t -> unit
val iteri : (int -> Row.t -> unit) -> t -> unit
val fold : ('a -> Row.t -> 'a) -> 'a -> t -> 'a
val to_list : t -> Row.t list
val to_seq : t -> Row.t Seq.t

type cursor
(** A batched scan cursor over a length snapshot of the heap.  The
    executor's pull pipeline reads base tables through cursors instead of
    [to_list], so a scan holds at most one batch of rows alive. *)

val cursor : ?batch_rows:int -> ?gov:Governor.t -> t -> cursor
(** Snapshot the current length and start a cursor that yields slices of
    at most [batch_rows] rows (default 1024).  On a paged heap each
    slice pins exactly one page for the duration of the copy, and [gov]
    is charged a page IO per buffer-pool miss.  Raises
    [Invalid_argument] if [batch_rows < 1]. *)

val cursor_next : cursor -> Row.t array option
(** The next slice, or [None] when the snapshot is exhausted.  Rows are
    shared with the heap (rows are immutable); a slice never spans a RAM
    chunk or a page, so it may be shorter than [batch_rows].  Raises
    [Invalid_argument] if the heap was mutated since the cursor opened. *)

val cursor_remaining : cursor -> int
(** Rows left in the snapshot. *)

val exists : (Row.t -> bool) -> t -> bool
val generation : t -> int
(** Monotone counter bumped on every insert, truncation and rewrite;
    open cursors check it. *)

val truncate : t -> int -> unit
(** [truncate t n] drops rows [n .. length t - 1] — how a failed
    multi-row INSERT rolls back — in O(rows dropped) plus at most one
    chunk or page copied.  Bumps {!generation} (open cursors raise) but
    not {!compactions}: rows [0 .. n-1] keep their positions, so
    incremental consumers only need to forget rows past [n].  Copies
    taken earlier keep their rows.  Raises [Invalid_argument] unless
    [0 <= n <= length t]. *)

val delete_where : (Row.t -> bool) -> t -> int
(** Remove matching rows, rebuilding the survivors into fresh segments
    (copies keep the old ones); returns the count.  Bumps
    {!compactions} (incremental caches must rebuild). *)

val replace_all : t -> Row.t list -> unit
(** Replace the heap's contents wholesale (used by UPDATE).  Bumps
    {!compactions}. *)

val compactions : t -> int
(** Counter bumped by every structural rewrite ([delete_where],
    [replace_all]), but not by {!truncate}.  Append-only consumers (incremental key indexes) must
    fully rebuild when it changes. *)
