open Eager_schema
open Eager_robust

(* A heap is a directory of segments ([seg] per entry) mapping row
   positions to fixed blocks of rows.  Two stores sit behind the one
   directory:
   - RAM: each segment owns a [chunk_rows]-slot array (a chunk).  Every
     chunk but the tail is full, so chunk boundaries fall every
     [chunk_rows] rows — the default cursor batch.
   - Paged: each segment is a page owned by a buffer pool.  [seg.bytes]
     tracks the encoded payload size so a row lands on the tail page
     only if the image will fit — [Page.encode] can then never fail on
     the eviction path.
   The cursor API is identical for both, so the executor's scans never
   know which store they read.

   Directory invariants (both stores):
   - only the tail segment is ever written in place; a segment is frozen
     once a successor is pushed, and [copy] freezes the tail too.  A
     frozen segment — its record and its rows — is never written again,
     so a heap and its copies share every segment they have in common;
     MVCC-lite snapshots cost O(segments), not O(rows);
   - a write that must change a frozen segment writes a fresh one
     instead: a RAM append into a frozen tail chunk copies the chunk, a
     paged append starts a new page, and a [truncate] that cuts into a
     frozen segment copies the kept prefix;
   - structural rewrites ([delete_where], [replace_all]) build fresh
     segments and abandon the old ones (copies may still be reading
     them; paged ones to the run-scoped pager). *)

type seg = {
  chunk : Row.t array; (* RAM: [chunk_rows] slots; paged: unused *)
  pid : int; (* paged: the page id; RAM: unused *)
  start : int; (* row position of the segment's first row *)
  mutable nrows : int;
  mutable bytes : int; (* paged: encoded payload bytes, for fits accounting *)
  mutable frozen : bool;
}

type store = Ram | Paged of { pool : Buffer_pool.t; pager : Pager.t }

type t = {
  schema : Schema.t;
  store : store;
  mutable segs : seg array;
  mutable nsegs : int;
  mutable len : int;
  id : int; (* shared by every copy; see [copy] *)
  mutable gen : int;
  mutable compactions : int;
}

let chunk_rows = 1024
let dummy_row : Row.t = [||]

let no_seg =
  { chunk = [||]; pid = -1; start = 0; nrows = 0; bytes = 0; frozen = true }

(* heaps are created by writers and by reader threads (executor temp
   tables), so the id source must be atomic *)
let next_id = Atomic.make 0

let make store schema =
  {
    schema;
    store;
    segs = [||];
    nsegs = 0;
    len = 0;
    id = Atomic.fetch_and_add next_id 1;
    gen = 0;
    compactions = 0;
  }

let create schema = make Ram schema
let create_paged ~pool ~pager schema = make (Paged { pool; pager }) schema
let is_paged t = match t.store with Paged _ -> true | Ram -> false
let schema t = t.schema
let length t = t.len
let id t = t.id
let generation t = t.gen
let compactions t = t.compactions

let page_count t = match t.store with Ram -> 0 | Paged _ -> t.nsegs

(* The rows of a segment.  A paged segment pins its page for the fetch
   only: the array outlives the pin safely, because in-place writes
   replace the frame's array rather than mutate it, and rows are
   immutable. *)
let seg_rows ?gov t s =
  match t.store with
  | Ram -> s.chunk
  | Paged p -> Buffer_pool.with_page ?gov p.pool p.pager s.pid Fun.id

(* directory lookup: the segment holding row [i] (greatest start <= i) *)
let seg_index t i =
  let lo = ref 0 and hi = ref (t.nsegs - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.segs.(mid).start <= i then lo := mid else hi := mid - 1
  done;
  !lo

(* a pushed segment becomes the tail: its predecessor freezes *)
let push_seg t s =
  if t.nsegs > 0 then t.segs.(t.nsegs - 1).frozen <- true;
  if t.nsegs >= Array.length t.segs then begin
    let bigger = Array.make (max 8 (2 * t.nsegs)) no_seg in
    Array.blit t.segs 0 bigger 0 t.nsegs;
    t.segs <- bigger
  end;
  t.segs.(t.nsegs) <- s;
  t.nsegs <- t.nsegs + 1

(* a fresh RAM chunk holding the first [n] rows of [rows] *)
let new_chunk rows n =
  let c = Array.make chunk_rows dummy_row in
  Array.blit rows 0 c 0 n;
  c

(* copy-on-write: a writable copy of RAM segment [s]'s first [n] rows *)
let thaw s n = { s with chunk = new_chunk s.chunk n; nrows = n; frozen = false }

let append t row =
  let tail = if t.nsegs = 0 then no_seg else t.segs.(t.nsegs - 1) in
  (match t.store with
  | Ram when t.nsegs > 0 && tail.nrows < chunk_rows ->
      if tail.frozen then t.segs.(t.nsegs - 1) <- thaw tail tail.nrows;
      let s = t.segs.(t.nsegs - 1) in
      s.chunk.(s.nrows) <- row;
      s.nrows <- s.nrows + 1
  | Ram ->
      push_seg t
        { no_seg with chunk = new_chunk [| row |] 1; start = t.len; nrows = 1;
          frozen = false }
  | Paged p ->
      let rb = Page.row_bytes row in
      let cap = Page.capacity ~page_size:(Pager.page_size p.pager) in
      if rb > cap then
        Err.failf Err.Storage
          "row needs %d bytes, a page holds %d (use a larger --page-size)" rb
          cap;
      if (not tail.frozen) && tail.bytes + rb <= cap then begin
        Buffer_pool.update p.pool p.pager tail.pid (fun rows ->
            Array.append rows [| row |]);
        tail.nrows <- tail.nrows + 1;
        tail.bytes <- tail.bytes + rb
      end
      else
        let pid = Buffer_pool.alloc p.pool p.pager [| row |] in
        push_seg t
          { no_seg with pid; start = t.len; nrows = 1; bytes = rb;
            frozen = false });
  t.len <- t.len + 1

let insert t row =
  if Array.length row <> Schema.arity t.schema then
    invalid_arg
      (Printf.sprintf "Heap.insert: arity %d, expected %d" (Array.length row)
         (Schema.arity t.schema));
  (* fault point fires before any mutation, so an aborted append leaves
     the heap exactly as it was *)
  Fault.trip "heap.append";
  append t row;
  t.gen <- t.gen + 1

let of_rows schema rows =
  let t = create schema in
  List.iter (insert t) rows;
  t

(* An independent heap holding the same rows: the directory is
   duplicated and the tail frozen, so both heaps share every existing
   (now immutable) segment and write fresh ones of their own.
   O(segments); rows are never copied. *)
let copy t =
  if t.nsegs > 0 then t.segs.(t.nsegs - 1).frozen <- true;
  { t with segs = Array.sub t.segs 0 t.nsegs; gen = 0 }

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Heap.get: out of bounds";
  let s = t.segs.(seg_index t i) in
  (seg_rows t s).(i - s.start)

(* segments in order, one page pinned at a time *)
let iteri f t =
  for k = 0 to t.nsegs - 1 do
    let s = t.segs.(k) in
    let rows = seg_rows t s in
    for j = 0 to s.nrows - 1 do
      f (s.start + j) rows.(j)
    done
  done

let iter f t = iteri (fun _ row -> f row) t

let fold f init t =
  let acc = ref init in
  iter (fun row -> acc := f !acc row) t;
  !acc

let to_list t = List.rev (fold (fun acc r -> r :: acc) [] t)

(* A scan cursor: snapshots the heap's length at creation and hands out
   row slices of at most [batch_rows], never spanning a segment, so a
   scan never materializes the relation.  On a paged heap each slice
   pins one page, so at most one page of the table is pinned at any
   instant and the buffer pool's LRU-2 policy sees the scan as a
   once-touched sequential flood.  The [generation] snapshot lets the
   caller detect concurrent mutation (single-statement evaluation never
   mutates base tables, so a stale cursor is a programming error, not a
   runtime condition). *)
type cursor = {
  heap : t;
  snapshot_len : int;
  snapshot_gen : int;
  batch_rows : int;
  gov : Governor.t option;
  mutable pos : int;
  mutable seg_idx : int; (* directory index of the current segment *)
}

let cursor ?(batch_rows = 1024) ?gov t =
  if batch_rows < 1 then invalid_arg "Heap.cursor: batch_rows must be >= 1";
  {
    heap = t;
    snapshot_len = t.len;
    snapshot_gen = t.gen;
    batch_rows;
    gov;
    pos = 0;
    seg_idx = 0;
  }

let cursor_next c =
  if c.pos >= c.snapshot_len then None
  else begin
    let t = c.heap in
    if t.gen <> c.snapshot_gen then
      invalid_arg "Heap.cursor_next: heap mutated under an open cursor";
    while
      c.seg_idx < t.nsegs - 1
      && t.segs.(c.seg_idx).start + t.segs.(c.seg_idx).nrows <= c.pos
    do
      c.seg_idx <- c.seg_idx + 1
    done;
    let s = t.segs.(c.seg_idx) in
    let off = c.pos - s.start in
    let n = min c.batch_rows (min s.nrows (c.snapshot_len - s.start) - off) in
    let slice = Array.sub (seg_rows ?gov:c.gov t s) off n in
    c.pos <- c.pos + n;
    Some slice
  end

let cursor_remaining c = c.snapshot_len - c.pos

let to_seq t =
  let c = cursor t in
  let rec page slice j () =
    if j < Array.length slice then Seq.Cons (slice.(j), page slice (j + 1))
    else
      match cursor_next c with
      | None -> Seq.Nil
      | Some slice -> page slice 0 ()
  in
  page [||] 0

let exists p t =
  let exception Found in
  try
    iter (fun row -> if p row then raise Found) t;
    false
  with Found -> true

(* The first [keep] rows of segment [s], as the new tail: in place on
   the live tail, as a fresh segment when [s] is frozen. *)
let cut t s keep =
  match t.store with
  | Ram when s.frozen -> thaw s keep
  | Ram ->
      Array.fill s.chunk keep (s.nrows - keep) dummy_row;
      s.nrows <- keep;
      s
  | Paged p ->
      let rows = Array.sub (seg_rows t s) 0 keep in
      let bytes = Array.fold_left (fun b r -> b + Page.row_bytes r) 0 rows in
      if s.frozen then
        { s with pid = Buffer_pool.alloc p.pool p.pager rows; nrows = keep;
          bytes; frozen = false }
      else begin
        Buffer_pool.update p.pool p.pager s.pid (fun _ -> rows);
        s.nrows <- keep;
        s.bytes <- bytes;
        s
      end

(* Drop rows [n..length-1]: whole segments past the cut leave the
   directory, and a segment the cut falls inside keeps its prefix.  The
   new tail is written first, so a paged write that raises leaves the
   heap as it was.  Not a compaction: rows [0..n-1] keep their
   positions. *)
let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Heap.truncate: out of bounds";
  if n < t.len then begin
    let k = if n = 0 then 0 else seg_index t (n - 1) + 1 in
    (if k > 0 then
       let s = t.segs.(k - 1) in
       if n - s.start < s.nrows then t.segs.(k - 1) <- cut t s (n - s.start));
    Array.fill t.segs k (t.nsegs - k) no_seg;
    t.nsegs <- k;
    t.len <- n;
    t.gen <- t.gen + 1
  end

(* Structural rewrites build the new contents in an empty heap over the
   same store and then install its segments; the old ones are abandoned
   (copies may still read them), and a rewrite that raises part-way
   leaves [t] as it was. *)
let empty_like t = { t with segs = [||]; nsegs = 0; len = 0 }

let install t fresh =
  t.segs <- fresh.segs;
  t.nsegs <- fresh.nsegs;
  t.len <- fresh.len;
  t.gen <- t.gen + 1;
  t.compactions <- t.compactions + 1

let delete_where pred t =
  let fresh = empty_like t and removed = ref 0 and survivors = ref [] in
  (* RAM survivors go straight into fresh chunks; paged ones wait in a
     list, so no page is written unless a row goes *)
  let keep =
    match t.store with
    | Ram -> append fresh
    | Paged _ -> fun row -> survivors := row :: !survivors
  in
  iter (fun row -> if pred row then incr removed else keep row) t;
  if !removed > 0 then begin
    List.iter (append fresh) (List.rev !survivors);
    install t fresh
  end;
  !removed

(* Replace the contents atomically: the new row list is fully validated
   before any mutation, and the new segments are installed only once
   all of them are written, so neither an arity error nor an injected
   fault (heap.append, a page write) can leave the heap part-old,
   part-new. *)
let replace_all t rows =
  List.iter
    (fun row ->
      if Array.length row <> Schema.arity t.schema then
        invalid_arg
          (Printf.sprintf "Heap.replace_all: arity %d, expected %d"
             (Array.length row) (Schema.arity t.schema)))
    rows;
  Fault.trip "heap.append";
  let fresh = empty_like t in
  List.iter (append fresh) rows;
  install t fresh
