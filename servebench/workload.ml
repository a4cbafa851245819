(* The four traffic mixes.  Each names the engine the server runs on and
   the sessions that load it. *)

type t = Agg_ram | Agg_paged | Mixed_rw | Ingest

let all = [ Agg_ram; Agg_paged; Mixed_rw; Ingest ]

let name = function
  | Agg_ram -> "agg_ram"
  | Agg_paged -> "agg_paged"
  | Mixed_rw -> "mixed_rw"
  | Ingest -> "ingest"

let of_name s = List.find_opt (fun w -> name w = s) all

let why = function
  | Agg_ram ->
      "the paper's traffic: 2 closed-loop read sessions on the RAM engine; \
       planning and execution do the work"
  | Agg_paged ->
      "the same reads from 1 session on a 64-page (256 KiB) pool far below \
       the data, so buffer-pool IO and the spilling breakers dominate"
  | Mixed_rw ->
      "1 closed-loop reader plus 1 open-loop writer at 8 commits/s: nearly \
       every read pays a snapshot copy and a statistics rebuild"
  | Ingest ->
      "2 closed-loop writer sessions and no reads: WAL group commit and the \
       storage insert path do the work"

(* agg_paged has one reader: two concurrent spilling statements can each
   reserve half the pool, and a scan pin then fails with "buffer pool
   exhausted" -- a server limit, not a load this benchmark should fail on *)
let closed_readers = function Agg_ram -> 2 | Agg_paged | Mixed_rw -> 1 | Ingest -> 0
let closed_writers = function Ingest -> 2 | Agg_ram | Agg_paged | Mixed_rw -> 0

(* open-loop commits per second *)
let open_write_rate = function Mixed_rw -> Some 8. | Agg_ram | Agg_paged | Ingest -> None

(* the operation op_p50_ms/op_p85_ms/ops_per_s measure *)
let measures_writes = function Ingest -> true | Agg_ram | Agg_paged | Mixed_rw -> false

let pool_pages = 64
let page_size = 4096

let paged = function Agg_paged -> true | Agg_ram | Mixed_rw | Ingest -> false
