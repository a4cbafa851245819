(* Every metric the benchmark reports, defined once.  The definitions
   are written into each result file; BENCHMARK.json lists the
   end-to-end and per-layer names with their bounds. *)

type better = Lower | Higher

type def = { name : string; unit_ : string; better : better; what : string }

let d name unit_ better what = { name; unit_; better; what }

(* the end-to-end metrics an untraced run reports (BENCHMARK.json) *)
let end_to_end =
  [
    d "setup_s" "s" Lower
      "median of 3 server boots per run (the one that serves the load and 2 \
       after it stops): spawning `eagerdb serve` on a fresh copy of the \
       snapshot until its first STATUS is answered";
    d "op_p50_ms" "ms" Lower
      "median latency of the workload's measured operation over the window: \
       a read (send to reply) on agg_ram, agg_paged and mixed_rw; a \
       single-row INSERT (send to acknowledged commit) on ingest";
    d "op_p85_ms" "ms" Lower
      "85th percentile of the same latencies: the highest percentile with at \
       least 10 samples beyond it on every workload at the seed rates (about \
       70 reads per window on agg_paged; measured_ops in the result file)";
    d "ops_per_s" "1/s" Higher
      "measured operations answered correctly per second of the window";
    d "server_peak_rss_mb" "MiB" Lower
      "the server's VmHWM from /proc/<pid>/status at the end of the window";
  ]

(* reported by untraced runs in the result file and compared, but not
   bounded: each exists only on the workloads that have the operation *)
let detail =
  [
    d "read_p50_ms" "ms" Lower "median read latency (send to reply)";
    d "read_p85_ms" "ms" Lower "85th percentile read latency";
    d "reads_per_s" "1/s" Higher "reads answered correctly per second";
    d "write_p50_ms" "ms" Lower
      "median INSERT latency; open-loop writes are timed from their due time";
    d "write_p90_ms" "ms" Lower "90th percentile INSERT latency";
    d "commits_per_s" "1/s" Higher "INSERTs acknowledged per second";
    d "failed_frac" "frac" Lower
      "(refused + failed + transport errors + wrong results) / attempted, \
       over the window and every correctness check; any increase is a \
       regression";
  ]

(* the per-layer split a traced run reports (BENCHMARK.json) *)
let per_layer =
  [
    d "opt.decide_ms_p50" "ms" Lower
      "median time in Canonical.of_input + Planner.decide per read";
    d "opt.decide_ms_p90" "ms" Lower "90th percentile of the same";
    d "opt.regret" "x" Lower
      "max over templates of the chosen plan's time over the fastest \
       candidate's (median of 5 runs of each candidate within 2x of the \
       chosen plan; slower candidates run once and cannot be fastest)";
    d "opt.agree_frac" "frac" Higher
      "share of templates whose chosen plan measured fastest";
    d "exec.run_ms_p50" "ms" Lower "median Exec time per read";
    d "exec.run_ms_p90" "ms" Lower "90th percentile Exec time per read";
    d "exec.rows_produced" "count" Lower
      "median Optree.total_produced per read: rows out of every operator";
    d "exec.peak_live_rows" "count" Lower
      "largest Exec.run_profiled peak_live_rows over the run's reads";
    d "storage.pool_hit_rate" "frac" Higher
      "buffer-pool hits / (hits + misses) over the reads (0 on the RAM engine)";
    d "storage.page_reads" "count" Lower
      "buffer-pool physical page reads per read";
    d "storage.page_writes" "count" Lower
      "buffer-pool physical page writes per read";
    d "storage.evictions" "count" Lower "buffer-pool evictions per read";
    d "storage.peak_pinned" "count" Lower
      "buffer-pool peak pinned + reserved pages over the run";
    d "storage.snapshot_ms" "ms" Lower
      "median Database.snapshot time, taken when the LSN has changed";
    d "storage.snapshots" "count" Lower "Database.snapshot calls in the run";
    d "storage.reader_view_ms" "ms" Lower
      "median Database.reader_view time per read";
    d "durable.commit_ms" "ms" Lower
      "median Durable.exec_grouped time per group commit";
    d "storage.apply_ms" "ms" Lower
      "median time of the same INSERT through Binder.exec_statement on a RAM \
       twin";
    d "durable.log_ms" "ms" Lower
      "median of (group commit time - its statements' apply time)";
    d "parser.parse_ms" "ms" Lower "median Parser.parse_script time per statement";
    d "binder.bind_ms" "ms" Lower "median Binder.exec_statement time per read";
    d "server.stmts_per_group_commit" "count" Higher
      "grouped_stmts / group_commits from STATUS after the server phase";
    d "server.rows_pulled_per_read" "count" Lower
      "rows_pulled / queries from STATUS after the server phase";
    d "server.refusals" "count" Lower "refusals from STATUS";
    d "server.errors" "count" Lower "errors from STATUS";
    d "server.unattributed_ms" "ms" Lower
      "server-phase op_p50_ms minus the traced median per-operation total: \
       wire, admission, rendering and runtime-lock queueing";
    d "bench.gen_late_ms_p95" "ms" Lower
      "95th percentile of how late the load generator sent: after the due \
       time (open loop) or after the previous reply (closed loop)";
  ]

let all = end_to_end @ detail @ per_layer
let find name = List.find_opt (fun m -> m.name = name) all

(* linear interpolation between closest ranks; [nan] when empty *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | sorted ->
      let a = Array.of_list sorted in
      let r = p /. 100. *. float_of_int (Array.length a - 1) in
      let lo = truncate r in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 50. xs
