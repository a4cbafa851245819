(* The traced run: the same statements replayed in process, through the
   calls the server makes (Server.run_read and process_drain), with a
   span around each call into a layer.  Spans stay in memory and are
   written as JSONL when the run ends. *)

open Eager_robust
open Eager_storage
open Eager_exec
open Eager_core
open Eager_opt
open Eager_parser
open Eager_durable

type span = {
  id : int;
  parent : int;  (** -1 for a statement's root span *)
  stmt : int;
  name : string;
  t0 : float;
  t1 : float;
}

type tracer = {
  mutable spans : span list;
  mutable stack : int list;
  mutable next_id : int;
  mutable stmt : int;
}

let span tr name f =
  let id = tr.next_id in
  tr.next_id <- id + 1;
  let parent = match tr.stack with p :: _ -> p | [] -> -1 in
  tr.stack <- id :: tr.stack;
  let t0 = Clock.now_ms () in
  Fun.protect
    ~finally:(fun () ->
      tr.stack <- List.tl tr.stack;
      tr.spans <-
        { id; parent; stmt = tr.stmt; name; t0; t1 = Clock.now_ms () } :: tr.spans)
    f

(* counters a traced read records beside its spans *)
type read_stats = {
  produced : int;
  peak_live : int;
  hits : int;
  misses : int;
  page_reads : int;
  page_writes : int;
  evictions : int;
}

type engine = {
  durable : Durable.t;
  twin : Database.t;  (** RAM copy the INSERTs are applied to again *)
  mutable frozen : (int * Database.t) option;  (** snapshot and its LSN *)
  mutable reads : read_stats list;
}

let ok_or_fail = function Ok x -> x | Error e -> failwith (Err.to_string e)

(* Server.reader_snapshot: a new frozen copy only when the LSN moved *)
let reader_view tr eng =
  let lsn = Durable.lsn eng.durable in
  let frozen =
    match eng.frozen with
    | Some (l, db) when l = lsn -> db
    | _ ->
        let db =
          span tr "storage.snapshot" (fun () -> Database.snapshot (Durable.db eng.durable))
        in
        eng.frozen <- Some (lsn, db);
        db
  in
  span tr "storage.reader_view" (fun () -> Database.reader_view frozen)

let pool_stats eng = Database.pool_stats (Durable.db eng.durable)

(* Server.run_read + run_query_buf; returns the result rows *)
let read tr eng ~stmt sql =
  tr.stmt <- stmt;
  let before = pool_stats eng in
  let rows, tree, profile =
    span tr "read" (fun () ->
        let parsed = span tr "parser.parse" (fun () -> Parser.parse_script sql) in
        let view = reader_view tr eng in
        let q, order =
          match
            span tr "binder.bind" (fun () -> Binder.exec_statement view (List.hd parsed))
          with
          | Ok (Binder.Query (q, order)) -> (q, order)
          | Ok _ -> failwith ("not a query: " ^ sql)
          | Error m -> failwith m
        in
        let plan =
          match q with
          | Binder.Grouped input ->
              span tr "opt.decide" (fun () ->
                  match Canonical.of_input view input with
                  | Ok cq ->
                      (ok_or_fail (Planner.decide ?io:(Cost.default_io view) view cq))
                        .Planner.chosen
                  | Error m -> failwith m)
          | _ -> Result.get_ok (Binder.to_plan view q)
        in
        let options = { Exec.default_options with spill = Spill.for_db view } in
        let heap, tree, _, profile =
          span tr "exec.run" (fun () ->
              Exec.run_profiled ~options view (Binder.apply_order order plan))
        in
        (Heap.to_list heap, tree, profile))
  in
  let delta f =
    match (before, pool_stats eng) with
    | Some b, Some a -> f a - f b
    | _ -> 0
  in
  eng.reads <-
    {
      produced = Optree.total_produced tree;
      peak_live = profile.Exec.peak_live_rows;
      hits = delta (fun s -> s.Buffer_pool.hits);
      misses = delta (fun s -> s.Buffer_pool.misses);
      page_reads = delta (fun s -> s.Buffer_pool.page_reads);
      page_writes = delta (fun s -> s.Buffer_pool.page_writes);
      evictions = delta (fun s -> s.Buffer_pool.evictions);
    }
    :: eng.reads;
  rows

(* process_drain on a durable backend: one group commit for the batch;
   the RAM twin then applies the same statements, outside the root span,
   to split the commit into apply and log *)
let write_group tr eng ~stmt sqls =
  tr.stmt <- stmt;
  let stmts, results =
    span tr "write" (fun () ->
        let stmts =
          List.concat_map
            (fun sql -> span tr "parser.parse" (fun () -> Parser.parse_script sql))
            sqls
        in
        (stmts, span tr "durable.commit" (fun () -> Durable.exec_grouped eng.durable stmts)))
  in
  List.iter
    (fun s -> ignore (span tr "storage.apply" (fun () -> Binder.exec_statement eng.twin s)))
    stmts;
  List.map Result.is_ok results

(* ---------- the replay ---------- *)

type result = {
  tracer : tracer;
  engine : engine;
  checks : Loadgen.tally;
  regret : float;
  agree_frac : float;
  peak_pinned : int;
}

let cells rows = Datagen.sort_rows (List.map Datagen.cells_of_row rows)

let open_engine ~work ~snapshot ~twin wl =
  let dir = Filename.concat work "trace-db" in
  Sys.mkdir dir 0o755;
  Loadgen.copy_file snapshot (Filename.concat dir "snapshot.eagerdb");
  let storage =
    if Workload.paged wl then begin
      let spill = Filename.concat work "trace-spill" in
      Sys.mkdir spill 0o755;
      Some
        {
          Database.pool_pages = Some Workload.pool_pages;
          page_size = Workload.page_size;
          spill_dir = Some spill;
        }
    end
    else None
  in
  let durable, _ = ok_or_fail (Durable.open_ ?storage ~dir ()) in
  { durable; twin; frozen = None; reads = [] }

(* Median of [runs] timings of [plan], or [None] when the governor's
   deadline stopped it first. *)
let time_plan view ?deadline_ms plan =
  let governor =
    match deadline_ms with
    | Some ms -> Governor.create { Governor.no_limits with deadline_ms = Some ms }
    | None -> Governor.unlimited
  in
  let options = { Exec.default_options with governor; spill = Spill.for_db view } in
  let t0 = Clock.now_ms () in
  match Exec.run_checked ~options view plan with
  | Ok _ -> Some (Clock.now_ms () -. t0)
  | Error _ -> None

(* The chosen plan against every candidate of the decision: median of 5
   runs each, except that a candidate whose first run takes more than
   twice the chosen plan's median runs once (under a deadline of 4x)
   and cannot be the fastest. *)
let regret eng =
  let per_template =
    List.map
      (fun tpl ->
        let view = Database.reader_view (Database.snapshot (Durable.db eng.durable)) in
        let cq = Datagen.bind_grouped view tpl.Datagen.sql in
        let d = ok_or_fail (Planner.decide ?io:(Cost.default_io view) view cq) in
        let median5 first plan =
          Metrics.median
            (first :: List.init 4 (fun _ -> Option.get (time_plan view plan)))
        in
        let chosen =
          median5 (Option.get (time_plan view d.Planner.chosen)) d.Planner.chosen
        in
        let others =
          List.filter_map
            (fun (c : Placement.t) ->
              if c.plan == d.Planner.chosen then None
              else
                match time_plan view ~deadline_ms:(4. *. chosen) c.plan with
                | Some first when first <= 2. *. chosen -> Some (median5 first c.plan)
                | _ -> None)
            d.Planner.candidates
        in
        let fastest = List.fold_left Float.min chosen others in
        (chosen /. fastest, fastest = chosen))
      Datagen.templates
  in
  ( List.fold_left (fun m (r, _) -> Float.max m r) 0. per_template,
    float_of_int (List.length (List.filter snd per_template))
    /. float_of_int (List.length per_template) )

let run ~work ~snapshot ~data ~refs ~wl ~seconds =
  let tr = { spans = []; stack = []; next_id = 0; stmt = 0 } in
  let eng = open_engine ~work ~snapshot ~twin:data.Datagen.db wl in
  let checks = { Loadgen.attempted = 0; failed = 0 } in
  let next_stmt = ref 0 in
  let stmt () =
    incr next_stmt;
    !next_stmt
  in
  let expected =
    List.map
      (fun (tpl, reference) ->
        let ok = cells (read tr eng ~stmt:(stmt ()) tpl.Datagen.sql) = reference in
        Loadgen.tick checks ok;
        if not ok then
          Printf.eprintf "trace check: template %s differs from the reference\n%!"
            tpl.Datagen.tname;
        (tpl, List.length reference))
      refs
  in
  Option.iter Buffer_pool.reset_peak (Database.buffer_pool (Durable.db eng.durable));
  let next_tpl = ref 0 and next_write = ref 0 in
  let acked = Hashtbl.create 3 in
  let read_next () =
    let tpl, n = List.nth expected (!next_tpl mod List.length expected) in
    incr next_tpl;
    Loadgen.tick checks (List.length (read tr eng ~stmt:(stmt ()) tpl.Datagen.sql) = n)
  in
  let write_next k =
    let writes = List.init k (fun i -> Datagen.write data (!next_write + i)) in
    next_write := !next_write + k;
    List.iter2
      (fun (table, _) ok ->
        Loadgen.tick checks ok;
        if ok then
          Hashtbl.replace acked table
            (1 + Option.value (Hashtbl.find_opt acked table) ~default:0))
      writes
      (write_group tr eng ~stmt:(stmt ()) (List.map snd writes))
  in
  let t0 = Clock.now_ms () in
  let t_end = t0 +. (seconds *. 1000.) in
  (match wl with
  | Workload.Agg_ram | Workload.Agg_paged ->
      while Clock.now_ms () < t_end do
        read_next ()
      done
  | Workload.Mixed_rw ->
      let rate = Option.get (Workload.open_write_rate wl) in
      let due () = t0 +. (float_of_int !next_write *. 1000. /. rate) in
      while Clock.now_ms () < t_end do
        (* the single open-loop writer's overdue commits, one at a time *)
        while due () <= Clock.now_ms () do
          write_next 1
        done;
        read_next ()
      done
  | Workload.Ingest ->
      (* two closed-loop writers: their INSERTs share each group commit *)
      while Clock.now_ms () < t_end do
        write_next (Workload.closed_writers wl)
      done);
  (* the acknowledged-INSERT check of the server phase *)
  List.iter (fun _ -> write_next 1) Datagen.write_tables;
  List.iter
    (fun (table, count_sql) ->
      let expected =
        List.assoc table data.Datagen.row_counts
        + Option.value (Hashtbl.find_opt acked table) ~default:0
      in
      Loadgen.tick checks
        (cells (read tr eng ~stmt:(stmt ()) count_sql)
        = [ [ string_of_int expected ] ]))
    Datagen.write_tables;
  let peak_pinned =
    match pool_stats eng with Some s -> s.Buffer_pool.peak_pinned | None -> 0
  in
  let regret, agree_frac = regret eng in
  Durable.close eng.durable;
  { tracer = tr; engine = eng; checks; regret; agree_frac; peak_pinned }

(* ---------- summaries ---------- *)

let write_jsonl path tr =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Jsonv.to_string
           (Jsonv.Obj
              [
                ("id", Jsonv.Num (float_of_int s.id));
                ("parent", Jsonv.Num (float_of_int s.parent));
                ("stmt", Jsonv.Num (float_of_int s.stmt));
                ("name", Jsonv.Str s.name);
                ("start_ms", Jsonv.Num s.t0);
                ("end_ms", Jsonv.Num s.t1);
              ]));
      output_char oc '\n')
    (List.rev tr.spans);
  close_out oc

(* a span's duration minus the part its children cover *)
let self_times tr =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Option.value (Hashtbl.find_opt child s.parent) ~default:0.
          +. (s.t1 -. s.t0)))
    tr.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.id) ~default:0. in
      let total, n = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0., 0) in
      Hashtbl.replace by_name s.name (total +. self, n + 1))
    tr.spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq by_name))

let durations tr name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None)
    tr.spans

let per_layer r ~(server : Loadgen.result) ~op_p50_ms wl =
  let tr = r.tracer in
  let p q name = Metrics.percentile q (durations tr name) in
  let reads = r.engine.reads in
  let sum f = List.fold_left (fun a s -> a + f s) 0 reads in
  let per_read f = float_of_int (sum f) /. float_of_int (max 1 (List.length reads)) in
  (* a write group's commit minus the apply time of its statements *)
  let apply = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.name = "storage.apply" then
        Hashtbl.replace apply s.stmt
          (s.t1 -. s.t0 +. Option.value (Hashtbl.find_opt apply s.stmt) ~default:0.))
    tr.spans;
  let log_ms =
    List.filter_map
      (fun s ->
        if s.name <> "durable.commit" then None
        else Some (s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt apply s.stmt) ~default:0.))
      tr.spans
  in
  let status k = Option.value (List.assoc_opt k server.Loadgen.status) ~default:0. in
  let root = if Workload.measures_writes wl then "write" else "read" in
  [
    ("opt.decide_ms_p50", p 50. "opt.decide");
    ("opt.decide_ms_p90", p 90. "opt.decide");
    ("opt.regret", r.regret);
    ("opt.agree_frac", r.agree_frac);
    ("exec.run_ms_p50", p 50. "exec.run");
    ("exec.run_ms_p90", p 90. "exec.run");
    ("exec.rows_produced", Metrics.median (List.map (fun s -> float_of_int s.produced) reads));
    ( "exec.peak_live_rows",
      float_of_int (List.fold_left (fun m s -> max m s.peak_live) 0 reads) );
    ( "storage.pool_hit_rate",
      float_of_int (sum (fun s -> s.hits))
      /. float_of_int (max 1 (sum (fun s -> s.hits + s.misses))) );
    ("storage.page_reads", per_read (fun s -> s.page_reads));
    ("storage.page_writes", per_read (fun s -> s.page_writes));
    ("storage.evictions", per_read (fun s -> s.evictions));
    ("storage.peak_pinned", float_of_int r.peak_pinned);
    ("storage.snapshot_ms", p 50. "storage.snapshot");
    ("storage.snapshots", float_of_int (List.length (durations tr "storage.snapshot")));
    ("storage.reader_view_ms", p 50. "storage.reader_view");
    ("durable.commit_ms", p 50. "durable.commit");
    ("storage.apply_ms", p 50. "storage.apply");
    ("durable.log_ms", Metrics.median log_ms);
    ("parser.parse_ms", p 50. "parser.parse");
    ("binder.bind_ms", p 50. "binder.bind");
    ( "server.stmts_per_group_commit",
      status "grouped_stmts" /. Float.max 1. (status "group_commits") );
    ("server.rows_pulled_per_read", status "rows_pulled" /. Float.max 1. (status "queries"));
    ("server.refusals", status "refusals");
    ("server.errors", status "errors");
    ("server.unattributed_ms", op_p50_ms -. p 50. root);
    ("bench.gen_late_ms_p95", Loadgen.gen_late_ms_p95 server);
  ]
