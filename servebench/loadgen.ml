(* The untraced server phase: boot [eagerdb serve] three times (set-up
   time), check every template's answer against the reference, then
   drive the workload's sessions through Eager_server.Client for a
   warm-up and a measurement window, and check that every acknowledged
   INSERT is visible.  One process, at most 2 load threads and 2
   connections. *)

open Eager_robust
open Eager_server

type kind = Read of Datagen.template | Write of string

type outcome = Ok_ | Refused | Failed | Transport | Wrong

type sample = {
  kind : kind;
  due : float;  (** ms: the schedule (open loop) or the previous reply *)
  sent : float;
  latency : float;  (** ms: from the due time (open loop) or the send *)
  outcome : outcome;
}

type tally = { mutable attempted : int; mutable failed : int }

let tick tally ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then tally.failed <- tally.failed + 1

type result = {
  refs : (Datagen.template * string list list) list;  (** reference answers *)
  setup_s : float;
  rss_mb : float;
  window : sample list;  (** samples due inside the measurement window *)
  status : (string * float) list;  (** the STATUS server line, key=value *)
  checks : tally;  (** correctness checks plus every load request *)
}

let outcome_of ~expect r =
  let outcome, detail =
    match r with
    | Ok (Client.Ok_text text) -> if expect text then (Ok_, "") else (Wrong, text)
    | Ok (Client.Refused { msg; _ }) -> (Refused, msg)
    | Ok (Client.Failed { kind; msg }) -> (Failed, kind ^ ": " ^ msg)
    | Error e -> (Transport, Err.to_string e)
  in
  if outcome <> Ok_ then
    Printf.eprintf "load: request failed: %s\n%!"
      (String.sub detail 0 (min 300 (String.length detail)));
  outcome

let expect_rows n text = Datagen.rows_footer text = Some n
let expect_insert text = String.trim text = "1 row(s) inserted"

(* a session's connection, re-opened after a transport error *)
type session = { cfg : Client.config; mutable conn : Client.conn option }

let session cfg = { cfg; conn = None }

let request s sql =
  let conn =
    match s.conn with
    | Some c -> Ok c
    | None -> (
        match Client.connect s.cfg with
        | Ok c ->
            s.conn <- Some c;
            Ok c
        | Error e -> Error e)
  in
  match Result.bind conn (fun c -> Client.request c sql) with
  | Error e ->
      Option.iter Client.close s.conn;
      s.conn <- None;
      Error e
  | r -> r

let close s = Option.iter Client.close s.conn

let status_line text =
  String.split_on_char '\n' text
  |> List.find_opt (fun l -> String.length l > 7 && String.sub l 0 7 = "server:")
  |> Option.map (fun l ->
         String.split_on_char ' ' l
         |> List.filter_map (fun kv ->
                match String.split_on_char '=' kv with
                | [ k; v ] -> Option.map (fun f -> (k, f)) (float_of_string_opt v)
                | _ -> None))
  |> Option.value ~default:[]

(* one copy of the snapshot per boot: a durable server owns its dir *)
let copy_file src dst =
  let ic = open_in_bin src in
  let oc = open_out_bin dst in
  Fun.protect
    ~finally:(fun () ->
      close_in ic;
      close_out oc)
    (fun () ->
      let buf = Bytes.create 65536 in
      let rec go () =
        let n = input ic buf 0 65536 in
        if n > 0 then begin
          output oc buf 0 n;
          go ()
        end
      in
      go ())

let boot ~exe ~work ~snapshot wl i =
  let dir = Filename.concat work (Printf.sprintf "db%d" i) in
  Sys.mkdir dir 0o755;
  copy_file snapshot (Filename.concat dir "snapshot.eagerdb");
  let paged =
    if Workload.paged wl then begin
      let spill = Filename.concat work (Printf.sprintf "spill%d" i) in
      Sys.mkdir spill 0o755;
      [
        "--pages"; string_of_int Workload.pool_pages;
        "--page-size"; string_of_int Workload.page_size;
        "--spill-dir"; spill;
      ]
    end
    else []
  in
  Serverproc.start ~exe
    ~sock:(Filename.concat work "s.sock")
    ~log:(Filename.concat work (Printf.sprintf "serve%d.log" i))
    ([ "--db"; dir ] @ paged)

(* each template's answer, parsed into cells, taken before the load *)
let answers s =
  List.map
    (fun tpl ->
      match request s tpl.Datagen.sql with
      | Ok (Client.Ok_text text) -> (tpl, Datagen.parse_table text)
      | _ -> (tpl, None))
    Datagen.templates

(* The load: closed-loop readers and writers, an optional open-loop
   writer, all sharing one template and one write sequence.  Sessions
   stop at [t_end], which is set once the window's start is known. *)
let drive ~cfg ~data ~wl ~rows_of ~t_end ~record =
  let running () = Clock.now_ms () < Atomic.get t_end in
  let next_tpl = Atomic.make 0 in
  let next_write = Atomic.make 0 in
  let read_op () =
    let tpl =
      List.nth Datagen.templates
        (Atomic.fetch_and_add next_tpl 1 mod List.length Datagen.templates)
    in
    (Read tpl, tpl.Datagen.sql, expect_rows (rows_of tpl))
  in
  let write_op () =
    let table, sql = Datagen.write data (Atomic.fetch_and_add next_write 1) in
    (Write table, sql, expect_insert)
  in
  let closed next () =
    let s = session cfg in
    let last = ref (Clock.now_ms ()) in
    while running () do
      let kind, sql, expect = next () in
      let sent = Clock.now_ms () in
      let r = request s sql in
      let done_ = Clock.now_ms () in
      record
        { kind; due = !last; sent; latency = done_ -. sent; outcome = outcome_of ~expect r };
      last := done_
    done;
    close s
  in
  let opened rate () =
    let s = session cfg in
    let t0 = Clock.now_ms () in
    let rec go i =
      let due = t0 +. (float_of_int i *. 1000. /. rate) in
      if due < Atomic.get t_end then begin
        Clock.sleep_ms (due -. Clock.now_ms ());
        let kind, sql, expect = write_op () in
        let sent = Clock.now_ms () in
        let r = request s sql in
        let done_ = Clock.now_ms () in
        record { kind; due; sent; latency = done_ -. due; outcome = outcome_of ~expect r };
        go (i + 1)
      end
    in
    go 0;
    close s
  in
  let threads =
    List.init (Workload.closed_readers wl) (fun _ -> closed read_op)
    @ List.init (Workload.closed_writers wl) (fun _ -> closed write_op)
    @ (match Workload.open_write_rate wl with Some r -> [ opened r ] | None -> [])
  in
  List.iter Thread.join (List.map (fun f -> Thread.create f ()) threads);
  Atomic.get next_write

let run ~exe ~work ~snapshot ~data ~reference ~wl ~warmup_s ~seconds =
  (* three boots, one at a time: the one that serves the load, then two
     more after it stops, so that one slow spell of the shared machine
     cannot cover all of them *)
  let server, secs = boot ~exe ~work ~snapshot wl 0 in
  let cfg = Serverproc.client_config server.Serverproc.addr in
  let checks = { attempted = 0; failed = 0 } in
  let s = session cfg in
  (* the reference answers take seconds of Ref_eval; they are computed
     on the other core while the server answers the templates and the
     load warms up, and the window opens once they are done *)
  let t_start = Clock.now_ms () in
  let reference = Domain.spawn reference in
  let answers = answers s in
  let rows_of tpl =
    match List.assq tpl answers with Some rows -> List.length rows | None -> -1
  in
  let base =
    List.map (fun (table, _) -> (table, List.assoc table data.Datagen.row_counts))
      Datagen.write_tables
  in
  let mu = Mutex.create () in
  let samples = ref [] in
  let record smp =
    Mutex.lock mu;
    samples := smp :: !samples;
    Mutex.unlock mu
  in
  let t_end = Atomic.make Float.infinity in
  let issued = ref 0 in
  let load =
    Thread.create (fun () -> issued := drive ~cfg ~data ~wl ~rows_of ~t_end ~record) ()
  in
  let refs = Domain.join reference in
  let w0 = Float.max (Clock.now_ms ()) (t_start +. (warmup_s *. 1000.)) in
  Atomic.set t_end (w0 +. (seconds *. 1000.));
  Thread.join load;
  List.iter
    (fun (tpl, expected) ->
      let ok = List.assq tpl answers = Some expected in
      if not ok then
        Printf.eprintf "check: template %s answer differs from the reference\n%!"
          tpl.Datagen.tname;
      tick checks ok)
    refs;
  List.iter (fun smp -> tick checks (smp.outcome = Ok_)) !samples;
  (* acked INSERTs must all be visible; one more per table after the
     window, so every workload commits at least once *)
  let canaries =
    List.init (List.length Datagen.write_tables) (fun i ->
        let table, sql = Datagen.write data (!issued + i) in
        let o = outcome_of ~expect:expect_insert (request s sql) in
        tick checks (o = Ok_);
        (Write table, o))
  in
  let writes = List.map (fun smp -> (smp.kind, smp.outcome)) !samples @ canaries in
  List.iter
    (fun (table, count_sql) ->
      let count o = List.length (List.filter (( = ) (Write table, o)) writes) in
      (* a transport error after the send may or may not have committed *)
      let acked = count Ok_ and unsure = count Transport in
      let lo = List.assoc table base + acked in
      let ok =
        match request s count_sql with
        | Ok (Client.Ok_text text) -> (
            match Datagen.parse_table text with
            | Some [ [ n ] ] -> (
                match int_of_string_opt n with
                | Some n -> n >= lo && n <= lo + unsure
                | None -> false)
            | _ -> false)
        | _ -> false
      in
      if not ok then
        Printf.eprintf "check: %s does not show every acknowledged INSERT\n%!" table;
      tick checks ok)
    Datagen.write_tables;
  let status =
    match request s "STATUS;" with
    | Ok (Client.Ok_text text) -> status_line text
    | _ -> []
  in
  close s;
  let rss_mb = Serverproc.peak_rss_mb server in
  Serverproc.stop server;
  let after =
    List.init 2 (fun i ->
        let srv, secs = boot ~exe ~work ~snapshot wl (i + 1) in
        Serverproc.stop srv;
        secs)
  in
  {
    refs;
    setup_s = Metrics.median (secs :: after);
    rss_mb;
    window = List.filter (fun smp -> smp.due >= w0) !samples;
    status;
    checks;
  }

(* ---------- the end-to-end metrics of one server phase ---------- *)

let is_read smp = match smp.kind with Read _ -> true | Write _ -> false

let metrics wl ~seconds r =
  let ok = List.filter (fun smp -> smp.outcome = Ok_) r.window in
  let lat pick = List.map (fun smp -> smp.latency) (List.filter pick ok) in
  let rate pick = float_of_int (List.length (List.filter pick ok)) /. seconds in
  let reads = lat is_read and writes = lat (Fun.negate is_read) in
  let measured = if Workload.measures_writes wl then Fun.negate is_read else is_read in
  let e2e =
    [
      ("setup_s", r.setup_s);
      ("op_p50_ms", Metrics.median (lat measured));
      ("op_p85_ms", Metrics.percentile 85. (lat measured));
      ("ops_per_s", rate measured);
      ("server_peak_rss_mb", r.rss_mb);
    ]
  in
  let detail =
    (if reads = [] then []
     else
       [
         ("read_p50_ms", Metrics.median reads);
         ("read_p85_ms", Metrics.percentile 85. reads);
         ("reads_per_s", rate is_read);
       ])
    @ (if writes = [] then []
       else
         [
           ("write_p50_ms", Metrics.median writes);
           ("write_p90_ms", Metrics.percentile 90. writes);
           ("commits_per_s", rate (Fun.negate is_read));
         ])
    @ [
        ( "failed_frac",
          float_of_int r.checks.failed /. float_of_int (max 1 r.checks.attempted) );
      ]
  in
  (e2e, detail, List.length (List.filter measured ok))

let gen_late_ms_p95 r =
  Metrics.percentile 95. (List.map (fun smp -> smp.sent -. smp.due) r.window)
