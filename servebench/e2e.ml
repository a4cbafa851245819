(* End-to-end benchmark of [eagerdb serve].

   Usage (from the repository root, after dune build):
     e2e.exe run --workload W --seed N --seconds S --trace 0|1
         [--server EXE] [--warmup S] [--work DIR] [--out DIR] [--small 1]
     e2e.exe trace --workload W --seed N --seconds S   (= run --trace 1)
     e2e.exe compare [--bench FILE] PARENT.json... -- CHANGE.json...
     e2e.exe smoke [--server EXE] [--work DIR] [--out DIR]
                                          every workload, 2 s, 10^3 rows

   W is agg_ram, agg_paged, mixed_rw or ingest; --small 1 generates
   10^3 fact rows instead of 10^5.  A run generates the
   database from the seed, saves it as a snapshot, boots the server on
   copies of it, checks answers, loads the server, and prints one
   "workload metric value unit" line per metric and, last, one JSON
   object {correct, attempted, failed, metrics}.  With --trace 1 the
   statements are also replayed in process with a span around every
   layer call, and the metrics are the per-layer split.  Each run writes
   a result file (with every metric's definition) and, traced, a spans
   JSONL file under the --out directory.  The exit code is 1 when a
   correctness check failed, 2 on a usage or harness error. *)

open Eager_storage
open Eager_parser

let usage () =
  prerr_endline
    "usage: e2e.exe run --workload W --seed N --seconds S --trace 0|1 [...]\n\
    \       e2e.exe trace|smoke|compare ...  (see servebench/README.md)";
  exit 2

(* --flag value pairs *)
let flags args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] args

let flag fl k default = Option.value (List.assoc_opt k fl) ~default

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

type settings = {
  exe : string;
  work : string;  (** per-run scratch: snapshot, db dirs, socket *)
  out : string;  (** result and spans files *)
  sizes : Datagen.sizes;
  seed : int;
  seconds : float;
  warmup_s : float;
}

let unit_of name =
  match Metrics.find name with Some m -> m.Metrics.unit_ | None -> ""

let metric_obj kv =
  Jsonv.Obj
    (List.map
       (fun (k, v) ->
         (k, Jsonv.Obj [ ("value", Jsonv.Num v); ("unit", Jsonv.Str (unit_of k)) ]))
       kv)

(* One invocation: returns whether every correctness check passed. *)
let run_one st wl ~trace =
  let work = Filename.concat st.work (string_of_int (Unix.getpid ())) in
  rm_rf work;
  mkdir_p work;
  mkdir_p st.out;
  at_exit (fun () ->
      Serverproc.kill_all ();
      rm_rf work);
  let data = Datagen.generate ~sizes:st.sizes st.seed in
  Printf.printf "data %s\n%!" (Datagen.describe data);
  let snap_dir = Filename.concat work "snap" in
  Result.iter_error
    (fun e -> failwith (Eager_robust.Err.to_string e))
    (Persist.save data.Datagen.db ~dir:snap_dir);
  let snapshot = Filename.concat snap_dir "snapshot.eagerdb" in
  (* a reader view: the reference runs on another domain *)
  let reference () =
    let view = Database.reader_view data.Datagen.db in
    List.map (fun t -> (t, Datagen.reference view t)) Datagen.templates
  in
  let server =
    Loadgen.run ~exe:st.exe ~work ~snapshot ~data ~reference ~wl
      ~warmup_s:st.warmup_s ~seconds:st.seconds
  in
  let e2e, detail, measured = Loadgen.metrics wl ~seconds:st.seconds server in
  let checks = server.checks in
  let name = Workload.name wl in
  let reported, extra =
    if not trace then (e2e, detail)
    else begin
      let r =
        Trace.run ~work ~snapshot ~data ~refs:server.refs ~wl ~seconds:st.seconds
      in
      checks.attempted <- checks.attempted + r.Trace.checks.attempted;
      checks.failed <- checks.failed + r.Trace.checks.failed;
      let spans =
        Filename.concat st.out (Printf.sprintf "%s-seed%d.spans.jsonl" name st.seed)
      in
      Trace.write_jsonl spans r.Trace.tracer;
      Printf.printf "spans %s\n" spans;
      List.iter
        (fun (layer, (ms, n)) ->
          Printf.printf "%s self_ms.%s %.3f ms (%d spans)\n" name layer ms n)
        (Trace.self_times r.Trace.tracer);
      let op_p50_ms = List.assoc "op_p50_ms" e2e in
      (Trace.per_layer r ~server ~op_p50_ms wl, e2e @ detail)
    end
  in
  List.iter
    (fun (k, v) -> Printf.printf "%s %s %.17g %s\n" name k v (unit_of k))
    (reported @ extra);
  let correct = checks.failed = 0 && measured > 0 in
  let file =
    Filename.concat st.out
      (Printf.sprintf "%s-seed%d-trace%d.json" name st.seed (Bool.to_int trace))
  in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc
        (Jsonv.to_string
           (Jsonv.Obj
              [
                ("workload", Jsonv.Str name);
                ("why", Jsonv.Str (Workload.why wl));
                ("seed", Jsonv.Num (float_of_int st.seed));
                ("trace", Jsonv.Bool trace);
                ("seconds", Jsonv.Num st.seconds);
                ("warmup_s", Jsonv.Num st.warmup_s);
                ("data", Jsonv.Str (Datagen.describe data));
                ("measured_ops", Jsonv.Num (float_of_int measured));
                ("correct", Jsonv.Bool correct);
                ("attempted", Jsonv.Num (float_of_int checks.attempted));
                ("failed", Jsonv.Num (float_of_int checks.failed));
                ("metrics", metric_obj (reported @ extra));
                ( "definitions",
                  Jsonv.Obj
                    (List.map
                       (fun (m : Metrics.def) -> (m.name, Jsonv.Str m.what))
                       Metrics.all) );
              ])));
  Printf.printf "result %s\n" file;
  print_endline
    (Jsonv.to_string
       (Jsonv.Obj
          [
            ("correct", Jsonv.Bool correct);
            ("attempted", Jsonv.Num (float_of_int checks.attempted));
            ("failed", Jsonv.Num (float_of_int checks.failed));
            ("metrics", metric_obj reported);
          ]));
  correct

let settings fl =
  let num k default =
    match float_of_string_opt (flag fl k default) with Some f -> f | None -> usage ()
  in
  {
    exe = flag fl "server" "_build/default/bin/eagerdb.exe";
    work = flag fl "work" "servebench/_work";
    out = flag fl "out" "servebench/_out";
    sizes = (if flag fl "small" "0" = "1" then Datagen.smoke else Datagen.full);
    seed = int_of_float (num "seed" "1994");
    seconds = num "seconds" "20";
    warmup_s = num "warmup" "3";
  }

let workload fl =
  match Workload.of_name (flag fl "workload" "") with Some w -> w | None -> usage ()

let main () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args ->
      let fl = flags args in
      let trace =
        match flag fl "trace" "0" with "0" -> false | "1" -> true | _ -> usage ()
      in
      if run_one (settings fl) (workload fl) ~trace then 0 else 1
  | "trace" :: args ->
      let fl = flags args in
      if run_one (settings fl) (workload fl) ~trace:true then 0 else 1
  | "smoke" :: args ->
      (* each run in its own child, so every one starts from a clean
         process (run_one registers its own exit hooks) *)
      let fl = flags args in
      let st = settings fl in
      let failures =
        List.concat_map
          (fun wl ->
            List.filter_map
              (fun trace ->
                let argv =
                  [| Sys.executable_name; "run"; "--workload"; Workload.name wl;
                     "--seed"; string_of_int st.seed; "--seconds"; "2"; "--warmup"; "0.5";
                     "--trace"; (if trace then "1" else "0"); "--small"; "1";
                     "--server"; st.exe; "--work"; st.work; "--out"; st.out |]
                in
                let pid =
                  Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
                in
                match snd (Unix.waitpid [] pid) with
                | Unix.WEXITED 0 -> None
                | _ -> Some (Printf.sprintf "%s trace=%b" (Workload.name wl) trace))
              [ false; true ])
          Workload.all
      in
      List.iter (Printf.eprintf "smoke: %s failed\n") failures;
      if failures = [] then 0 else 1
  | "compare" :: args ->
      let args, bench =
        match args with
        | "--bench" :: b :: rest -> (rest, b)
        | _ -> (args, "BENCHMARK.json")
      in
      let rec split acc = function
        | "--" :: rest -> (List.rev acc, rest)
        | x :: rest -> split (x :: acc) rest
        | [] -> usage ()
      in
      let parent, change = split [] args in
      if parent = [] || change = [] then usage ();
      Compare.main ~bench parent change
  | _ -> usage ()

let () =
  (* a stopped benchmark still stops its servers: exit runs the hooks *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm ];
  let code =
    try main ()
    with e ->
      Printf.eprintf "e2e: %s\n%!" (Printexc.to_string e);
      2
  in
  exit code
