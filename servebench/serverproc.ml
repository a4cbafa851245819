(* The [eagerdb serve] child process: spawn, wait until it answers,
   read its peak memory, stop it.  Every child is recorded so an
   aborting run still kills and reaps what it started. *)

open Eager_robust
open Eager_server

type t = { pid : int; addr : Client.addr; log : string }

let live : int list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

let () = at_exit kill_all

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
      live := List.filter (( <> ) pid) !live;
      true
  | exception Unix.Unix_error _ -> true

(* no retries: a refusal or a lost request is a failure to report *)
let client_config addr = Client.config ~timeout_ms:60_000. ~retries:0 addr

(* Spawn [exe serve ARGS] with its output in [log] and block until the
   first STATUS is answered; returns the child and the seconds that
   took.  The socket lives under the run directory, named relative to
   the working directory so its path stays short. *)
let start ~exe ~sock ~log args =
  (try Sys.remove sock with Sys_error _ -> ());
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv = Array.of_list (exe :: "serve" :: "--listen" :: ("unix:" ^ sock) :: args) in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process exe argv null out out in
  Unix.close out;
  Unix.close null;
  live := pid :: !live;
  let addr = Client.A_unix sock in
  let cfg = client_config addr in
  let rec wait_ready () =
    if exited pid then failwith ("serve exited during startup; see " ^ log);
    if Unix.gettimeofday () -. t0 > 120. then failwith ("serve did not start; see " ^ log);
    match Client.connect cfg with
    | Error _ ->
        Clock.sleep_ms 2.;
        wait_ready ()
    | Ok c -> (
        let r = Client.request c "STATUS;" in
        Client.close c;
        match r with
        | Ok (Client.Ok_text _) -> ()
        | _ ->
            Clock.sleep_ms 2.;
            wait_ready ())
  in
  wait_ready ();
  ({ pid; addr; log }, Unix.gettimeofday () -. t0)

(* VmHWM: the resident-set high-water mark, in MiB *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | l -> (
            match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.
            | None -> go ())
        | exception End_of_file -> failwith "no VmHWM in /proc status"
      in
      go ())

(* SIGTERM, then wait for the graceful shutdown; SIGKILL after 30 s *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 30. in
  while (not (exited t.pid)) && Unix.gettimeofday () < deadline do
    Clock.sleep_ms 5.
  done;
  if List.mem t.pid !live then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap t.pid
  end
