(* e2e.exe compare PARENT... -- CHANGE...: per workload and metric, each
   side's median and quartiles, pairwise wins, and a verdict with the
   bounds of BENCHMARK.json (see [judge]). *)

(* the quartiles of Python's statistics.quantiles(values, n=4), whose
   default (exclusive) method is the usual way to quote a spread *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld < 2 then (Metrics.median xs, Metrics.median xs, Metrics.median xs)
  else
    let m = ld + 1 and n = 4 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (q 1, q 2, q 3)

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* [gain x y] > 0 when [y] reads better than [x] *)
let gain better x y =
  match better with Metrics.Lower -> x -. y | Metrics.Higher -> y -. x

(* the i-th parent run is paired with the i-th change run *)
let rec zip xs ys = match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> []

(* Improved: the change wins at least 9 of 10 pairs and the medians
   differ by more than the parent's quartile spread.  Regressed: the
   change's median is worse by more than the bound.  Unresolved: the
   parent's spread is wider than the bound and not every change run
   beats every parent run.  Without a bound, regressed mirrors
   improved. *)
let judge ~better ~bound parent change =
  let p1, pm, p3 = quartiles parent and _, cm, _ = quartiles change in
  let spread = p3 -. p1 in
  let pairs = zip parent change in
  let count f = List.length (List.filter (fun (x, y) -> f (gain better x y)) pairs) in
  let wins = count (fun g -> g > 0.) and losses = count (fun g -> g < 0.) in
  let n = List.length pairs in
  let delta = gain better pm cm in
  let all_cmp f =
    List.for_all (fun x -> List.for_all (fun y -> f (gain better x y)) change) parent
  in
  let verdict =
    if n > 0 && wins * 10 >= 9 * n && delta > spread then Improved
    else
      match bound with
      | None ->
          if n > 0 && losses * 10 >= 9 * n && -.delta > spread then Regressed
          else Unchanged
      | Some b ->
          let limit = b *. Float.abs pm in
          if all_cmp (fun g -> g < 0.) && -.delta > limit then Regressed
          else if spread > limit && not (all_cmp (fun g -> g > 0.)) then Unresolved
          else if -.delta > limit then Regressed
          else Unchanged
  in
  ((p1, pm, p3), quartiles change, wins, n, verdict)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* bounds by metric name; failed_frac tolerates no increase *)
let bounds bench_path =
  let j = Jsonv.of_string (read_file bench_path) in
  ("failed_frac", 0.)
  :: List.filter_map
       (fun m ->
         match (Jsonv.member "name" m, Option.bind (Jsonv.member "bound" m) Jsonv.to_num) with
         | Some (Jsonv.Str n), Some b -> Some (n, b)
         | _ -> None)
       (Jsonv.to_list (Option.value (Jsonv.member "end_to_end" j) ~default:Jsonv.Null))

type run = { workload : string; data : string; metrics : (string * float) list }

let load path =
  let j = Jsonv.of_string (read_file path) in
  let str k = Option.value (Option.bind (Jsonv.member k j) Jsonv.to_str) ~default:"?" in
  let metrics =
    match Jsonv.member "metrics" j with
    | Some (Jsonv.Obj kv) ->
        List.filter_map
          (fun (k, v) ->
            Option.map (fun f -> (k, f)) (Option.bind (Jsonv.member "value" v) Jsonv.to_num))
          kv
    | _ -> []
  in
  { workload = str "workload"; data = str "data"; metrics }

let main ~bench parent_files change_files =
  let bounds = bounds bench in
  let parent = List.map load parent_files and change = List.map load change_files in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change)) in
  let regressed = ref false in
  List.iter
    (fun wl ->
      let of_side runs = List.filter (fun r -> r.workload = wl) runs in
      let p = of_side parent and c = of_side change in
      Printf.printf "\n== %s (%d parent runs, %d change runs)\n" wl (List.length p)
        (List.length c);
      (* paired runs must have run on identical inputs *)
      List.iteri
        (fun i (x, y) ->
          if x.data <> y.data then
            Printf.printf "warning: pair %d ran on different data:\n  %s\n  %s\n" (i + 1)
              x.data y.data)
        (zip p c);
      Printf.printf "%-30s %26s %26s %7s  %s\n" "metric" "parent median [q1, q3]"
        "change median [q1, q3]" "wins" "verdict";
      List.iter
        (fun (m : Metrics.def) ->
          let values runs = List.filter_map (fun r -> List.assoc_opt m.name r.metrics) runs in
          match (values p, values c) with
          | [], _ | _, [] -> ()
          | pv, cv ->
              let bound = List.assoc_opt m.name bounds in
              let (p1, pm, p3), (c1, cm, c3), wins, n, v =
                judge ~better:m.better ~bound pv cv
              in
              if v = Regressed && bound <> None then regressed := true;
              Printf.printf "%-30s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %3d/%-3d  %s\n"
                m.name pm p1 p3 cm c1 c3 wins n (verdict_to_string v))
        Metrics.all)
    workloads;
  if !regressed then 1 else 0
