open Eager_value
open Eager_schema

type histogram = { lo : float; hi : float; counts : int array; total : int }

type col_stats = {
  ndv : int;
  nulls : int;
  min_v : Value.t;
  max_v : Value.t;
  hist : histogram option;
}

(* [rows] is the table's current row count; [collected_at] the count
   the per-column summaries were gathered at (see [with_rows]) *)
type t = { rows : int; collected_at : int; cols : col_stats array }

let bucket_count = 16

let as_float = function
  | Value.Int n -> Some (float_of_int n)
  | Value.Float f -> Some f
  | _ -> None

let fraction_below h v =
  if h.total = 0 then 0.
  else if v <= h.lo then 0.
  else if v > h.hi then 1.
  else begin
    let width = (h.hi -. h.lo) /. float_of_int (Array.length h.counts) in
    let width = if width <= 0. then 1. else width in
    let pos = (v -. h.lo) /. width in
    let full = min (int_of_float pos) (Array.length h.counts) in
    let below = ref 0. in
    for i = 0 to full - 1 do
      below := !below +. float_of_int h.counts.(i)
    done;
    (* interpolate within the straddled bucket *)
    if full < Array.length h.counts then begin
      let frac = pos -. float_of_int full in
      below := !below +. (frac *. float_of_int h.counts.(full))
    end;
    Float.max 0. (Float.min 1. (!below /. float_of_int h.total))
  end

let collect heap =
  let arity = Schema.arity (Heap.schema heap) in
  let seen = Array.init arity (fun _ -> Hashtbl.create 64) in
  let nulls = Array.make arity 0 in
  let mins = Array.make arity Value.Null in
  let maxs = Array.make arity Value.Null in
  Heap.iter
    (fun row ->
      for i = 0 to arity - 1 do
        let v = row.(i) in
        if Value.is_null v then nulls.(i) <- nulls.(i) + 1
        else begin
          let key = Row.key_on [| 0 |] [| v |] in
          if not (Hashtbl.mem seen.(i) key) then Hashtbl.add seen.(i) key ();
          (if Value.is_null mins.(i) || Value.compare_total v mins.(i) < 0 then
             mins.(i) <- v);
          if Value.is_null maxs.(i) || Value.compare_total v maxs.(i) > 0 then
            maxs.(i) <- v
        end
      done)
    heap;
  (* second pass: equi-width histograms for numeric columns *)
  let hists =
    Array.init arity (fun i ->
        match as_float mins.(i), as_float maxs.(i) with
        | Some lo, Some hi when Heap.length heap > 0 ->
            Some (lo, hi, Array.make bucket_count 0, ref 0)
        | _ -> None)
  in
  Heap.iter
    (fun row ->
      for i = 0 to arity - 1 do
        match hists.(i), as_float row.(i) with
        | Some (lo, hi, counts, total), Some f ->
            let width = (hi -. lo) /. float_of_int bucket_count in
            let b =
              if width <= 0. then 0
              else min (bucket_count - 1) (int_of_float ((f -. lo) /. width))
            in
            counts.(b) <- counts.(b) + 1;
            incr total
        | _ -> ()
      done)
    heap;
  {
    rows = Heap.length heap;
    collected_at = Heap.length heap;
    cols =
      Array.init arity (fun i ->
          {
            ndv = Hashtbl.length seen.(i);
            nulls = nulls.(i);
            min_v = mins.(i);
            max_v = maxs.(i);
            hist =
              (match hists.(i) with
              | Some (lo, hi, counts, total) when !total > 0 ->
                  Some { lo; hi; counts; total = !total }
              | _ -> None);
          });
  }

let row_count t = t.rows
let collected_at t = t.collected_at
let with_rows t rows = { t with rows }
let col t i = t.cols.(i)
let col_by_ref t schema c = t.cols.(Schema.index_of schema c)

let ndv_of_cols t idxs =
  if Array.length idxs = 0 then 1
  else begin
    let product = ref 1.0 in
    Array.iter
      (fun i ->
        let s = t.cols.(i) in
        let d = max 1 (s.ndv + if s.nulls > 0 then 1 else 0) in
        product := !product *. float_of_int d)
      idxs;
    let capped = Float.min !product (float_of_int t.rows) in
    max 1 (int_of_float capped)
  end

let pp ppf t =
  Format.fprintf ppf "rows=%d" t.rows;
  Array.iteri
    (fun i c -> Format.fprintf ppf " [%d: ndv=%d nulls=%d]" i c.ndv c.nulls)
    t.cols
