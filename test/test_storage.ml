(* Storage tests: heap behaviour, statistics, and insert-time enforcement of
   every SQL2 constraint class. *)

open Eager_value
open Eager_schema
open Eager_expr
open Eager_catalog
open Eager_storage

let col name ctype : Table_def.column_def =
  { Table_def.cname = name; ctype; domain = None }

let simple_schema =
  Schema.make
    [ (Colref.make "T" "a", Ctype.Int); (Colref.make "T" "b", Ctype.String) ]

(* ---------------- heap ---------------- *)

let test_heap_basics () =
  let h = Heap.create simple_schema in
  Alcotest.(check int) "empty" 0 (Heap.length h);
  Heap.insert h [| Value.Int 1; Value.Str "x" |];
  Heap.insert h [| Value.Int 2; Value.Str "y" |];
  Alcotest.(check int) "two rows" 2 (Heap.length h);
  Alcotest.(check int) "get" 2
    (match (Heap.get h 1).(0) with Value.Int n -> n | _ -> -1);
  Alcotest.(check int) "fold" 3
    (Heap.fold
       (fun acc row -> acc + match row.(0) with Value.Int n -> n | _ -> 0)
       0 h);
  Alcotest.(check int) "to_list" 2 (List.length (Heap.to_list h));
  Alcotest.(check int) "to_seq" 2 (Seq.length (Heap.to_seq h));
  Alcotest.(check bool) "exists" true
    (Heap.exists (fun r -> Value.null_eq r.(0) (Value.Int 2)) h);
  Alcotest.(check bool) "generation grows" true (Heap.generation h > 0)

let test_heap_growth () =
  let h = Heap.create simple_schema in
  for i = 1 to 1000 do
    Heap.insert h [| Value.Int i; Value.Str "s" |]
  done;
  Alcotest.(check int) "1000 rows survive doubling" 1000 (Heap.length h);
  Alcotest.(check int) "last row intact" 1000
    (match (Heap.get h 999).(0) with Value.Int n -> n | _ -> -1)

let test_heap_arity_check () =
  let h = Heap.create simple_schema in
  Alcotest.(check bool) "arity mismatch rejected" true
    (try
       Heap.insert h [| Value.Int 1 |];
       false
     with Invalid_argument _ -> true)

(* Snapshot isolation under every heap write.  A random sequence of
   appends, truncations, deletes, rewrites and copies runs against a
   live heap and a plain list model; every copy must keep the rows it
   had when it was taken.  Appends and truncations are sized to cross
   1024-row RAM chunks and page boundaries, and a truncation right after
   a copy cuts into the frozen tail. *)
type heap_op =
  | Append of int
  | Truncate_back of int (* drop this many rows (clamped) *)
  | Delete_mod of int
  | Replace_halves
  | Copy

let heap_op_gen ~max_append =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun n -> Append n) (int_range 0 max_append));
        ( 3,
          map
            (fun d -> Truncate_back d)
            (oneof [ int_range 0 8; int_range 0 (2 * max_append) ]) );
        (1, map (fun m -> Delete_mod m) (int_range 2 5));
        (1, return Replace_halves);
        (3, return Copy);
      ])

let show_heap_op = function
  | Append n -> Printf.sprintf "append %d" n
  | Truncate_back d -> Printf.sprintf "truncate back %d" d
  | Delete_mod m -> Printf.sprintf "delete mod %d" m
  | Replace_halves -> "replace halves"
  | Copy -> "copy"

let int_schema = Schema.make [ (Colref.make "T" "v", Ctype.Int) ]
let int_of_row r = match r.(0) with Value.Int n -> n | _ -> -1

let prop_heap_versions ~name ~count ~max_append make_heap =
  QCheck.Test.make ~count ~name
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_heap_op ops))
       QCheck.Gen.(list_size (int_range 1 14) (heap_op_gen ~max_append)))
    (fun ops ->
      let live = make_heap () in
      let next = ref 0 in
      let fresh () =
        incr next;
        !next
      in
      let apply model = function
        | Append n ->
            let added = List.init n (fun _ -> fresh ()) in
            List.iter (fun v -> Heap.insert live [| Value.Int v |]) added;
            model @ added
        | Truncate_back d ->
            let n = max 0 (List.length model - d) in
            Heap.truncate live n;
            List.filteri (fun i _ -> i < n) model
        | Delete_mod m ->
            let doomed v = v mod m = 0 in
            ignore (Heap.delete_where (fun r -> doomed (int_of_row r)) live);
            List.filter (fun v -> not (doomed v)) model
        | Replace_halves ->
            let rows =
              List.filteri (fun i _ -> i mod 2 = 0) model
              |> List.map (fun _ -> fresh ())
            in
            Heap.replace_all live (List.map (fun v -> [| Value.Int v |]) rows);
            rows
        | Copy -> model
      in
      let contents h = List.map int_of_row (Heap.to_list h) in
      let copies, _ =
        List.fold_left
          (fun (copies, model) op ->
            let model = apply model op in
            if contents live <> model || Heap.length live <> List.length model
            then QCheck.Test.fail_reportf "live heap diverged after %s"
                (show_heap_op op);
            let copies =
              if op = Copy then (Heap.copy live, model) :: copies else copies
            in
            (copies, model))
          ([], []) ops
      in
      List.for_all
        (fun (h, m) -> contents h = m && Heap.length h = List.length m)
        copies)

let prop_heap_versions_ram =
  prop_heap_versions ~name:"copies keep their rows (RAM)" ~count:60
    ~max_append:1500 (fun () -> Heap.create int_schema)

let prop_heap_versions_paged =
  prop_heap_versions ~name:"copies keep their rows (4-page pool)" ~count:40
    ~max_append:200 (fun () ->
      Heap.create_paged
        ~pool:(Buffer_pool.create ~cap:4 ())
        ~pager:(Pager.create_mem ~page_size:128 ())
        int_schema)

let test_truncate_basics () =
  let h = Heap.create int_schema in
  for v = 1 to 1030 do
    Heap.insert h [| Value.Int v |]
  done;
  let snap = Heap.copy h in
  let g = Heap.generation h in
  Heap.truncate h 1030;
  Alcotest.(check int) "truncate to length is a no-op" g (Heap.generation h);
  (* cuts into the full, frozen first chunk *)
  Heap.truncate h 1000;
  Alcotest.(check int) "length" 1000 (Heap.length h);
  Alcotest.(check bool) "generation bumped" true (Heap.generation h > g);
  Alcotest.(check int) "not a compaction" 0 (Heap.compactions h);
  Heap.insert h [| Value.Int (-1) |];
  Alcotest.(check int) "append after the cut" (-1)
    (int_of_row (Heap.get h 1000));
  Alcotest.(check int) "copy keeps row 1001" 1001
    (int_of_row (Heap.get snap 1000));
  Alcotest.(check int) "copy keeps its length" 1030 (Heap.length snap);
  Heap.truncate h 0;
  Alcotest.(check int) "emptied" 0 (Heap.length h);
  Alcotest.(check bool) "out of range refused" true
    (match Heap.truncate h 1 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ---------------- pages and the buffer pool ---------------- *)

open Eager_robust

let prow a b = [| Value.Int a; Value.Str b |]

let rows_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 Row.equal a b

let test_page_roundtrip () =
  let rows =
    [|
      [| Value.Int 1; Value.Str "x" |];
      [| Value.Null; Value.Float 2.5 |];
      [| Value.Bool true; Value.Str "" |];
    |]
  in
  let img = Page.encode ~page_size:512 ~id:7 rows in
  Alcotest.(check int) "image is page-sized" 512 (Bytes.length img);
  Alcotest.(check bool) "decode round-trips" true
    (rows_equal rows (Page.decode ~page_size:512 ~id:7 img));
  (* wrong id refused: a page read from the wrong offset must not decode *)
  Alcotest.(check bool) "wrong id refused" true
    (match Page.decode ~page_size:512 ~id:8 img with
    | _ -> false
    | exception Err.Error_exn e -> Err.kind e = Err.Storage)

(* every single byte of the image — header, payload, padding, checksum —
   is covered: flip it and the read must refuse with a typed Storage
   error; flip it back and the page must read cleanly again *)
let test_corruption_every_byte () =
  let page_size = 256 in
  let pool = Buffer_pool.create () in
  let pgr = Pager.create_mem ~page_size () in
  let id =
    Buffer_pool.append_page pool pgr [| prow 1 "hello"; prow 2 "world" |]
  in
  for pos = 0 to page_size - 1 do
    Pager.corrupt_byte pgr id ~pos;
    (match Buffer_pool.read_page pool pgr id with
    | _ -> Alcotest.failf "byte %d: corruption accepted" pos
    | exception Err.Error_exn e ->
        if Err.kind e <> Err.Storage then
          Alcotest.failf "byte %d: kind %s, want Storage" pos
            (Err.kind_to_string (Err.kind e)));
    (* XOR is an involution: restore and prove the refusal was the flip *)
    Pager.corrupt_byte pgr id ~pos
  done;
  Alcotest.(check bool) "intact again after restores" true
    (rows_equal
       [| prow 1 "hello"; prow 2 "world" |]
       (Buffer_pool.read_page pool pgr id))

let test_pinned_never_evicted () =
  let pool = Buffer_pool.create ~cap:2 () in
  let pgr = Pager.create_mem ~page_size:256 () in
  let a = Buffer_pool.alloc pool pgr [| prow 1 "a" |] in
  let b = Buffer_pool.alloc pool pgr [| prow 2 "b" |] in
  let rows_a = Buffer_pool.pin pool pgr a in
  Alcotest.(check bool) "pin sees the page" true
    (rows_equal [| prow 1 "a" |] rows_a);
  (* allocating a third page must evict the unpinned b, never pinned a *)
  let c = Buffer_pool.alloc pool pgr [| prow 3 "c" |] in
  let s = Buffer_pool.stats pool in
  Alcotest.(check int) "one eviction" 1 s.Buffer_pool.evictions;
  Alcotest.(check bool) "evicted page written back and readable" true
    (rows_equal [| prow 2 "b" |] (Buffer_pool.read_page pool pgr b));
  (* a stayed resident through the eviction: re-pin is a hit *)
  let hits0 = (Buffer_pool.stats pool).Buffer_pool.hits in
  ignore (Buffer_pool.pin pool pgr a);
  Buffer_pool.unpin pool pgr a;
  Alcotest.(check int) "re-pin of pinned page is a hit" (hits0 + 1)
    (Buffer_pool.stats pool).Buffer_pool.hits;
  (* with every frame pinned, a further pin is a typed Resource error *)
  ignore (Buffer_pool.pin pool pgr c);
  Alcotest.(check bool) "pool of pinned pages refuses with Resource" true
    (match Buffer_pool.pin pool pgr b with
    | _ -> false
    | exception Err.Error_exn e -> Err.kind e = Err.Resource);
  Buffer_pool.unpin pool pgr c;
  Buffer_pool.unpin pool pgr a;
  (* all unpinned again: the pin succeeds by evicting *)
  ignore (Buffer_pool.pin pool pgr b);
  Buffer_pool.unpin pool pgr b;
  let s = Buffer_pool.stats pool in
  Alcotest.(check bool) "peak pinned tracked" true
    (s.Buffer_pool.peak_pinned >= 2)

let test_lru_replacement () =
  let pool = Buffer_pool.create ~cap:3 () in
  let pgr = Pager.create_mem ~page_size:256 () in
  let ids = Array.init 3 (fun k -> Buffer_pool.alloc pool pgr [| prow k "p" |]) in
  (* touch page 0 so it is the most recently used *)
  ignore (Buffer_pool.with_page pool pgr ids.(0) Fun.id);
  (* force an eviction; the victim must not be page 0 *)
  ignore (Buffer_pool.alloc pool pgr [| prow 9 "q" |]);
  let misses0 = (Buffer_pool.stats pool).Buffer_pool.misses in
  ignore (Buffer_pool.with_page pool pgr ids.(0) Fun.id);
  Alcotest.(check int) "recently-used page survived the eviction" misses0
    (Buffer_pool.stats pool).Buffer_pool.misses;
  (* reservations compete with frames for the cap *)
  Alcotest.(check bool) "over-cap reservation refused with Resource" true
    (match Buffer_pool.reserve pool 4 with
    | () -> false
    | exception Err.Error_exn e -> Err.kind e = Err.Resource);
  Buffer_pool.reserve pool 2;
  let s = Buffer_pool.stats pool in
  Alcotest.(check int) "reserved pages counted" 2 s.Buffer_pool.reserved;
  Alcotest.(check bool) "reserved pages count into pinned" true
    (s.Buffer_pool.pinned >= 2);
  Buffer_pool.release pool 2;
  Alcotest.(check int) "release returns the pages" 0
    (Buffer_pool.stats pool).Buffer_pool.reserved

(* ---------------- stats ---------------- *)

let test_stats () =
  let h = Heap.create simple_schema in
  List.iter (Heap.insert h)
    [
      [| Value.Int 1; Value.Str "x" |];
      [| Value.Int 1; Value.Str "y" |];
      [| Value.Int 2; Value.Str "x" |];
      [| Value.Null; Value.Str "x" |];
    ];
  let s = Stats.collect h in
  Alcotest.(check int) "row count" 4 (Stats.row_count s);
  Alcotest.(check int) "ndv a" 2 (Stats.col s 0).Stats.ndv;
  Alcotest.(check int) "nulls a" 1 (Stats.col s 0).Stats.nulls;
  Alcotest.(check int) "ndv b" 2 (Stats.col s 1).Stats.ndv;
  Alcotest.(check bool) "min a" true
    (Value.null_eq (Stats.col s 0).Stats.min_v (Value.Int 1));
  Alcotest.(check bool) "max a" true
    (Value.null_eq (Stats.col s 0).Stats.max_v (Value.Int 2));
  (* distinct combinations: capped at row count *)
  Alcotest.(check int) "ndv over (a,b)" 4 (Stats.ndv_of_cols s [| 0; 1 |]);
  Alcotest.(check int) "ndv of no columns" 1 (Stats.ndv_of_cols s [||])

(* ---------------- database constraint enforcement ---------------- *)

let make_db ?storage () =
  let db = Database.create ?storage () in
  Database.create_domain db
    {
      Catalog.dname = "Pos";
      dtype = Ctype.Int;
      dcheck = Some (Expr.Cmp (Expr.Gt, Expr.col "" "VALUE", Expr.int 0));
    };
  Database.create_table db
    (Table_def.make "Parent"
       [ col "pk" Ctype.Int; col "label" Ctype.String ]
       [ Constr.Primary_key [ "pk" ] ]);
  Database.create_table db
    (Table_def.make "Child"
       [
         col "id" Ctype.Int;
         col "uniq" Ctype.Int;
         col "parent" Ctype.Int;
         { Table_def.cname = "amount"; ctype = Ctype.Int; domain = Some "Pos" };
         col "must" Ctype.String;
       ]
       [
         Constr.Primary_key [ "id" ];
         Constr.Unique [ "uniq" ];
         Constr.Not_null "must";
         Constr.Check (Expr.Cmp (Expr.Lt, Expr.col "" "amount", Expr.int 100));
         Constr.Foreign_key
           { cols = [ "parent" ]; ref_table = "Parent"; ref_cols = [ "pk" ] };
       ]);
  Database.insert_exn db "Parent" [ Value.Int 1; Value.Str "one" ];
  Database.insert_exn db "Parent" [ Value.Int 2; Value.Str "two" ];
  db

let ok_row ?(id = 10) ?(uniq = Value.Int 10) ?(parent = Value.Int 1)
    ?(amount = Value.Int 5) ?(must = Value.Str "m") () =
  [ Value.Int id; uniq; parent; amount; must ]

let expect_error db table row msg_part =
  match Database.insert db table row with
  | Ok () -> Alcotest.fail ("expected rejection: " ^ msg_part)
  | Error e ->
      let msg = Eager_robust.Err.to_string e in
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" msg msg_part)
        true (contains msg msg_part)

let test_insert_ok () =
  let db = make_db () in
  Alcotest.(check bool) "clean insert" true
    (Result.is_ok (Database.insert db "Child" (ok_row ())));
  Alcotest.(check int) "row landed" 1 (Database.row_count db "Child")

let test_primary_key () =
  let db = make_db () in
  Database.insert_exn db "Child" (ok_row ());
  expect_error db "Child" (ok_row ~uniq:(Value.Int 11) ()) "duplicate key";
  (* PK columns are NOT NULL *)
  expect_error db "Child"
    [ Value.Null; Value.Int 12; Value.Int 1; Value.Int 5; Value.Str "m" ]
    "cannot be NULL"

let test_unique_null_semantics () =
  let db = make_db () in
  Database.insert_exn db "Child" (ok_row ~id:1 ~uniq:Value.Null ());
  (* SQL2 UNIQUE treats NULL as distinct from NULL: a second NULL is fine *)
  Alcotest.(check bool) "second NULL in UNIQUE column accepted" true
    (Result.is_ok (Database.insert db "Child" (ok_row ~id:2 ~uniq:Value.Null ())));
  Database.insert_exn db "Child" (ok_row ~id:3 ~uniq:(Value.Int 7) ());
  expect_error db "Child" (ok_row ~id:4 ~uniq:(Value.Int 7) ()) "duplicate key"

let test_not_null () =
  let db = make_db () in
  expect_error db "Child" (ok_row ~must:Value.Null ()) "cannot be NULL"

let test_check_constraints () =
  let db = make_db () in
  (* CHECK (amount < 100) *)
  expect_error db "Child" (ok_row ~amount:(Value.Int 150) ()) "constraint violated";
  (* domain check (amount > 0) *)
  expect_error db "Child" (ok_row ~amount:(Value.Int 0) ()) "constraint violated";
  (* SQL2: CHECK evaluating to unknown (NULL amount) is satisfied *)
  Alcotest.(check bool) "NULL passes CHECK" true
    (Result.is_ok (Database.insert db "Child" (ok_row ~amount:Value.Null ())))

let test_foreign_key () =
  let db = make_db () in
  expect_error db "Child" (ok_row ~parent:(Value.Int 99) ()) "foreign key";
  (* NULL foreign keys are always allowed *)
  Alcotest.(check bool) "NULL FK accepted" true
    (Result.is_ok (Database.insert db "Child" (ok_row ~parent:Value.Null ())));
  (* late parents work: the key index must refresh *)
  Database.insert_exn db "Parent" [ Value.Int 3; Value.Str "three" ];
  Alcotest.(check bool) "new parent visible" true
    (Result.is_ok
       (Database.insert db "Child" (ok_row ~id:11 ~uniq:(Value.Int 11)
          ~parent:(Value.Int 3) ())))

let test_type_checking () =
  let db = make_db () in
  expect_error db "Child"
    [ Value.Str "nope"; Value.Int 1; Value.Int 1; Value.Int 5; Value.Str "m" ]
    "does not fit type";
  expect_error db "Child" [ Value.Int 1 ] "arity mismatch";
  expect_error db "Nope" (ok_row ()) "unknown table"

let test_stats_cache () =
  let db = make_db () in
  Database.insert_exn db "Child" (ok_row ());
  let s1 = Database.stats db "Child" in
  Alcotest.(check int) "one row" 1 (Stats.row_count s1);
  Database.insert_exn db "Child" (ok_row ~id:20 ~uniq:(Value.Int 20) ());
  let s2 = Database.stats db "Child" in
  Alcotest.(check int) "cache invalidated on growth" 2 (Stats.row_count s2)

(* The statistics store: entries outlive a version and are refreshed on
   drift, compaction or drop.  [collected_at] tells a reused entry from
   a fresh collection. *)
let insert_range db lo hi =
  for i = lo to hi - 1 do
    Database.insert_exn db "S" [ Value.Int i; Value.Int (i mod 10) ]
  done

let drift_db n =
  let db = Database.create () in
  Database.create_table db
    (Table_def.make "S" [ col "k" Ctype.Int; col "v" Ctype.Int ] []);
  insert_range db 0 n;
  db

let check_stats what ~rows ~collected_at ~ndv_k s =
  Alcotest.(check int) (what ^ ": rows") rows (Stats.row_count s);
  Alcotest.(check int) (what ^ ": collected at") collected_at
    (Stats.collected_at s);
  Alcotest.(check int) (what ^ ": ndv k") ndv_k (Stats.col s 0).Stats.ndv

let test_stats_within_drift () =
  let db = drift_db 80 in
  check_stats "first" ~rows:80 ~collected_at:80 ~ndv_k:80
    (Database.stats db "S");
  (* 10 of 80 rows is exactly 1/8: still reused *)
  insert_range db 80 90;
  check_stats "reused" ~rows:90 ~collected_at:80 ~ndv_k:80
    (Database.stats db "S")

let test_stats_past_drift () =
  let db = drift_db 80 in
  ignore (Database.stats db "S");
  insert_range db 80 91;
  check_stats "recollected" ~rows:91 ~collected_at:91 ~ndv_k:91
    (Database.stats db "S")

let test_stats_compaction_recollects () =
  let db = drift_db 80 in
  let through_snapshot () =
    Database.stats (Database.reader_view (Database.snapshot db)) "S"
  in
  ignore (through_snapshot ());
  (match
     Database.delete db "S"
       ~where:(Expr.eq (Expr.col "S" "k") (Expr.int 0))
       ()
   with
  | Ok n -> Alcotest.(check int) "one deleted" 1 n
  | Error e -> Alcotest.fail (Err.to_string e));
  (* 1 of 80 rows is well inside the drift bound: only the compaction
     (which a snapshot's heap inherits) forces the new collection *)
  check_stats "after DELETE" ~rows:79 ~collected_at:79 ~ndv_k:79
    (through_snapshot ());
  Alcotest.(check int) "ndv v before UPDATE" 10
    (Stats.col (Database.stats db "S") 1).Stats.ndv;
  (match
     Database.update db "S" ~set:[ ("v", Expr.col "S" "k") ] ~where:Expr.etrue
       ()
   with
  | Ok n -> Alcotest.(check int) "all updated" 79 n
  | Error e -> Alcotest.fail (Err.to_string e));
  let s = Database.stats db "S" in
  Alcotest.(check int) "UPDATE keeps the row count" 79 (Stats.row_count s);
  Alcotest.(check int) "ndv v after UPDATE" 79 (Stats.col s 1).Stats.ndv

let test_stats_drop_recreate () =
  let db = drift_db 3 in
  ignore (Database.stats db "S");
  (match Database.drop_table db "S" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Err.to_string e));
  Database.create_table db
    (Table_def.make "S"
       [ col "k" Ctype.Int; col "v" Ctype.Int; col "w" Ctype.Int ]
       []);
  (* same name, same row count, same compaction count as the dropped
     table: its entry (removed on drop, and keyed by the old heap's id)
     must not come back *)
  for i = 0 to 2 do
    Database.insert_exn db "S" [ Value.Int i; Value.Int i; Value.Int (7 * i) ]
  done;
  let s = Database.stats db "S" in
  Alcotest.(check int) "new column summarised" 3 (Stats.col s 2).Stats.ndv;
  Alcotest.(check int) "new v ndv" 3 (Stats.col s 1).Stats.ndv

let test_stats_shared_across_versions () =
  let db = drift_db 80 in
  let snap = Database.snapshot db in
  check_stats "reader view" ~rows:80 ~collected_at:80 ~ndv_k:80
    (Database.stats (Database.reader_view snap) "S");
  insert_range db 80 85;
  check_stats "live reuses the view's collection" ~rows:85 ~collected_at:80
    ~ndv_k:80 (Database.stats db "S");
  let snap2 = Database.snapshot db in
  insert_range db 85 86;
  check_stats "later snapshot reuses it" ~rows:85 ~collected_at:80 ~ndv_k:80
    (Database.stats (Database.reader_view snap2) "S");
  check_stats "the first snapshot still sees its own rows" ~rows:80
    ~collected_at:80 ~ndv_k:80
    (Database.stats (Database.reader_view snap) "S")

let test_histogram () =
  let schema = Schema.make [ (Colref.make "T" "v", Ctype.Int) ] in
  let h = Heap.create schema in
  (* skew: 90 values in [0,10), 10 values in [90,100) *)
  for i = 0 to 89 do
    Heap.insert h [| Value.Int (i mod 10) |]
  done;
  for i = 0 to 9 do
    Heap.insert h [| Value.Int (90 + i) |]
  done;
  let s = Stats.collect h in
  match (Stats.col s 0).Stats.hist with
  | None -> Alcotest.fail "numeric column should have a histogram"
  | Some hist ->
      Alcotest.(check int) "summarises all values" 100 hist.Stats.total;
      let below v = Stats.fraction_below hist v in
      Alcotest.(check bool)
        (Printf.sprintf "~90%% below 50 (got %.2f)" (below 50.))
        true
        (below 50. > 0.85 && below 50. < 0.95);
      Alcotest.(check (float 1e-9)) "nothing below min" 0. (below 0.);
      Alcotest.(check (float 1e-9)) "everything below max+1" 1. (below 100.);
      Alcotest.(check bool) "monotone" true (below 20. <= below 80.)

let test_histogram_absent_for_strings () =
  let schema = Schema.make [ (Colref.make "T" "s", Ctype.String) ] in
  let h = Heap.create schema in
  Heap.insert h [| Value.Str "x" |];
  let s = Stats.collect h in
  Alcotest.(check bool) "no histogram for strings" true
    ((Stats.col s 0).Stats.hist = None)

(* ---------------- DELETE / UPDATE ---------------- *)

let col_of tname name = Colref.make tname name

let test_delete () =
  let db = make_db () in
  Database.insert_exn db "Child" (ok_row ~id:1 ~uniq:(Value.Int 1) ());
  Database.insert_exn db "Child" (ok_row ~id:2 ~uniq:(Value.Int 2) ());
  Database.insert_exn db "Child" (ok_row ~id:3 ~uniq:(Value.Int 3) ~amount:Value.Null ());
  (* delete where id >= 2: the NULL-amount row with id 3 goes too *)
  let where = Expr.Cmp (Expr.Ge, Expr.Col (col_of "Child" "id"), Expr.int 2) in
  (match Database.delete db "Child" ~where () with
  | Ok n -> Alcotest.(check int) "two deleted" 2 n
  | Error e -> Alcotest.fail (Eager_robust.Err.to_string e));
  Alcotest.(check int) "one left" 1 (Database.row_count db "Child");
  (* unknown predicate keeps rows: amount = 5 is unknown for NULL amount *)
  Database.insert_exn db "Child" (ok_row ~id:9 ~uniq:(Value.Int 9) ~amount:Value.Null ());
  let where2 =
    Expr.Cmp (Expr.Ne, Expr.Col (col_of "Child" "amount"), Expr.int (-1))
  in
  (match Database.delete db "Child" ~where:where2 () with
  | Ok n -> Alcotest.(check int) "NULL amount row kept (unknown)" 1 n
  | Error e -> Alcotest.fail (Eager_robust.Err.to_string e));
  Alcotest.(check int) "NULL row survives" 1 (Database.row_count db "Child")

let test_delete_fk_restrict () =
  let db = make_db () in
  Database.insert_exn db "Child" (ok_row ~parent:(Value.Int 1) ());
  (* parent 1 is referenced: deleting it must fail *)
  let where = Expr.eq (Expr.Col (col_of "Parent" "pk")) (Expr.int 1) in
  (match Database.delete db "Parent" ~where () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "referenced parent must not be deletable");
  (* parent 2 is free *)
  let where2 = Expr.eq (Expr.Col (col_of "Parent" "pk")) (Expr.int 2) in
  (match Database.delete db "Parent" ~where:where2 () with
  | Ok 1 -> ()
  | Ok n -> Alcotest.fail (Printf.sprintf "expected 1, got %d" n)
  | Error e -> Alcotest.fail (Eager_robust.Err.to_string e));
  (* after deleting the child, parent 1 becomes deletable *)
  (match Database.delete db "Child" ~where:Expr.etrue () with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Eager_robust.Err.to_string e));
  match Database.delete db "Parent" ~where () with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "parent should now be deletable"

let test_update_basic () =
  let db = make_db () in
  Database.insert_exn db "Child" (ok_row ~id:1 ~uniq:(Value.Int 1) ~amount:(Value.Int 5) ());
  Database.insert_exn db "Child" (ok_row ~id:2 ~uniq:(Value.Int 2) ~amount:(Value.Int 7) ());
  (* amount := amount + 10 where id = 1 *)
  let set =
    [ ("amount",
       Expr.Arith (Expr.Add, Expr.Col (col_of "Child" "amount"), Expr.int 10)) ]
  in
  let where = Expr.eq (Expr.Col (col_of "Child" "id")) (Expr.int 1) in
  (match Database.update db "Child" ~set ~where () with
  | Ok n -> Alcotest.(check int) "one updated" 1 n
  | Error e -> Alcotest.fail (Eager_robust.Err.to_string e));
  let h = Database.heap db "Child" in
  let amount_of id =
    let schema = Heap.schema h in
    let idi = Schema.index_of schema (col_of "Child" "id") in
    let ida = Schema.index_of schema (col_of "Child" "amount") in
    let r =
      List.find (fun r -> Value.null_eq r.(idi) (Value.Int id)) (Heap.to_list h)
    in
    r.(ida)
  in
  Alcotest.(check bool) "updated to 15" true (Value.null_eq (amount_of 1) (Value.Int 15));
  Alcotest.(check bool) "other row untouched" true
    (Value.null_eq (amount_of 2) (Value.Int 7))

let test_update_constraint_enforcement () =
  let db = make_db () in
  Database.insert_exn db "Child" (ok_row ~id:1 ~uniq:(Value.Int 1) ());
  Database.insert_exn db "Child" (ok_row ~id:2 ~uniq:(Value.Int 2) ());
  let upd set where = Database.update db "Child" ~set ~where () in
  let id_eq n = Expr.eq (Expr.Col (col_of "Child" "id")) (Expr.int n) in
  (* CHECK violated *)
  (match upd [ ("amount", Expr.int 500) ] (id_eq 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "CHECK must reject 500");
  (* NOT NULL violated *)
  (match upd [ ("must", Expr.Const Value.Null) ] (id_eq 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "NOT NULL must reject");
  (* key collision *)
  (match upd [ ("id", Expr.int 2) ] (id_eq 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate PK must reject");
  (* FK violated *)
  (match upd [ ("parent", Expr.int 999) ] (id_eq 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown parent must reject");
  (* type violated *)
  (match upd [ ("amount", Expr.str "oops") ] (id_eq 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "type error must reject");
  (* a failing update leaves the table unchanged *)
  Alcotest.(check int) "no partial effects" 2 (Database.row_count db "Child")

let test_update_incoming_fk () =
  let db = make_db () in
  Database.insert_exn db "Child" (ok_row ~parent:(Value.Int 1) ());
  (* changing the referenced key away must fail... *)
  let set = [ ("pk", Expr.int 77) ] in
  let where = Expr.eq (Expr.Col (col_of "Parent" "pk")) (Expr.int 1) in
  (match Database.update db "Parent" ~set ~where () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "referenced key change must be rejected");
  (* ...but changing an unreferenced one is fine *)
  let where2 = Expr.eq (Expr.Col (col_of "Parent" "pk")) (Expr.int 2) in
  match Database.update db "Parent" ~set:[ ("pk", Expr.int 88) ] ~where:where2 () with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "unreferenced key change should work"

let test_key_index_rebuild_after_delete () =
  let db = make_db () in
  Database.insert_exn db "Child" (ok_row ~id:1 ~uniq:(Value.Int 1) ());
  let where = Expr.eq (Expr.Col (col_of "Child" "id")) (Expr.int 1) in
  (match Database.delete db "Child" ~where () with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "delete failed");
  (* the key index must have been invalidated: re-inserting id 1 works *)
  Alcotest.(check bool) "re-insert after delete" true
    (Result.is_ok (Database.insert db "Child" (ok_row ~id:1 ~uniq:(Value.Int 1) ())))

(* ---------------- multi-row INSERT rollback ---------------- *)

(* A multi-row INSERT whose k-th row is refused is rolled back by
   truncation.  The table before the load has 1020 rows, so on RAM the
   six rows that land cross the 1024-row chunk boundary, and a snapshot
   taken just before the load has frozen the tail the cut falls into. *)
let tiny_pool =
  { Database.pool_pages = Some 4; page_size = 128; spill_dir = None }

let test_rollback ?storage fail () =
  let db = make_db ?storage () in
  Fun.protect
    ~finally:(fun () ->
      Fault.reset ();
      Database.close_storage db)
    (fun () ->
      (match
         Database.create_index db ~name:"child_by_parent" ~table:"Child"
           ~cols:[ "parent" ]
       with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      let row id parent = ok_row ~id ~uniq:(Value.Int id) ~parent:(Value.Int parent) () in
      Database.load db "Child" (List.init 1000 (fun i -> row i (1 + (i mod 2))));
      (* statistics collected at 1000 rows and reused at 1020: a forced
         recollection would move [collected_at] *)
      ignore (Database.stats db "Child");
      Database.load db "Child" (List.init 20 (fun i -> row (1000 + i) 1));
      let def =
        Option.get (Database.find_equality_index db ~table:"Child" ~col:"parent")
      in
      let parent2 () = Database.index_lookup db def [ Value.Int 2 ] in
      Alcotest.(check int) "parent-2 rows before" 500 (List.length (parent2 ()));
      let h = Database.heap db "Child" in
      let before = Heap.to_list h in
      let snap = Database.snapshot db in
      let c = Heap.cursor h in
      let k = 7 in
      let landed = List.init (k - 1) (fun j -> row (2000 + j) 2) in
      let kth =
        match fail with
        | `Duplicate_key -> row 2000 2
        | `Missing_fk -> row 3000 99
        | `Fault ->
            Fault.arm_nth "heap.append" k;
            row 3000 2
      in
      (match Database.load_result db "Child" (landed @ [ kth ]) with
      | Ok () -> Alcotest.fail "the load must be refused"
      | Error _ -> ());
      Fault.reset ();
      Alcotest.(check int) "length restored" 1020 (Heap.length h);
      Alcotest.(check bool) "rows restored" true
        (List.equal Row.equal before (Heap.to_list h));
      Alcotest.(check bool) "no rolled-back row in the secondary index" true
        (List.for_all
           (fun r -> List.exists (Row.equal r) before)
           (parent2 ())
        && List.length (parent2 ()) = 500);
      Alcotest.(check bool) "a cursor opened before the load raises" true
        (match Heap.cursor_next c with
        | _ -> false
        | exception Invalid_argument _ -> true);
      Alcotest.(check int) "statistics entry kept" 1000
        (Stats.collected_at (Database.stats db "Child"));
      Alcotest.(check int) "the snapshot keeps its rows" 1020
        (Database.row_count snap "Child");
      (* a stale key index would refuse this as a duplicate *)
      (match Database.insert db "Child" (row 2000 2) with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Err.to_string e));
      Alcotest.(check int) "the re-inserted row is indexed once" 501
        (List.length (parent2 ())))

let rollback_cases =
  List.concat_map
    (fun (backing, storage) ->
      List.map
        (fun (what, fail) ->
          Alcotest.test_case
            (Printf.sprintf "%s rolled back (%s)" what backing)
            `Quick
            (test_rollback ?storage fail))
        [
          ("duplicate key", `Duplicate_key);
          ("missing foreign key", `Missing_fk);
          ("heap.append fault", `Fault);
        ])
    [ ("RAM", None); ("4-page pool", Some tiny_pool) ]

(* ---------------- secondary indexes ---------------- *)

let test_secondary_index () =
  let db = make_db () in
  (match Database.create_index db ~name:"child_by_parent" ~table:"Child"
           ~cols:[ "parent" ] with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Database.insert_exn db "Child" (ok_row ~id:1 ~uniq:(Value.Int 1) ~parent:(Value.Int 1) ());
  Database.insert_exn db "Child" (ok_row ~id:2 ~uniq:(Value.Int 2) ~parent:(Value.Int 1) ());
  Database.insert_exn db "Child" (ok_row ~id:3 ~uniq:(Value.Int 3) ~parent:(Value.Int 2) ());
  Database.insert_exn db "Child" (ok_row ~id:4 ~uniq:(Value.Int 4) ~parent:Value.Null ());
  let def =
    Option.get (Database.find_equality_index db ~table:"Child" ~col:"parent")
  in
  Alcotest.(check int) "two rows for parent 1" 2
    (List.length (Database.index_lookup db def [ Value.Int 1 ]));
  Alcotest.(check int) "one row for parent 2" 1
    (List.length (Database.index_lookup db def [ Value.Int 2 ]));
  Alcotest.(check int) "nothing for parent 9" 0
    (List.length (Database.index_lookup db def [ Value.Int 9 ]));
  (* NULL lookups find nothing, and NULL keys are not indexed *)
  Alcotest.(check int) "NULL finds nothing" 0
    (List.length (Database.index_lookup db def [ Value.Null ]));
  (* index tracks later inserts *)
  Database.insert_exn db "Child" (ok_row ~id:5 ~uniq:(Value.Int 5) ~parent:(Value.Int 2) ());
  Alcotest.(check int) "insert visible" 2
    (List.length (Database.index_lookup db def [ Value.Int 2 ]));
  (* ... and rebuilds after a delete *)
  let where = Expr.eq (Expr.Col (Colref.make "Child" "id")) (Expr.int 2) in
  (match Database.delete db "Child" ~where () with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "delete failed");
  Alcotest.(check int) "delete visible" 1
    (List.length (Database.index_lookup db def [ Value.Int 1 ]));
  (* errors *)
  Alcotest.(check bool) "duplicate index name" true
    (Result.is_error
       (Database.create_index db ~name:"child_by_parent" ~table:"Child"
          ~cols:[ "id" ]));
  Alcotest.(check bool) "unknown column" true
    (Result.is_error
       (Database.create_index db ~name:"i2" ~table:"Child" ~cols:[ "zzz" ]))

let () =
  Alcotest.run "storage"
    [
      ( "heap",
        [
          Alcotest.test_case "basics" `Quick test_heap_basics;
          Alcotest.test_case "growth" `Quick test_heap_growth;
          Alcotest.test_case "arity check" `Quick test_heap_arity_check;
          Alcotest.test_case "truncate" `Quick test_truncate_basics;
          QCheck_alcotest.to_alcotest prop_heap_versions_ram;
          QCheck_alcotest.to_alcotest prop_heap_versions_paged;
        ] );
      ( "pages",
        [
          Alcotest.test_case "codec round-trip" `Quick test_page_roundtrip;
          Alcotest.test_case "every byte of corruption detected" `Quick
            test_corruption_every_byte;
          Alcotest.test_case "pinned pages never evicted" `Quick
            test_pinned_never_evicted;
          Alcotest.test_case "LRU replacement and reservations" `Quick
            test_lru_replacement;
        ] );
      ( "stats",
        [
          Alcotest.test_case "collect" `Quick test_stats;
          Alcotest.test_case "histograms" `Quick test_histogram;
          Alcotest.test_case "no histogram for strings" `Quick
            test_histogram_absent_for_strings;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "clean insert" `Quick test_insert_ok;
          Alcotest.test_case "primary key" `Quick test_primary_key;
          Alcotest.test_case "UNIQUE with NULLs" `Quick test_unique_null_semantics;
          Alcotest.test_case "NOT NULL" `Quick test_not_null;
          Alcotest.test_case "CHECK and domains" `Quick test_check_constraints;
          Alcotest.test_case "foreign keys" `Quick test_foreign_key;
          Alcotest.test_case "types and arity" `Quick test_type_checking;
          Alcotest.test_case "stats cache" `Quick test_stats_cache;
          Alcotest.test_case "stats cache: reused within drift" `Quick
            test_stats_within_drift;
          Alcotest.test_case "stats cache: recollected past drift" `Quick
            test_stats_past_drift;
          Alcotest.test_case "stats cache: DELETE and UPDATE recollect" `Quick
            test_stats_compaction_recollects;
          Alcotest.test_case "stats cache: drop and recreate" `Quick
            test_stats_drop_recreate;
          Alcotest.test_case "stats cache: shared across versions" `Quick
            test_stats_shared_across_versions;
        ] );
      ( "dml",
        [
          Alcotest.test_case "DELETE semantics" `Quick test_delete;
          Alcotest.test_case "DELETE is FK-restricted" `Quick
            test_delete_fk_restrict;
          Alcotest.test_case "UPDATE basics" `Quick test_update_basic;
          Alcotest.test_case "UPDATE enforcement" `Quick
            test_update_constraint_enforcement;
          Alcotest.test_case "UPDATE incoming FKs" `Quick test_update_incoming_fk;
          Alcotest.test_case "key index rebuild" `Quick
            test_key_index_rebuild_after_delete;
        ] );
      ("rollback", rollback_cases);
      ( "indexes",
        [ Alcotest.test_case "secondary index" `Quick test_secondary_index ] );
    ]
