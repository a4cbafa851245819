open Eager_value
open Eager_schema
open Eager_expr
open Eager_catalog
open Eager_robust

(* An incremental index over one table: key values -> one binding per
   row whose key columns are all non-NULL, with a payload per binding
   (unit for key indexes, the row for secondary ones).  Heaps are
   append-only between compactions, so [rows_seen] records how many rows
   have been folded in, and a change in the heap's compaction counter
   forces a full rebuild.  A truncation unwinds the bindings past the
   cut (see [unwind]). *)
type 'a index = {
  idxs : int array; (* key column positions *)
  mutable rows_seen : int;
  mutable compactions_seen : int;
  tbl : (Value.t list, 'a) Hashtbl.t;
}

let new_index idxs =
  { idxs; rows_seen = 0; compactions_seen = -1; tbl = Hashtbl.create 256 }

(* keys containing NULL never participate in matching *)
let index_key idx row =
  if Array.exists (fun j -> Value.is_null row.(j)) idx.idxs then None
  else Some (Row.key_on idx.idxs row)

let refresh h idx payload =
  if idx.compactions_seen <> Heap.compactions h then begin
    Hashtbl.reset idx.tbl;
    idx.rows_seen <- 0;
    idx.compactions_seen <- Heap.compactions h
  end;
  if idx.rows_seen < Heap.length h then begin
    for i = idx.rows_seen to Heap.length h - 1 do
      let row = Heap.get h i in
      Option.iter (fun k -> Hashtbl.add idx.tbl k (payload row)) (index_key idx row)
    done;
    idx.rows_seen <- Heap.length h
  end

(* Forget rows [n..rows_seen-1] before the heap is truncated to [n]:
   their bindings are removed newest first, because [Hashtbl.remove]
   drops the newest binding of a key, and an older row may share it. *)
let unwind h n idx =
  if idx.compactions_seen = Heap.compactions h && idx.rows_seen > n then begin
    for i = idx.rows_seen - 1 downto n do
      Option.iter (Hashtbl.remove idx.tbl) (index_key idx (Heap.get h i))
    done;
    idx.rows_seen <- n
  end

(* Paged storage: when a database is created with a [storage_config],
   every table heap lives on fixed-size pages behind one shared buffer
   pool, and a second (scratch) pager holds the executor's spill runs.
   Pager files are run-scoped caches — durability stays with the WAL and
   snapshots, so recovery rebuilds pages from the recovered rows instead
   of trusting a stale page file. *)
type storage_config = {
  pool_pages : int option; (* buffer-pool capacity; None = unbounded *)
  page_size : int;
  spill_dir : string option; (* None = in-memory pagers *)
}

let default_storage = { pool_pages = None; page_size = 4096; spill_dir = None }

type storage_state = {
  scfg : storage_config;
  pool : Buffer_pool.t;
  data_pager : Pager.t;
  scratch_pager : Pager.t;
}

(* Per-table statistics, one store per database, shared by reference
   between the live instance, every snapshot and every reader view.
   Keyed by [Heap.id], which a snapshot's heap shares with its table;
   each entry is the compaction count the statistics were collected at
   and the statistics themselves.  The mutex guards the table only —
   collection runs outside it (see [stats]). *)
type stats_store = {
  stats_mu : Mutex.t;
  entries : (int, int * Stats.t) Hashtbl.t;
}

type t = {
  mutable cat : Catalog.t;
  heaps : (string, Heap.t) Hashtbl.t;
  stats_store : stats_store;
  (* (table, key columns) -> key values; used for key and FK checks *)
  key_indexes : (string * string list, unit index) Hashtbl.t;
  sec_indexes : (string, Row.t index) Hashtbl.t; (* by index name *)
  storage : storage_state option;
}

let open_storage (cfg : storage_config) =
  let mk name =
    match cfg.spill_dir with
    | None -> Pager.create_mem ~page_size:cfg.page_size ()
    | Some dir ->
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let path =
          Filename.concat dir
            (Printf.sprintf "%s.%d.%d.pages" name (Unix.getpid ())
               (Hashtbl.hash (Unix.gettimeofday ()) land 0xffffff))
        in
        Pager.create_file ~page_size:cfg.page_size path
  in
  {
    scfg = cfg;
    pool = Buffer_pool.create ?cap:cfg.pool_pages ();
    data_pager = mk "data";
    scratch_pager = mk "spill";
  }

let create ?storage () =
  {
    cat = Catalog.empty;
    heaps = Hashtbl.create 16;
    stats_store = { stats_mu = Mutex.create (); entries = Hashtbl.create 16 };
    key_indexes = Hashtbl.create 16;
    sec_indexes = Hashtbl.create 16;
    storage = Option.map open_storage storage;
  }

let catalog t = t.cat
let storage_config t = Option.map (fun s -> s.scfg) t.storage
let is_paged t = Option.is_some t.storage
let buffer_pool t = Option.map (fun s -> s.pool) t.storage
let scratch t = Option.map (fun s -> (s.pool, s.scratch_pager)) t.storage
let pool_stats t = Option.map (fun s -> Buffer_pool.stats s.pool) t.storage

(* flush-before-checkpoint barrier: every dirty page reaches its pager
   (and the pager its disk) before a snapshot is cut *)
let flush t =
  match t.storage with None -> () | Some s -> Buffer_pool.flush_all s.pool

(* rows per page, estimated from the page payload capacity at a nominal
   encoded row width — the IO cost model's translation from cardinality
   estimates to page counts *)
let nominal_row_bytes = 48

let page_rows t =
  match t.storage with
  | None -> max 1 (Page.capacity ~page_size:default_storage.page_size
                   / nominal_row_bytes)
  | Some s ->
      max 1
        (Page.capacity ~page_size:s.scfg.page_size / nominal_row_bytes)

let close_storage t =
  match t.storage with
  | None -> ()
  | Some s ->
      Pager.close s.data_pager;
      Pager.close s.scratch_pager

(* A frozen copy for MVCC-lite readers: the catalog value is captured
   (it is updated functionally, so sharing is safe), every heap is
   copied (rows shared — they are immutable engine-wide), the key and
   secondary indexes start empty, and the statistics store is shared.
   Later mutations of the live database never show through the
   snapshot, and vice versa. *)
let snapshot t =
  let heaps = Hashtbl.create (Hashtbl.length t.heaps) in
  Hashtbl.iter (fun name h -> Hashtbl.replace heaps name (Heap.copy h)) t.heaps;
  {
    cat = t.cat;
    heaps;
    stats_store = t.stats_store;
    key_indexes = Hashtbl.create 16;
    sec_indexes = Hashtbl.create 16;
    storage = t.storage;
  }

(* A reader's private view over a frozen snapshot: heaps are shared with
   the snapshot (nobody mutates a snapshot, so sharing the row storage
   is safe) but the key and secondary indexes are private, because two
   reader threads filling the same hashtable concurrently could corrupt
   it.  The statistics store is shared: it has its own lock.
   O(#tables), so handing one to every statement is cheap. *)
let reader_view t =
  {
    cat = t.cat;
    heaps = Hashtbl.copy t.heaps;
    stats_store = t.stats_store;
    key_indexes = Hashtbl.create 16;
    sec_indexes = Hashtbl.create 16;
    storage = t.storage;
  }

(* Drop every cached derived structure for [tname]: statistics (keyed by
   the heap's id), key indexes (keyed by table name) and secondary
   indexes (keyed by index name, resolved through the catalog).
   Compaction counters alone cannot catch a drop/recreate — a fresh heap
   restarts at compaction 0, which matches what a stale index last saw. *)
let evict_derived t tname =
  Option.iter
    (fun h ->
      let st = t.stats_store in
      Mutex.protect st.stats_mu (fun () ->
          Hashtbl.remove st.entries (Heap.id h)))
    (Hashtbl.find_opt t.heaps tname);
  Hashtbl.filter_map_inplace
    (fun (tab, _) idx -> if String.equal tab tname then None else Some idx)
    t.key_indexes;
  List.iter
    (fun (i : Catalog.index_def) -> Hashtbl.remove t.sec_indexes i.Catalog.iname)
    (Catalog.indexes_on t.cat tname)

let create_table t td =
  (* recreate path: a table of the same name may have lived here before *)
  evict_derived t td.Table_def.tname;
  t.cat <- Catalog.add_table t.cat td;
  let h =
    match t.storage with
    | None -> Heap.create (Table_def.schema td)
    | Some s ->
        Heap.create_paged ~pool:s.pool ~pager:s.data_pager
          (Table_def.schema td)
  in
  Hashtbl.replace t.heaps td.Table_def.tname h

let drop_table t tname =
  match Catalog.find_table t.cat tname with
  | None -> Error (Err.catalog "unknown table %s" tname)
  | Some _ ->
      evict_derived t tname;
      t.cat <- Catalog.remove_table t.cat tname;
      Hashtbl.remove t.heaps tname;
      Ok ()

let create_domain t d = t.cat <- Catalog.add_domain t.cat d
let create_view t v = t.cat <- Catalog.add_view t.cat v

let heap_opt t name = Hashtbl.find_opt t.heaps name

let heap t name =
  match heap_opt t name with
  | Some h -> h
  | None -> Err.failf Err.Storage "unknown table %s" name

let key_index t tname cols =
  let h = heap t tname in
  let key = (tname, List.map Colref.to_string cols) in
  let idx =
    match Hashtbl.find_opt t.key_indexes key with
    | Some idx -> idx
    | None ->
        let idx = new_index (Schema.indices (Heap.schema h) cols) in
        Hashtbl.replace t.key_indexes key idx;
        idx
  in
  refresh h idx (fun _ -> ());
  idx

let check_types td values =
  let rec go cols vs =
    match cols, vs with
    | [], [] -> Ok ()
    | (c : Table_def.column_def) :: cols, v :: vs ->
        if Ctype.accepts c.Table_def.ctype v then go cols vs
        else
          Error
            (Printf.sprintf "column %s: value %s does not fit type %s"
               c.Table_def.cname (Value.to_string v)
               (Ctype.to_string c.Table_def.ctype))
    | _ -> Error "arity mismatch"
  in
  go td.Table_def.columns values

let insert_impl t tname values =
  let ( let* ) = Result.bind in
  match Catalog.find_table t.cat tname with
  | None -> Error (Printf.sprintf "unknown table %s" tname)
  | Some td ->
      let* () = check_types td values in
      let h = heap t tname in
      let schema = Heap.schema h in
      let row = Array.of_list values in
      (* NOT NULL: the row must provide a value *)
      let* () =
        List.fold_left
          (fun acc cname ->
            let* () = acc in
            let i = Schema.index_of schema (Colref.make tname cname) in
            if Value.is_null row.(i) then
              Error (Printf.sprintf "column %s cannot be NULL" cname)
            else Ok ())
          (Ok ()) (Table_def.not_null td)
      in
      (* CHECK and domain constraints: SQL2 enforces "not false" — a check
         that evaluates to unknown (via NULL) is satisfied *)
      let checks = Catalog.check_predicates t.cat ~rel:tname td in
      let* () =
        List.fold_left
          (fun acc e ->
            let* () = acc in
            if Tbool.possible (Expr.eval_pred schema e row) then Ok ()
            else Error (Printf.sprintf "constraint violated: %s" (Expr.to_string e)))
          (Ok ()) checks
      in
      (* key uniqueness *)
      let* () =
        List.fold_left
          (fun acc key_cols ->
            let* () = acc in
            let cols = List.map (Colref.make tname) key_cols in
            let idxs = Schema.indices schema cols in
            let has_null = Array.exists (fun i -> Value.is_null row.(i)) idxs in
            if has_null then Ok () (* UNIQUE: NULL ≠ NULL; PK nulls already rejected *)
            else
              let idx = key_index t tname cols in
              let key = Row.key_on idxs row in
              if Hashtbl.mem idx.tbl key then
                Error
                  (Printf.sprintf "duplicate key (%s) for table %s"
                     (String.concat ", " key_cols) tname)
              else Ok ())
          (Ok ()) (Table_def.keys td)
      in
      (* referential integrity *)
      let* () =
        List.fold_left
          (fun acc c ->
            let* () = acc in
            match c with
            | Constr.Foreign_key { cols; ref_table; ref_cols } ->
                let idxs =
                  Schema.indices schema (List.map (Colref.make tname) cols)
                in
                if Array.exists (fun i -> Value.is_null row.(i)) idxs then Ok ()
                else begin
                  match Catalog.find_table t.cat ref_table with
                  | None -> Error (Printf.sprintf "unknown table %s" ref_table)
                  | Some _ ->
                      let ref_colrefs = List.map (Colref.make ref_table) ref_cols in
                      let ridx = key_index t ref_table ref_colrefs in
                      let key = Row.key_on idxs row in
                      if Hashtbl.mem ridx.tbl key then Ok ()
                      else
                        Error
                          (Printf.sprintf
                             "foreign key violation: %s not present in %s"
                             (Row.to_string (Row.project idxs row))
                             ref_table)
                end
            | _ -> Ok ())
          (Ok ()) td.Table_def.constraints
      in
      (* every check passed; the fault point fires before the physical
         append so an aborted insert leaves the heap untouched *)
      Fault.trip "storage.write";
      Heap.insert h row;
      Ok ()

(* typed-error primary: validation failures are [Storage] errors, and
   injected faults or internal raises never escape as exceptions *)
let insert t tname values =
  match Err.protect ~kind:Err.Storage (fun () -> insert_impl t tname values) with
  | Ok (Ok ()) -> Ok ()
  | Ok (Error msg) -> Error (Err.make Err.Storage msg)
  | Error e -> Error e

let insert_result = insert

let insert_exn t tname values =
  match insert t tname values with
  | Ok () -> ()
  | Error e ->
      Err.raise_ (Err.add_context (Printf.sprintf "insert into %s" tname) e)

(* Statement-atomic bulk insert: rows are validated and appended one at a
   time (so rows within the batch can satisfy each other's constraints),
   but a refusal anywhere truncates the heap back to its length before
   the first row, after unwinding the rows that landed from every
   incremental index over the table.  O(rows landed): the table is never
   copied, and its statistics entry stays valid (no compaction). *)
let load_result t tname rows =
  match Catalog.find_table t.cat tname with
  | None -> Error (Err.storage "unknown table %s" tname)
  | Some _ ->
      let h = heap t tname in
      let n = Heap.length h in
      let rollback () =
        Hashtbl.iter
          (fun (tab, _) idx -> if String.equal tab tname then unwind h n idx)
          t.key_indexes;
        List.iter
          (fun (d : Catalog.index_def) ->
            Option.iter (unwind h n)
              (Hashtbl.find_opt t.sec_indexes d.Catalog.iname))
          (Catalog.indexes_on t.cat tname);
        Heap.truncate h n
      in
      let rec go landed = function
        | [] -> Ok ()
        | r :: rest -> (
            match insert t tname r with
            | Ok () -> go (landed + 1) rest
            | Error e ->
                rollback ();
                Error
                  (Err.add_context
                     (Printf.sprintf "load into %s (row %d of %d)" tname
                        (landed + 1) (List.length rows))
                     e))
      in
      go 0 rows

let load t tname rows =
  match load_result t tname rows with
  | Ok () -> ()
  | Error e -> Err.raise_ e

(* ------------------------------------------------------------------ *)
(* secondary indexes *)

let create_index t ~name ~table ~cols =
  match Catalog.add_index t.cat { Catalog.iname = name; itable = table; icols = cols } with
  | cat ->
      t.cat <- cat;
      Hashtbl.remove t.sec_indexes name;
      Ok ()
  | exception Failure msg -> Error msg

let find_equality_index t ~table ~col =
  Catalog.indexes_on t.cat table
  |> List.find_opt (fun (i : Catalog.index_def) -> i.Catalog.icols = [ col ])

let index_lookup t (def : Catalog.index_def) values =
  if List.exists Value.is_null values then []
  else begin
    let h = heap t def.Catalog.itable in
    let idx =
      match Hashtbl.find_opt t.sec_indexes def.Catalog.iname with
      | Some idx -> idx
      | None ->
          let idx =
            new_index
              (Schema.indices (Heap.schema h)
                 (List.map (Colref.make def.Catalog.itable) def.Catalog.icols))
          in
          Hashtbl.replace t.sec_indexes def.Catalog.iname idx;
          idx
    in
    refresh h idx Fun.id;
    (* normalise via Row.key_on so Int/Float keys match the stored form *)
    let key =
      Row.key_on
        (Array.init (List.length values) Fun.id)
        (Array.of_list values)
    in
    Hashtbl.find_all idx.tbl key
  end

(* ------------------------------------------------------------------ *)
(* DELETE and UPDATE — enforced with NO ACTION referential semantics *)

(* every FK constraint in the catalog that references [tname] *)
let incoming_fks t tname =
  List.concat_map
    (fun (td : Table_def.t) ->
      List.filter_map
        (fun c ->
          match c with
          | Constr.Foreign_key { cols; ref_table; ref_cols }
            when String.equal ref_table tname ->
              Some (td, cols, ref_cols)
          | _ -> None)
        td.Table_def.constraints)
    (Catalog.tables t.cat)

(* do all non-NULL referencing keys among [rows] appear in [available]?
   [rows] is passed explicitly so self-referencing tables can be checked
   against their prospective state. *)
let check_incoming t (referencer : Table_def.t) cols ~rows available =
  let schema = Heap.schema (heap t referencer.Table_def.tname) in
  let idxs =
    Schema.indices schema
      (List.map (Colref.make referencer.Table_def.tname) cols)
  in
  if
    List.for_all
      (fun row ->
        Array.exists (fun i -> Value.is_null row.(i)) idxs
        || Hashtbl.mem available (Row.key_on idxs row))
      rows
  then Ok ()
  else
    Error
      (Printf.sprintf "rows in %s still reference deleted or changed keys"
         referencer.Table_def.tname)

let key_values_of schema cols rows =
  let tbl = Hashtbl.create 64 in
  let idxs = Schema.indices schema cols in
  List.iter
    (fun row ->
      if Array.for_all (fun i -> not (Value.is_null row.(i))) idxs then
        Hashtbl.replace tbl (Row.key_on idxs row) ())
    rows;
  tbl

let delete_impl t tname ?(params = Expr.no_params) ~where () =
  let ( let* ) = Result.bind in
  match Catalog.find_table t.cat tname with
  | None -> Error (Printf.sprintf "unknown table %s" tname)
  | Some _ ->
      let h = heap t tname in
      let schema = Heap.schema h in
      let pred = Expr.compile_pred ~params schema where in
      let doomed row = Tbool.holds (pred row) in
      let remaining =
        List.filter
          (fun r -> not (doomed r))
          (Heap.to_list h (* table-scan-ok: DELETE keeps the survivors *))
      in
      (* referential integrity: NO ACTION — every incoming FK must still
         resolve against the remaining rows *)
      let* () =
        List.fold_left
          (fun acc ((referencer : Table_def.t), cols, ref_cols) ->
            let* () = acc in
            let available =
              key_values_of schema
                (List.map (Colref.make tname) ref_cols)
                remaining
            in
            let rows =
              if String.equal referencer.Table_def.tname tname then remaining
              else
                Heap.to_list (* table-scan-ok: NO ACTION checks every referrer *)
                  (heap t referencer.Table_def.tname)
            in
            check_incoming t referencer cols ~rows available)
          (Ok ()) (incoming_fks t tname)
      in
      Fault.trip "storage.write";
      Ok (Heap.delete_where doomed h)

let delete t tname ?params ~where () =
  match
    Err.protect ~kind:Err.Storage (fun () -> delete_impl t tname ?params ~where ())
  with
  | Ok (Ok n) -> Ok n
  | Ok (Error msg) -> Error (Err.make Err.Storage msg)
  | Error e -> Error e

let update_impl t tname ?(params = Expr.no_params) ~set ~where () =
  let ( let* ) = Result.bind in
  match Catalog.find_table t.cat tname with
  | None -> Error (Printf.sprintf "unknown table %s" tname)
  | Some td ->
      let h = heap t tname in
      let schema = Heap.schema h in
      let pred = Expr.compile_pred ~params schema where in
      (* compile the assignments against the OLD row *)
      let* assigns =
        List.fold_left
          (fun acc (cname, e) ->
            let* acc = acc in
            match Schema.index_of_opt schema (Colref.make tname cname) with
            | None -> Error (Printf.sprintf "unknown column %s" cname)
            | Some i -> Ok ((i, Expr.compile ~params schema e) :: acc))
          (Ok []) set
      in
      let changed = ref 0 in
      let new_rows =
        List.map
          (fun row ->
            if Tbool.holds (pred row) then begin
              incr changed;
              let nr = Array.copy row in
              List.iter (fun (i, f) -> nr.(i) <- f row) assigns;
              nr
            end
            else row)
          (Heap.to_list h (* table-scan-ok: UPDATE rewrites the table *))
      in
      (* validate the prospective state: per-row constraints *)
      let checks = Catalog.check_predicates t.cat ~rel:tname td in
      let not_null = Table_def.not_null td in
      let* () =
        List.fold_left
          (fun acc row ->
            let* () = acc in
            let* () =
              check_types td (Array.to_list row)
            in
            let* () =
              List.fold_left
                (fun acc cname ->
                  let* () = acc in
                  let i = Schema.index_of schema (Colref.make tname cname) in
                  if Value.is_null row.(i) then
                    Error (Printf.sprintf "column %s cannot be NULL" cname)
                  else Ok ())
                (Ok ()) not_null
            in
            List.fold_left
              (fun acc e ->
                let* () = acc in
                if Tbool.possible (Expr.eval_pred schema e row) then Ok ()
                else
                  Error
                    (Printf.sprintf "constraint violated: %s" (Expr.to_string e)))
              (Ok ()) checks)
          (Ok ()) new_rows
      in
      (* key uniqueness over the whole prospective state *)
      let* () =
        List.fold_left
          (fun acc key_cols ->
            let* () = acc in
            let idxs =
              Schema.indices schema (List.map (Colref.make tname) key_cols)
            in
            let seen = Hashtbl.create 64 in
            List.fold_left
              (fun acc row ->
                let* () = acc in
                if Array.exists (fun i -> Value.is_null row.(i)) idxs then Ok ()
                else
                  let key = Row.key_on idxs row in
                  if Hashtbl.mem seen key then
                    Error
                      (Printf.sprintf "duplicate key (%s) for table %s"
                         (String.concat ", " key_cols) tname)
                  else begin
                    Hashtbl.add seen key ();
                    Ok ()
                  end)
              (Ok ()) new_rows)
          (Ok ()) (Table_def.keys td)
      in
      (* outgoing foreign keys of the updated rows *)
      let* () =
        List.fold_left
          (fun acc c ->
            let* () = acc in
            match c with
            | Constr.Foreign_key { cols; ref_table; ref_cols } ->
                let idxs =
                  Schema.indices schema (List.map (Colref.make tname) cols)
                in
                let available =
                  if String.equal ref_table tname then
                    (* self-reference: validate against the prospective state *)
                    key_values_of schema
                      (List.map (Colref.make tname) ref_cols)
                      new_rows
                  else
                    (key_index t ref_table
                       (List.map (Colref.make ref_table) ref_cols))
                      .tbl
                in
                List.fold_left
                  (fun acc row ->
                    let* () = acc in
                    if Array.exists (fun i -> Value.is_null row.(i)) idxs then
                      Ok ()
                    else if Hashtbl.mem available (Row.key_on idxs row) then
                      Ok ()
                    else
                      Error
                        (Printf.sprintf
                           "foreign key violation: %s not present in %s"
                           (Row.to_string (Row.project idxs row))
                           ref_table))
                  (Ok ()) new_rows
            | _ -> Ok ())
          (Ok ()) td.Table_def.constraints
      in
      (* incoming foreign keys must still resolve against the new state *)
      let* () =
        List.fold_left
          (fun acc ((referencer : Table_def.t), cols, ref_cols) ->
            let* () = acc in
            let available =
              key_values_of schema
                (List.map (Colref.make tname) ref_cols)
                new_rows
            in
            let rows =
              if String.equal referencer.Table_def.tname tname then new_rows
              else
                Heap.to_list (* table-scan-ok: NO ACTION checks every referrer *)
                  (heap t referencer.Table_def.tname)
            in
            check_incoming t referencer cols ~rows available)
          (Ok ()) (incoming_fks t tname)
      in
      (* all prospective-state checks passed: mutate in one step, with the
         fault point ahead of it so an abort is all-or-nothing *)
      Fault.trip "storage.write";
      Heap.replace_all h new_rows (* table-scan-ok: UPDATE rewrites the table *);
      Ok !changed

let update t tname ?params ~set ~where () =
  match
    Err.protect ~kind:Err.Storage (fun () ->
        update_impl t tname ?params ~set ~where ())
  with
  | Ok (Ok n) -> Ok n
  | Ok (Error msg) -> Error (Err.make Err.Storage msg)
  | Error e -> Error e

(* Statistics only steer costing, so an estimate a little behind the
   table costs as well as a current one.  An entry is reused while the
   table has not been compacted since and its row count has moved by at
   most 1/[drift_denominator] of the rows it was collected at; the row
   count handed out is always exact.  Otherwise the caller's own heap is
   collected — outside the store's lock, and never by a writer (writes
   plan nothing), so a scan never blocks a commit — and published unless
   an entry from a later compaction got there first. *)
let drift_denominator = 8

let stats t tname =
  let h = heap t tname in
  let st = t.stats_store in
  let id = Heap.id h and rows = Heap.length h and comp = Heap.compactions h in
  let entry () = Hashtbl.find_opt st.entries id in
  match Mutex.protect st.stats_mu entry with
  | Some (c, s)
    when c = comp
         && abs (rows - Stats.collected_at s) * drift_denominator
            <= Stats.collected_at s ->
      Stats.with_rows s rows
  | _ ->
      let s = Stats.collect h in
      Mutex.protect st.stats_mu (fun () ->
          match entry () with
          | Some (c, _) when c > comp -> ()
          | _ -> Hashtbl.replace st.entries id (comp, s));
      s

let row_count t tname = Heap.length (heap t tname)
