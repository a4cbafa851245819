open Eager_value
open Eager_schema
open Eager_expr
open Eager_catalog
open Eager_storage
open Eager_robust

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* DDL generation *)

let type_sql (c : Table_def.column_def) =
  match c.Table_def.domain with
  | Some d -> d
  | None -> (
      match c.Table_def.ctype with
      | Ctype.Int -> "INTEGER"
      | Ctype.Float -> "FLOAT"
      | Ctype.String -> "VARCHAR(255)"
      | Ctype.Bool -> "BOOLEAN")

let ddl_of_domain (d : Catalog.domain_def) =
  let base =
    match d.Catalog.dtype with
    | Ctype.Int -> "INTEGER"
    | Ctype.Float -> "FLOAT"
    | Ctype.String -> "VARCHAR(255)"
    | Ctype.Bool -> "BOOLEAN"
  in
  match d.Catalog.dcheck with
  | None -> Printf.sprintf "CREATE DOMAIN %s %s;" d.Catalog.dname base
  | Some e ->
      Printf.sprintf "CREATE DOMAIN %s %s CHECK (%s);" d.Catalog.dname base
        (Expr.to_string e)

let ddl_of_table (td : Table_def.t) =
  let cols =
    List.map
      (fun (c : Table_def.column_def) ->
        Printf.sprintf "  %s %s" c.Table_def.cname (type_sql c))
      td.Table_def.columns
  in
  let constraints =
    List.map
      (fun c ->
        match c with
        | Constr.Primary_key k ->
            Printf.sprintf "  PRIMARY KEY (%s)" (String.concat ", " k)
        | Constr.Unique k ->
            Printf.sprintf "  UNIQUE (%s)" (String.concat ", " k)
        | Constr.Not_null col -> Printf.sprintf "  %s NOT NULL" col
        | Constr.Check e ->
            Printf.sprintf "  CHECK (%s)" (Expr.to_string e)
        | Constr.Foreign_key { cols; ref_table; ref_cols } ->
            Printf.sprintf "  FOREIGN KEY (%s) REFERENCES %s (%s)"
              (String.concat ", " cols) ref_table
              (String.concat ", " ref_cols))
      td.Table_def.constraints
  in
  (* NOT NULL is expressed as a column suffix in our grammar *)
  let not_null_cols =
    List.filter_map
      (function Constr.Not_null c -> Some c | _ -> None)
      td.Table_def.constraints
  in
  let cols =
    List.map2
      (fun line (c : Table_def.column_def) ->
        if List.mem c.Table_def.cname not_null_cols then line ^ " NOT NULL"
        else line)
      cols td.Table_def.columns
  in
  let constraints =
    List.filter
      (fun line ->
        (* drop the standalone NOT NULL lines now folded into columns *)
        not
          (List.exists
             (fun c -> line = Printf.sprintf "  %s NOT NULL" c)
             not_null_cols))
      constraints
  in
  Printf.sprintf "CREATE TABLE %s (\n%s);" td.Table_def.tname
    (String.concat ",\n" (cols @ constraints))

let ddl_of_view (v : Catalog.view_def) =
  Printf.sprintf "CREATE VIEW %s AS %s;" v.Catalog.vname v.Catalog.vsql

let ddl_of_index (i : Catalog.index_def) =
  Printf.sprintf "CREATE INDEX %s ON %s (%s);" i.Catalog.iname
    i.Catalog.itable
    (String.concat ", " i.Catalog.icols)

let ddl_of_database db =
  let cat = Database.catalog db in
  String.concat "\n"
    (List.map ddl_of_domain (Catalog.domains cat)
    @ List.map ddl_of_table (Catalog.tables cat)
    @ List.map ddl_of_view (Catalog.views cat)
    @ List.map ddl_of_index (Catalog.indexes cat))

(* ------------------------------------------------------------------ *)
(* CSV encoding *)

let encode_value = function
  | Value.Null -> "NULL"
  | Value.Int n -> string_of_int n
  | Value.Float f -> Printf.sprintf "%h" f
  | Value.Bool b -> if b then "TRUE" else "FALSE"
  | Value.Str s ->
      if String.contains s '\n' then
        Err.failf Err.Io "cannot persist a string containing a newline";
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '"';
      String.iter
        (fun c ->
          if c = '"' then Buffer.add_string buf "\"\""
          else Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"';
      Buffer.contents buf

let encode_row row =
  String.concat "," (Array.to_list (Array.map encode_value row))

(* split one CSV line into raw fields, honouring quotes *)
let split_fields line =
  let fields = ref [] in
  let buf = Buffer.create 16 in
  let n = String.length line in
  let rec go i in_quotes =
    if i >= n then begin
      fields := Buffer.contents buf :: !fields;
      Ok ()
    end
    else
      let c = line.[i] in
      if in_quotes then
        if c = '"' then
          if i + 1 < n && line.[i + 1] = '"' then begin
            Buffer.add_char buf '"';
            go (i + 2) true
          end
          else begin
            Buffer.add_char buf '"';
            go (i + 1) false
          end
        else begin
          Buffer.add_char buf c;
          go (i + 1) true
        end
      else if c = ',' then begin
        fields := Buffer.contents buf :: !fields;
        Buffer.clear buf;
        go (i + 1) false
      end
      else begin
        Buffer.add_char buf c;
        go (i + 1) (c = '"')
      end
  in
  let* () = go 0 false in
  Ok (List.rev !fields)

let decode_value raw : (Value.t, string) result =
  let n = String.length raw in
  if raw = "NULL" then Ok Value.Null
  else if raw = "TRUE" then Ok (Value.Bool true)
  else if raw = "FALSE" then Ok (Value.Bool false)
  else if n >= 2 && raw.[0] = '"' && raw.[n - 1] = '"' then
    Ok (Value.Str (String.sub raw 1 (n - 2)))
  else
    match int_of_string_opt raw with
    | Some i -> Ok (Value.Int i)
    | None -> (
        match float_of_string_opt raw with
        | Some f -> Ok (Value.Float f)
        | None -> Error (Printf.sprintf "cannot decode CSV field %S" raw))

(* ------------------------------------------------------------------ *)
(* Crash-safe snapshot persistence.

   The whole database is serialised into a single [snapshot.eagerdb]
   file: a version header, the DDL, one section per table, an [\[end\]]
   sentinel, and a trailing MD5 checksum line covering everything above
   it.  The save path is write-to-temp → fsync → atomic rename, so a
   crash (or injected fault) at any moment leaves either the previous
   snapshot or the new one — never a torn file that parses.  The load
   path refuses anything whose checksum does not verify, so a torn or
   corrupted file yields a typed [Error] and no half-loaded database. *)

let snapshot_file = "snapshot.eagerdb"
let snapshot_magic = "eagerdb snapshot v1"
let checksum_prefix = "#checksum:"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let snapshot_body ?(wal_lsn = 0) db =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf snapshot_magic;
  Buffer.add_char buf '\n';
  (* the WAL position this snapshot reflects: on recovery, log records
     with LSN <= this are already folded in and must not replay.  Written
     only for durable sessions so plain snapshots keep their old shape. *)
  if wal_lsn > 0 then
    Buffer.add_string buf (Printf.sprintf "[wal-lsn %d]\n" wal_lsn);
  Buffer.add_string buf "[schema]\n";
  Buffer.add_string buf (ddl_of_database db);
  Buffer.add_char buf '\n';
  List.iter
    (fun (td : Table_def.t) ->
      let h = Database.heap db td.Table_def.tname in
      Buffer.add_string buf
        (Printf.sprintf "[table %s]\n" td.Table_def.tname);
      Buffer.add_string buf (String.concat "," (Table_def.column_names td));
      Buffer.add_char buf '\n';
      Heap.iter
        (fun row ->
          Buffer.add_string buf (encode_row row);
          Buffer.add_char buf '\n')
        h)
    (Catalog.tables (Database.catalog db));
  Buffer.add_string buf "[end]\n";
  Buffer.contents buf

let save ?wal_lsn db ~dir =
  Err.protect ~kind:Err.Io (fun () ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let body = snapshot_body ?wal_lsn db in
      let content =
        body ^ checksum_prefix ^ Digest.to_hex (Digest.string body) ^ "\n"
      in
      let final = Filename.concat dir snapshot_file in
      let tmp = final ^ ".tmp" in
      let committed = ref false in
      Fun.protect
        ~finally:(fun () ->
          (* a failed attempt must not leave its temp file behind *)
          if (not !committed) && Sys.file_exists tmp then
            try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          let oc = open_out_bin tmp in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              (* the fault point sits mid-write: if it fires, the temp
                 file is torn — exactly what a real crash leaves *)
              let half = String.length content / 2 in
              output_substring oc content 0 half;
              Fault.trip "persist.write";
              output_substring oc content half (String.length content - half);
              flush oc;
              Unix.fsync (Unix.descr_of_out_channel oc));
          Fault.trip "persist.rename";
          Sys.rename tmp final;
          committed := true))

(* ------------------------------------------------------------------ *)
(* snapshot parsing *)

let verify_checksum content =
  (* the checksum line has a fixed shape: prefix + 32 hex chars + \n *)
  let tail_len = String.length checksum_prefix + 32 + 1 in
  let n = String.length content in
  if n < tail_len then Error (Err.io "snapshot torn: too short to carry a checksum")
  else
    let body = String.sub content 0 (n - tail_len) in
    let tail = String.sub content (n - tail_len) tail_len in
    if
      (not (String.length tail = tail_len))
      || (not (String.sub tail 0 (String.length checksum_prefix) = checksum_prefix))
      || tail.[tail_len - 1] <> '\n'
    then Error (Err.io "snapshot torn: missing checksum trailer")
    else
      let recorded = String.sub tail (String.length checksum_prefix) 32 in
      let actual = Digest.to_hex (Digest.string body) in
      if String.equal recorded actual then Ok body
      else
        Error
          (Err.io "snapshot rejected: checksum mismatch (stored %s, computed %s)"
             recorded actual)

(* split the verified body into the WAL position, the schema text and
   per-table row lines *)
let parse_sections body =
  let lines = String.split_on_char '\n' body in
  let* wal_lsn, lines =
    match lines with
    | magic :: l :: rest
      when String.equal magic snapshot_magic
           && String.length l > 9
           && String.sub l 0 9 = "[wal-lsn " -> (
        if l.[String.length l - 1] <> ']' then
          Error (Err.io "snapshot torn: malformed section %S" l)
        else
          match
            int_of_string_opt (String.sub l 9 (String.length l - 10))
          with
          | Some n when n >= 0 -> Ok (n, magic :: rest)
          | _ -> Error (Err.io "snapshot rejected: bad wal-lsn %S" l))
    | _ -> Ok (0, lines)
  in
  match lines with
  | magic :: "[schema]" :: rest when String.equal magic snapshot_magic ->
      let is_section l =
        String.length l >= 1 && l.[0] = '['
        && (String.equal l "[end]"
           || (String.length l > 7 && String.sub l 0 7 = "[table "))
      in
      let rec take_until acc = function
        | [] -> (List.rev acc, [])
        | l :: _ as rest when is_section l -> (List.rev acc, rest)
        | l :: rest -> take_until (l :: acc) rest
      in
      let schema_lines, rest = take_until [] rest in
      let rec tables acc = function
        | [ "[end]" ] | [ "[end]"; "" ] -> Ok (List.rev acc)
        | l :: rest when String.length l > 7 && String.sub l 0 7 = "[table " ->
            let name = String.sub l 7 (String.length l - 8) in
            if String.length l < 9 || l.[String.length l - 1] <> ']' then
              Error (Err.io "snapshot torn: malformed section %S" l)
            else
              let body_lines, rest = take_until [] rest in
              (match body_lines with
              | [] -> Error (Err.io "snapshot torn: table %s missing header" name)
              | _header :: rows -> tables ((name, rows) :: acc) rest)
        | l :: _ -> Error (Err.io "snapshot torn: unexpected line %S" l)
        | [] -> Error (Err.io "snapshot torn: missing [end] sentinel")
      in
      let* tabs = tables [] rest in
      Ok (wal_lsn, String.concat "\n" schema_lines, tabs)
  | _ -> Error (Err.io "unrecognized snapshot header")

let load_snapshot ?storage path =
  let* content =
    match read_file path with
    | content -> Ok content
    | exception Sys_error msg -> Error (Err.io "%s" msg)
  in
  let* body = verify_checksum content in
  let* wal_lsn, schema_text, tabs = parse_sections body in
  let db = Database.create ?storage () in
  let* _ =
    match Binder.run_script db schema_text with
    | Ok _ -> Ok ()
    | Error msg -> Error (Err.io "snapshot schema: %s" msg)
  in
  let* () =
    Err.iter_result
      (fun (name, rows) ->
        match Database.heap_opt db name with
        | None -> Error (Err.io "snapshot names unknown table %s" name)
        | Some h ->
            Err.iter_result
              (fun line ->
                if String.trim line = "" then Ok ()
                else
                  let* fields = Err.of_msg Err.Io (split_fields line) in
                  let* values =
                    Err.map_result
                      (fun f -> Err.of_msg Err.Io (decode_value f))
                      fields
                  in
                  (* trusted dump: straight into the heap *)
                  match Heap.insert h (Array.of_list values) with
                  | () -> Ok ()
                  | exception Invalid_argument msg -> Error (Err.io "%s" msg))
              rows)
      tabs
  in
  Ok (db, wal_lsn)

let load_with_lsn ?storage ~dir () =
  let path = Filename.concat dir snapshot_file in
  let result =
    if Sys.file_exists path then
      (* contain even unexpected raises from a hostile file *)
      Result.join
        (Err.protect ~kind:Err.Io (fun () -> load_snapshot ?storage path))
    else Error (Err.io "%s: no %s found" dir snapshot_file)
  in
  Err.with_context (Printf.sprintf "loading %s" dir) result

let load ?storage ~dir () = Result.map fst (load_with_lsn ?storage ~dir ())
