(* One cached frozen copy of the database, stamped with the LSN of the
   last committed batch.  [get] is called under the server's commit
   lock, so the copy it takes is a clean batch boundary; everything a
   reader then does happens against private structures (see
   Database.reader_view) with zero locking, apart from the statistics
   store's own short lock. *)

open Eager_storage

type t = {
  mu : Mutex.t;
  mutable cached : (int * Database.t) option;
  mutable copies : int;
}

let create () = { mu = Mutex.create (); cached = None; copies = 0 }

let get t ~lsn ~db =
  Mutex.lock t.mu;
  let frozen =
    match t.cached with
    | Some (l, snap) when l = lsn -> snap
    | _ ->
        let snap = Database.snapshot db in
        t.cached <- Some (lsn, snap);
        t.copies <- t.copies + 1;
        snap
  in
  Mutex.unlock t.mu;
  Database.reader_view frozen

let cached_lsn t =
  Mutex.lock t.mu;
  let l = Option.map fst t.cached in
  Mutex.unlock t.mu;
  l

let copies t =
  Mutex.lock t.mu;
  let n = t.copies in
  Mutex.unlock t.mu;
  n
