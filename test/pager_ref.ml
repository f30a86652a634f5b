(* Reference buffer pool: the original [Hashtbl]-keyed pager on the
   in-memory backend, kept as a test oracle for the array page table in
   [Storage.Pager].  Every operation must leave the same LRU order, the
   same eviction victims and the same [Stats] counters. *)

type id = int

let nil = -1

type 'a entry = {
  mutable payload : 'a;
  mutable resident : bool;
  mutable dirty : bool;
  mutable prev : id;
  mutable next : id;
}

type 'a t = {
  pages : (id, 'a entry) Hashtbl.t;
  mutable next_id : int;
  pool_pages : int;
  mutable resident_pages : int;
  mutable lru_head : id;
  mutable lru_tail : id;
  stats : Storage.Stats.t;
}

let create ?(pool_pages = 1024) () =
  if pool_pages < 1 then invalid_arg "Pager.create: pool_pages < 1";
  {
    pages = Hashtbl.create 64;
    next_id = 0;
    pool_pages;
    resident_pages = 0;
    lru_head = nil;
    lru_tail = nil;
    stats = Storage.Stats.create ();
  }

let get t id =
  match Hashtbl.find_opt t.pages id with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Pager: unknown page %d" id)

let unlink t e =
  let p = e.prev and n = e.next in
  if p <> nil then (Hashtbl.find t.pages p).next <- n else t.lru_head <- n;
  if n <> nil then (Hashtbl.find t.pages n).prev <- p else t.lru_tail <- p;
  e.prev <- nil;
  e.next <- nil

let push_front t id e =
  e.prev <- nil;
  e.next <- t.lru_head;
  if t.lru_head <> nil then (Hashtbl.find t.pages t.lru_head).prev <- id;
  t.lru_head <- id;
  if t.lru_tail = nil then t.lru_tail <- id

let evict_one t =
  let victim = t.lru_tail in
  assert (victim <> nil);
  let e = Hashtbl.find t.pages victim in
  unlink t e;
  e.resident <- false;
  if e.dirty then begin
    t.stats.page_writes <- t.stats.page_writes + 1;
    e.dirty <- false
  end;
  t.resident_pages <- t.resident_pages - 1;
  t.stats.evictions <- t.stats.evictions + 1

let make_resident t id e =
  if e.resident then begin
    unlink t e;
    push_front t id e
  end
  else begin
    if t.resident_pages >= t.pool_pages then evict_one t;
    e.resident <- true;
    t.resident_pages <- t.resident_pages + 1;
    push_front t id e;
    t.stats.physical_reads <- t.stats.physical_reads + 1
  end

let alloc t payload =
  let id = t.next_id in
  t.next_id <- id + 1;
  let e = { payload; resident = false; dirty = true; prev = nil; next = nil } in
  Hashtbl.add t.pages id e;
  t.stats.allocations <- t.stats.allocations + 1;
  if t.resident_pages >= t.pool_pages then evict_one t;
  e.resident <- true;
  t.resident_pages <- t.resident_pages + 1;
  push_front t id e;
  id

let read t id =
  let e = get t id in
  t.stats.logical_reads <- t.stats.logical_reads + 1;
  make_resident t id e;
  e.payload

let write t id payload =
  let e = get t id in
  t.stats.logical_reads <- t.stats.logical_reads + 1;
  make_resident t id e;
  e.payload <- payload;
  e.dirty <- true

let free t id =
  let e = get t id in
  if e.resident then begin
    unlink t e;
    t.resident_pages <- t.resident_pages - 1
  end;
  if e.dirty then begin
    t.stats.page_writes <- t.stats.page_writes + 1;
    e.dirty <- false
  end;
  Hashtbl.remove t.pages id

let flush t =
  Hashtbl.iter
    (fun _ e ->
      if e.resident && e.dirty then begin
        e.dirty <- false;
        t.stats.page_writes <- t.stats.page_writes + 1
      end)
    t.pages

let page_count t = Hashtbl.length t.pages
let resident_count t = t.resident_pages
let stats t = t.stats
