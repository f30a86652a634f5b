type id = int

let default_page_bytes = 4096
let nil = -1

type 'a codec = { encode : 'a -> string; decode : string -> 'a }

type 'a backend =
  | Mem
  | File of { disk : Disk.t; pool : Disk.pool; codec : 'a codec }

(* [payload = None] only on the file backend: the page lives on disk and is
   decoded on the next access.  The in-memory backend keeps every payload
   (it {e is} the simulated disk), so eviction there only flips bookkeeping
   bits — exactly the pre-durability behaviour. *)
type 'a entry = {
  mutable payload : 'a option;
  mutable resident : bool;
  mutable dirty : bool;
  (* LRU doubly-linked list links (only meaningful while resident) *)
  mutable prev : id;
  mutable next : id;
}

type 'a t = {
  mutable pages : 'a entry option array;  (* indexed by id; [None] once freed *)
  mutable next_id : int;
  pool_pages : int;
  mutable resident_pages : int;
  mutable lru_head : id;  (* most recently used *)
  mutable lru_tail : id;  (* least recently used *)
  stats : Stats.t;
  label : string;  (* telemetry attribution: which pool this traffic is *)
  backend : 'a backend;
}

let create ?(label = "pager") ?(pool_pages = 1024) ?(backend = Mem) () =
  if pool_pages < 1 then invalid_arg "Pager.create: pool_pages < 1";
  {
    pages = Array.make 16 None;
    next_id = 0;
    pool_pages;
    resident_pages = 0;
    lru_head = nil;
    lru_tail = nil;
    stats = Stats.create ();
    label;
    backend;
  }

let attach ?label ?pool_pages ~backend () =
  match backend with
  | Mem -> invalid_arg "Pager.attach: the in-memory backend has no disk state"
  | File { disk; pool; _ } ->
      let t = create ?label ?pool_pages ~backend () in
      let ids = Disk.page_ids disk pool in
      t.next_id <- 1 + List.fold_left max (-1) ids;
      t.pages <- Array.make (max 16 t.next_id) None;
      List.iter
        (fun id ->
          t.pages.(id) <-
            Some { payload = None; resident = false; dirty = false; prev = nil; next = nil })
        ids;
      t

let label t = t.label
let pool_pages t = t.pool_pages
let backend t = t.backend

let get t id =
  match if id >= 0 && id < t.next_id then t.pages.(id) else None with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Pager: unknown page %d" id)

(* ---- LRU list maintenance ---- *)

let unlink t e =
  let p = e.prev and n = e.next in
  if p <> nil then (get t p).next <- n else t.lru_head <- n;
  if n <> nil then (get t n).prev <- p else t.lru_tail <- p;
  e.prev <- nil;
  e.next <- nil

let push_front t id e =
  e.prev <- nil;
  e.next <- t.lru_head;
  if t.lru_head <> nil then (get t t.lru_head).prev <- id;
  t.lru_head <- id;
  if t.lru_tail = nil then t.lru_tail <- id

(* Write a dirty page's image through to the disk layer (file backend only;
   the memory backend keeps the payload, which is the whole simulation). *)
let write_back t id e =
  match t.backend with
  | Mem -> ()
  | File { disk; pool; codec } ->
      let image =
        match e.payload with
        | Some p -> codec.encode p
        | None -> assert false (* dirty implies in-memory payload *)
      in
      Disk.write_page disk pool ~id image;
      t.stats.write_back_bytes <- t.stats.write_back_bytes + String.length image

let evict_one t =
  let victim = t.lru_tail in
  assert (victim <> nil);
  let e = get t victim in
  unlink t e;
  e.resident <- false;
  let wrote_back = e.dirty in
  if e.dirty then begin
    write_back t victim e;
    t.stats.page_writes <- t.stats.page_writes + 1;
    e.dirty <- false
  end;
  (match t.backend with
  | Mem -> ()
  | File _ ->
      (* clean implies on-disk, so the in-memory image can be dropped *)
      e.payload <- None);
  t.resident_pages <- t.resident_pages - 1;
  t.stats.evictions <- t.stats.evictions + 1;
  if Obs.active () then
    Obs.emit ~severity:Obs.Debug ~category:"storage" "eviction"
      [ ("pool", Obs.Str t.label);
        ("page", Obs.Int victim);
        ("wrote_back", Obs.Bool wrote_back);
        ("evictions", Obs.Int t.stats.evictions) ]

(* enter the pool as the most recently used page, evicting if it is full *)
let admit t id e =
  if t.resident_pages >= t.pool_pages then evict_one t;
  e.resident <- true;
  t.resident_pages <- t.resident_pages + 1;
  push_front t id e

(* Fetch the payload, faulting it in from the disk layer when the file
   backend dropped it at eviction. *)
let payload_of t id e =
  match e.payload with
  | Some p -> p
  | None -> (
      match t.backend with
      | Mem -> assert false (* the memory backend never drops payloads *)
      | File { disk; pool; codec } ->
          let p = codec.decode (Disk.read_page disk pool ~id) in
          e.payload <- Some p;
          p)

(* ---- public operations ---- *)

let alloc t payload =
  let id = t.next_id in
  t.next_id <- id + 1;
  let e =
    { payload = Some payload; resident = false; dirty = true; prev = nil; next = nil }
  in
  if id = Array.length t.pages then t.pages <- Array.append t.pages (Array.make id None);
  t.pages.(id) <- Some e;
  t.stats.allocations <- t.stats.allocations + 1;
  (* a freshly allocated page is written in memory, not read from disk *)
  admit t id e;
  id

(* one logical access: fault the page in, or refresh its LRU position *)
let touch t id =
  let e = get t id in
  t.stats.logical_reads <- t.stats.logical_reads + 1;
  if not e.resident then begin
    admit t id e;
    t.stats.physical_reads <- t.stats.physical_reads + 1
  end
  else if t.lru_head <> id (* the head is already in place *) then begin
    unlink t e;
    push_front t id e
  end;
  e

let read t id = payload_of t id (touch t id)

let write t id payload =
  let e = touch t id in
  e.payload <- Some payload;
  e.dirty <- true

let free t id =
  let e = get t id in
  if e.resident then begin
    unlink t e;
    t.resident_pages <- t.resident_pages - 1
  end;
  (* a dirty page carries a pending write; dropping the page still costs
     that write (same accounting as evict_one) *)
  if e.dirty then begin
    t.stats.page_writes <- t.stats.page_writes + 1;
    e.dirty <- false
  end;
  (match t.backend with
  | Mem -> ()
  | File { disk; pool; _ } -> Disk.free_page disk pool ~id);
  t.pages.(id) <- None

let flush t =
  for id = 0 to t.next_id - 1 do
    match t.pages.(id) with
    | Some e when e.resident && e.dirty ->
        write_back t id e;
        e.dirty <- false;
        t.stats.page_writes <- t.stats.page_writes + 1
    | Some _ | None -> ()
  done

let page_count t = Array.fold_left (fun n e -> if Option.is_some e then n + 1 else n) 0 t.pages
let resident_count t = t.resident_pages
let stats t = t.stats
