(* The three workloads: their documents, configurations, seeded request
   streams, and how one request is applied to a store.  Everything here
   is a pure function of the seed, so a run and its verification replay
   (and two runs with one seed) see the same operations in the same
   order. *)

module Store = Mass.Store
module Svc = Vamana_service.Service

type backend = Mem | File

(* what the reads are: Zipf picks from the structural corpus, or ad-hoc
   texts from Zipf-parameterised templates *)
type reads = Corpus | Templates

type config = {
  name : string;
  reads : reads;
  mb : float;  (* XMark document size *)
  backend : backend;
  pool_pages : int;  (* per-index buffer pool *)
  result_cache : int;  (* Service result-cache capacity; 0 disables it *)
  reads_per_write : int;  (* 0: read-only; n: every (n+1)th op is a write *)
}

(* Structural corpus: paper Q1-Q5 first (Zipf rank order is fixed, so the
   hot head is the same on every seed), then differential-corpus shapes —
   descendant, sibling, following/preceding, positional, value and
   existence predicates — each at most ~10 ms on 10 MB, so no single
   query dominates the percentiles. *)
let corpus =
  [| "//person/address";
     "//watches/watch/ancestor::person";
     "/descendant::name/parent::*/self::person/address";
     "//itemref/following-sibling::price/parent::*";
     "//province[text()='Vermont']/ancestor::person";
     "//person[address]/name";
     "//address[not(province)]";
     "//city/preceding-sibling::street";
     "//open_auction/bidder[1]/increase";
     "//person[address/city='Monroe']";
     "//province[text()='Vermont']/following::province";
     "//person[watches/watch]/address/city";
     "//open_auction[current > 300]/itemref";
     "//address/ancestor-or-self::person";
     "//province[text()='Vermont']/preceding::province";
     "//open_auction/bidder[last()]/date";
     "//item/description/..";
     "//person/profile/interest/@category";
     "//europe/item/name";
     "//closed_auction[price > 399]/following::closed_auction[1]" |]

let corpus_zipf_s = 0.8

let states =
  [| "Alabama"; "Alaska"; "Arizona"; "Arkansas"; "California"; "Colorado"; "Connecticut";
     "Delaware"; "Florida"; "Georgia"; "Hawaii"; "Idaho"; "Illinois"; "Indiana"; "Iowa";
     "Kansas"; "Kentucky"; "Louisiana"; "Maine"; "Maryland"; "Massachusetts"; "Michigan";
     "Minnesota"; "Mississippi"; "Missouri"; "Montana"; "Nebraska"; "Nevada";
     "New Hampshire"; "New Jersey"; "New Mexico"; "New York"; "North Carolina";
     "North Dakota"; "Ohio"; "Oklahoma"; "Oregon"; "Pennsylvania"; "Rhode Island";
     "South Carolina"; "South Dakota"; "Tennessee"; "Texas"; "Utah"; "Vermont"; "Virginia";
     "Washington"; "West Virginia"; "Wisconsin"; "Wyoming" |]

(* Ad-hoc templates: (parameter range, text).  With the 2 MB counts the
   distinct texts number several thousand — many times the 128-entry plan
   cache and the 512-entry result cache — while the Zipf head repeats. *)
let templates (c : Xmark.counts) =
  let id prefix n fmt = (n, fun k -> Printf.sprintf fmt (prefix ^ string_of_int k)) in
  [| id "person" c.Xmark.persons "//person[@id='%s']/name";
     id "person" c.Xmark.persons "//person[@id='%s']/emailaddress";
     id "person" c.Xmark.persons "//person[@id='%s']/address/city";
     (Array.length states, fun k -> Printf.sprintf "//province[text()='%s']/ancestor::person" states.(k));
     id "open_auction" c.Xmark.open_auctions "//open_auction[@id='%s']/current";
     id "open_auction" c.Xmark.open_auctions "//open_auction[@id='%s']/itemref/@item";
     id "item" c.Xmark.items "//item[@id='%s']/name";
     id "category" c.Xmark.categories "//category[@id='%s']/name" |]

let param_zipf_s = 0.6

let read_exec =
  { name = "read_exec"; reads = Corpus; mb = 10.0; backend = Mem; pool_pages = 65536; result_cache = 0;
    reads_per_write = 0 }

let read_adhoc =
  { name = "read_adhoc"; reads = Templates; mb = 2.0; backend = Mem; pool_pages = 65536; result_cache = 512;
    reads_per_write = 0 }

let churn_disk =
  { name = "churn_disk"; reads = Corpus; mb = 1.0; backend = File; pool_pages = 64; result_cache = 512;
    reads_per_write = 1 }

let all = [ read_exec; read_adhoc; churn_disk ]

(* ---- request stream ---- *)

type op =
  | Read of string
  | Insert_pad  (* an element no corpus query reads, appended under /site/regions *)
  | Insert_person of int  (* a person (id churn<n>) appended under /site/people *)
  | Delete of int  (* the n-th live earlier insert *)

(* the request-stream seed is derived from, but distinct from, the
   document seed *)
let xmark_seed seed = Int64.of_int ((seed * 7919) + 1)
let stream_rng seed = Random.State.make [| seed; 0x5eed |]

(* the request stream: a generator of the workload's operations *)
let stream cfg ~seed : unit -> op =
  let rng = stream_rng seed in
  let corpus_zipf = Measure.Zipf.make ~s:corpus_zipf_s (Array.length corpus) in
  let read =
    match cfg.reads with
    | Corpus -> fun () -> Read corpus.(Measure.Zipf.draw corpus_zipf rng)
    | Templates ->
        let ts = templates (Xmark.plan ~megabytes:cfg.mb) in
        let zipfs = Array.map (fun (n, _) -> Measure.Zipf.make ~s:param_zipf_s n) ts in
        fun () ->
          let t = Random.State.int rng (Array.length ts) in
          Read ((snd ts.(t)) (Measure.Zipf.draw zipfs.(t) rng))
  in
  if cfg.reads_per_write = 0 then read
  else
    (* writes: 25% deletes of an earlier insert (while any is live), 20%
       pads, the rest persons *)
    let i = ref 0 and live = ref 0 and persons = ref 0 in
    fun () ->
      incr i;
      if !i mod (cfg.reads_per_write + 1) <> 0 then read ()
      else
        let u = Random.State.float rng 1.0 in
        if u < 0.25 && !live > 0 then begin
          decr live;
          Delete (Random.State.int rng (!live + 1))
        end
        else begin
          incr live;
          if u < 0.45 then Insert_pad
          else begin
            incr persons;
            Insert_person !persons
          end
        end

(* ---- environments ---- *)

(* live earlier inserts; removal swaps the last entry in, so a run and
   its replay pick the same victim for the same [Delete n] *)
module Live = struct
  type t = { mutable keys : Flex.t array; mutable len : int }

  let create () = { keys = [||]; len = 0 }

  let add t k =
    if t.len = Array.length t.keys then begin
      let bigger = Array.make (max 16 (2 * t.len)) k in
      Array.blit t.keys 0 bigger 0 t.len;
      t.keys <- bigger
    end;
    t.keys.(t.len) <- k;
    t.len <- t.len + 1

  let take t n =
    let k = t.keys.(n) in
    t.keys.(n) <- t.keys.(t.len - 1);
    t.len <- t.len - 1;
    k
end

type env = {
  store : Store.t;
  doc : Store.doc;
  regions : Flex.t;
  people : Flex.t;
  live : Live.t;
  base_epoch : int;
  dir : string option;
}

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let work_root = ".perfbench_work"

let fresh_dir cfg =
  (try Unix.mkdir work_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat work_root (Printf.sprintf "%s-%d" cfg.name (Unix.getpid ())) in
  rm_rf dir;
  dir

let first_key store doc q =
  match Vamana.Engine.query_doc store doc q with
  | Ok { Vamana.Engine.keys = k :: _; _ } -> k
  | Ok _ -> failwith (q ^ ": no match")
  | Error e -> failwith (q ^ ": " ^ e)

let attach store doc dir =
  { store; doc; dir; live = Live.create (); base_epoch = Store.epoch store;
    regions = first_key store doc "/site/regions"; people = first_key store doc "/site/people" }

(* a store holding the workload's document.  On [File] the load is a
   bulk load, then a close and a cold reopen with the constrained pool. *)
let open_store cfg ~seed =
  let tree = Xmark.generate ~seed:(xmark_seed seed) cfg.mb in
  match cfg.backend with
  | Mem ->
      let store = Store.create ~pool_pages:cfg.pool_pages ~backend:Store.Mem () in
      let doc = Store.load store ~name:"auction.xml" tree in
      attach store doc None
  | File ->
      let dir = fresh_dir cfg in
      let loaded = Store.create ~pool_pages:65536 ~backend:(Store.File { dir }) () in
      ignore (Store.load loaded ~name:"auction.xml" tree);
      Store.close loaded;
      let store = Store.open_file ~pool_pages:cfg.pool_pages ~dir () in
      attach store (List.hd (Store.documents store)) (Some dir)

(* the verification replay's store: same document, [Mem], no caches *)
let reference_store cfg ~seed =
  open_store { cfg with backend = Mem; pool_pages = 65536 } ~seed

(* apply a write; raises on failure *)
let write env = function
  | Insert_pad -> Live.add env.live (Store.insert_element env.store ~parent:env.regions "pad" [] None)
  | Insert_person n ->
      Live.add env.live
        (Store.insert_element env.store ~parent:env.people "person"
           [ ("id", Printf.sprintf "churn%d" n) ]
           (Some "churn"))
  | Delete n -> ignore (Store.delete_subtree env.store (Live.take env.live n))
  | Read _ -> invalid_arg "Workload.write: a read"

(* store epoch relative to the freshly set-up document *)
let epoch env = Store.epoch env.store - env.base_epoch

(* the requests that warm the plan cache during set-up *)
let warm_queries cfg =
  match cfg.reads with
  | Templates -> Array.to_list (Array.map (fun (_, f) -> f 0) (templates (Xmark.plan ~megabytes:cfg.mb)))
  | Corpus -> Array.to_list corpus

(* a served environment: store, service, and — as `vamana serve -d`
   does for a store with a data directory — a flight recorder there *)
type served = { env : env; service : Svc.t; flight : Storage.Flight.t option }

let serve cfg ~seed =
  let env = open_store cfg ~seed in
  let flight = Option.map (fun dir -> Storage.Flight.open_dir ~dir ()) env.dir in
  let service = Svc.create ~result_cache_capacity:cfg.result_cache ?flight env.store in
  List.iter
    (fun q ->
      match Svc.query service ~context:env.doc.Store.doc_key q with
      | Ok _ -> ()
      | Error e -> failwith (q ^ ": " ^ e))
    (warm_queries cfg);
  { env; service; flight }

let shutdown s =
  Fun.protect
    ~finally:(fun () -> Option.iter rm_rf s.env.dir)
    (fun () ->
      Option.iter Storage.Flight.close s.flight;
      Store.close s.env.store)
