module FlexKey = struct
  type t = Flex.t

  let compare = Flex.compare
  let pp = Flex.pp
end

module TagKey = struct
  type t = string * Flex.t

  let compare (t1, k1) (t2, k2) =
    let c = String.compare t1 t2 in
    if c <> 0 then c else Flex.compare k1 k2

  let pp ppf (t, k) = Format.fprintf ppf "(%s,%a)" t Flex.pp k
end

module DocTree = Btree.Make (FlexKey)
module TagTree = Btree.Make (TagKey)

type doc = {
  doc_id : int;
  doc_name : string;
  doc_key : Flex.t;
  mutable element_count : int;
  mutable text_count : int;
  mutable attribute_count : int;
  mutable comment_count : int;
  mutable pi_count : int;
}

(* Per-mutation write footprint: which name-index tags, value-index keys
   and string-value cones a content mutation touched.  Caches layered
   above the store intersect these against a cached entry's read
   footprint to decide whether the entry provably survived the write. *)
type write_delta = {
  wd_epoch : int;
  wd_doc : int option;
  wd_top : bool;
  wd_tags : string list;
  wd_values : string list;
  wd_cones : string list;
}

(* DataGuide path-count tree (the data of {!Synopsis}): one node per
   distinct root-to-tag path, with the exact number of records on it.
   The store keeps its own tree exact by applying each mutation's
   (tag path, count) delta in place. *)
type path_node = {
  syn_tag : string;
  syn_parent : path_node option;
  mutable syn_count : int;
  mutable syn_children : path_node list;  (* sorted by tag *)
}

type path_synopsis = { ps_epoch : int; ps_docs : (Flex.t * path_node) list }

type t = {
  doc_index : Record.t DocTree.t;
  name_index : unit TagTree.t;
  value_index : unit TagTree.t;
  mutable docs : doc list;  (** in root-component order *)
  mutable next_doc_id : int;
  mutable epoch : int;  (** bumped by every content mutation *)
  doc_epochs : (int, int) Hashtbl.t;
      (** doc_id → global epoch at that document's last content
          mutation; absent = untouched since open.  Process-local (not
          persisted): the token only has to be stable for the lifetime
          of caches layered above this handle. *)
  mutable deltas : write_delta list;
      (** newest first, bounded by {!delta_capacity}; process-local like
          [doc_epochs] *)
  mutable deltas_dropped_through : int;
      (** epoch high-water mark of deltas evicted from the bounded ring:
          coverage of the ring is only complete for tokens at or above
          this value *)
  order : int;
  disk : Storage.Disk.t option;  (** [Some] on the file backend *)
  mutable autocommit : bool;
  mutable synopsis : path_synopsis option;
      (** built by one scan when first asked for, then maintained by
          every content mutation; process-local like [doc_epochs] *)
}

(* ---- page codecs (file backend) ---- *)

let kind_code (k : Record.kind) =
  match k with
  | Record.Document -> 0
  | Record.Element -> 1
  | Record.Attribute -> 2
  | Record.Text -> 3
  | Record.Comment -> 4
  | Record.Pi -> 5

let kind_of_code = function
  | 0 -> Record.Document
  | 1 -> Record.Element
  | 2 -> Record.Attribute
  | 3 -> Record.Text
  | 4 -> Record.Comment
  | 5 -> Record.Pi
  | c -> failwith (Printf.sprintf "Mass snapshot: bad kind code %d" c)

let enc_flex b k = Storage.Binio.w_str b (Flex.encode k)
let dec_flex r = Flex.decode (Storage.Binio.r_str r)

let enc_tag b (tag, k) =
  Storage.Binio.w_str b tag;
  enc_flex b k

let dec_tag r =
  let tag = Storage.Binio.r_str r in
  (tag, dec_flex r)

let enc_record b (r : Record.t) =
  enc_flex b r.key;
  Storage.Binio.w_u8 b (kind_code r.kind);
  Storage.Binio.w_str b r.name;
  Storage.Binio.w_str b r.value

let dec_record rd =
  let key = dec_flex rd in
  let kind = kind_of_code (Storage.Binio.r_u8 rd) in
  let name = Storage.Binio.r_str rd in
  let value = Storage.Binio.r_str rd in
  { Record.key; kind; name; value }

let doc_node_codec : Record.t DocTree.node Storage.Pager.codec =
  DocTree.node_codec ~enc_key:enc_flex ~dec_key:dec_flex ~enc_val:enc_record
    ~dec_val:dec_record

let tag_node_codec : unit TagTree.node Storage.Pager.codec =
  TagTree.node_codec ~enc_key:enc_tag ~dec_key:dec_tag
    ~enc_val:(fun _ () -> ())
    ~dec_val:(fun _ -> ())

(* ---- backend selection ---- *)

type backend = Mem | File of { dir : string }

(* VAMANA_BACKEND=file redirects every [create] without an explicit backend
   to real files in a per-process temp tree, so the whole test suite can be
   re-run against the durable path unchanged. *)
let temp_counter = ref 0

let temp_root =
  lazy
    (let dir =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "vamana_stores_%d" (Unix.getpid ()))
     in
     let rec rm_rf p =
       match Sys.is_directory p with
       | true ->
           Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
           Unix.rmdir p
       | false -> Sys.remove p
       | exception Sys_error _ -> ()
     in
     at_exit (fun () -> try rm_rf dir with _ -> ());
     (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     dir)

let default_backend () =
  match Sys.getenv_opt "VAMANA_BACKEND" with
  | Some "file" ->
      incr temp_counter;
      File
        {
          dir =
            Filename.concat (Lazy.force temp_root)
              (Printf.sprintf "store%d" !temp_counter);
        }
  | _ -> Mem

(* ---- store metadata: everything outside the trees' pages ----

   Serialized into the disk layer's metadata blob, so it rides in every WAL
   commit and manifest: document table, id counter, epoch, tree roots and
   the order the trees were built with. *)

let meta_version = 1

let encode_meta t =
  let b = Buffer.create 512 in
  Storage.Binio.w_u32 b meta_version;
  Storage.Binio.w_u64 b t.epoch;
  Storage.Binio.w_u64 b t.next_doc_id;
  Storage.Binio.w_u32 b t.order;
  Storage.Binio.w_u32 b (List.length t.docs);
  List.iter
    (fun d ->
      Storage.Binio.w_u64 b d.doc_id;
      Storage.Binio.w_str b d.doc_name;
      Storage.Binio.w_str b (Flex.encode d.doc_key);
      Storage.Binio.w_u64 b d.element_count;
      Storage.Binio.w_u64 b d.text_count;
      Storage.Binio.w_u64 b d.attribute_count;
      Storage.Binio.w_u64 b d.comment_count;
      Storage.Binio.w_u64 b d.pi_count)
    t.docs;
  Storage.Binio.w_u64 b (DocTree.root_id t.doc_index);
  Storage.Binio.w_u64 b (TagTree.root_id t.name_index);
  Storage.Binio.w_u64 b (TagTree.root_id t.value_index);
  Buffer.contents b

let flush_indexes t =
  DocTree.flush t.doc_index;
  TagTree.flush t.name_index;
  TagTree.flush t.value_index

let commit t =
  match t.disk with
  | None -> ()
  | Some disk ->
      flush_indexes t;
      Storage.Disk.set_metadata disk (encode_meta t);
      Storage.Disk.commit disk ~epoch:t.epoch

let checkpoint t =
  match t.disk with
  | None -> ()
  | Some disk ->
      flush_indexes t;
      Storage.Disk.set_metadata disk (encode_meta t);
      Storage.Disk.checkpoint disk ~epoch:t.epoch

let maybe_commit t =
  match t.disk with
  | Some disk when t.autocommit && not (Storage.Disk.in_bulk disk) -> commit t
  | _ -> ()

let set_autocommit t on = t.autocommit <- on
let data_dir t = Option.map Storage.Disk.dir t.disk
let disk_io t = Option.map Storage.Disk.io t.disk
let disk_wal_bytes t = Option.map Storage.Disk.wal_bytes t.disk
let last_recovery t = Option.bind t.disk Storage.Disk.last_recovery

let close t =
  match t.disk with
  | None -> ()
  | Some disk ->
      if not (Storage.Disk.is_closed disk) then begin
        if not (Storage.Disk.in_bulk disk) then checkpoint t;
        Storage.Disk.close disk
      end

let simulate_crash t =
  match t.disk with None -> () | Some disk -> Storage.Disk.close disk

(* Run a bulk ingest [f] against the disk (a plain call on Mem): on success
   one end_bulk checkpoint makes the whole batch durable at once.  If [f]
   raises, the in-memory indexes are partially mutated and cannot be rolled
   back, so abort the disk to its pre-bulk state and close it — the partial
   load can then never be silently committed (later uses of this handle
   fail loudly) and reopening the directory yields the pre-load store. *)
let bulk_ingest t f =
  match t.disk with
  | None -> f ()
  | Some d -> (
      Storage.Disk.begin_bulk d;
      match f () with
      | v ->
          flush_indexes t;
          Storage.Disk.set_metadata d (encode_meta t);
          Storage.Disk.end_bulk d ~epoch:t.epoch;
          v
      | exception e ->
          (try Storage.Disk.abort_bulk d with _ -> ());
          Storage.Disk.close d;
          raise e)

let create ?pool_pages ?(order = 64) ?backend () =
  let backend = match backend with Some b -> b | None -> default_backend () in
  match backend with
  | Mem ->
      {
        doc_index = DocTree.create ~label:"doc_index" ~order ?pool_pages ();
        name_index = TagTree.create ~label:"name_index" ~order ?pool_pages ();
        value_index = TagTree.create ~label:"value_index" ~order ?pool_pages ();
        docs = [];
        next_doc_id = 0;
        epoch = 0;
        doc_epochs = Hashtbl.create 8;
        deltas = [];
        deltas_dropped_through = 0;
        order;
        disk = None;
        autocommit = true;
        synopsis = None;
      }
  | File { dir } ->
      let disk = Storage.Disk.create ~dir in
      let mk name codec =
        Storage.Pager.File { disk; pool = Storage.Disk.pool disk name; codec }
      in
      let t =
        {
          doc_index =
            DocTree.create ~label:"doc_index" ~order ?pool_pages
              ~backend:(mk "doc_index" doc_node_codec) ();
          name_index =
            TagTree.create ~label:"name_index" ~order ?pool_pages
              ~backend:(mk "name_index" tag_node_codec) ();
          value_index =
            TagTree.create ~label:"value_index" ~order ?pool_pages
              ~backend:(mk "value_index" tag_node_codec) ();
          docs = [];
          next_doc_id = 0;
          epoch = 0;
          doc_epochs = Hashtbl.create 8;
          deltas = [];
          deltas_dropped_through = 0;
          order;
          disk = Some disk;
          autocommit = true;
          synopsis = None;
        }
      in
      (* Checkpoint, not commit: the manifest [Disk.create] just wrote is
         already at epoch 0 and recovery only replays WAL batches with a
         strictly newer epoch, so a commit here would be dropped on
         replay — a crash before the first checkpoint (including one mid
         first bulk load, whose writes bypass the WAL) would then leave
         a store without metadata that [open_file] refuses.  Writing the
         metadata into the manifest itself makes the empty store
         immediately reopenable on every crash path. *)
      checkpoint t;
      t

let open_file ?pool_pages ~dir () =
  let disk = Storage.Disk.open_dir ~dir in
  let meta = Storage.Disk.metadata disk in
  let fail msg =
    Storage.Disk.close disk;
    raise (Storage.Disk.Corrupt (Printf.sprintf "%s: %s" dir msg))
  in
  if String.length meta = 0 then fail "store has no metadata";
  try
    let r = Storage.Binio.reader meta in
    let version = Storage.Binio.r_u32 r in
    if version <> meta_version then
      fail (Printf.sprintf "unsupported store metadata version %d" version);
    let epoch = Storage.Binio.r_u64 r in
    let next_doc_id = Storage.Binio.r_u64 r in
    let order = Storage.Binio.r_u32 r in
    let ndocs = Storage.Binio.r_u32 r in
    let docs =
      List.init ndocs (fun _ ->
          let doc_id = Storage.Binio.r_u64 r in
          let doc_name = Storage.Binio.r_str r in
          let doc_key =
            match Flex.decode (Storage.Binio.r_str r) with
            | k -> k
            | exception Invalid_argument msg -> fail msg
          in
          let element_count = Storage.Binio.r_u64 r in
          let text_count = Storage.Binio.r_u64 r in
          let attribute_count = Storage.Binio.r_u64 r in
          let comment_count = Storage.Binio.r_u64 r in
          let pi_count = Storage.Binio.r_u64 r in
          {
            doc_id;
            doc_name;
            doc_key;
            element_count;
            text_count;
            attribute_count;
            comment_count;
            pi_count;
          })
    in
    let doc_root = Storage.Binio.r_u64 r in
    let name_root = Storage.Binio.r_u64 r in
    let value_root = Storage.Binio.r_u64 r in
    let mk name codec =
      Storage.Pager.File { disk; pool = Storage.Disk.pool disk name; codec }
    in
    {
      doc_index =
        DocTree.open_existing ~label:"doc_index" ~order ?pool_pages
          ~backend:(mk "doc_index" doc_node_codec) ~root:doc_root ();
      name_index =
        TagTree.open_existing ~label:"name_index" ~order ?pool_pages
          ~backend:(mk "name_index" tag_node_codec) ~root:name_root ();
      value_index =
        TagTree.open_existing ~label:"value_index" ~order ?pool_pages
          ~backend:(mk "value_index" tag_node_codec) ~root:value_root ();
      docs;
      next_doc_id;
      epoch;
      doc_epochs = Hashtbl.create 8;
      (* deltas are process-local: a reopened store knows nothing about
         mutations before the open, so coverage starts at this epoch *)
      deltas = [];
      deltas_dropped_through = epoch;
      order;
      disk = Some disk;
      autocommit = true;
      synopsis = None;
    }
  with Storage.Binio.Short -> fail "truncated store metadata"

let epoch t = t.epoch

let doc_epoch t doc =
  match Hashtbl.find_opt t.doc_epochs doc.doc_id with Some e -> e | None -> 0

let bump_epoch t =
  t.epoch <- t.epoch + 1;
  maybe_commit t

(* record that this mutation touched [doc]: result caches scoped to one
   document compare this token instead of the global epoch, so writes to
   one document no longer flush every other document's cached answers *)
let note_doc_mutation t = function
  | Some doc -> Hashtbl.replace t.doc_epochs doc.doc_id t.epoch
  | None -> ()

(* ---- probes ----

   [Btree.seek]/[rank] take monotone probes: negative strictly before the
   position, non-negative at or after it.  [Flex.bound_compare_key] is the
   opposite sign convention (bound vs key), hence the negation. *)

let key_probe bound k = -Flex.bound_compare_key bound k

let tag_probe tag bound (tag', k) =
  let c = String.compare tag' tag in
  if c <> 0 then c else key_probe bound k

(* tag of a record in the name index; '@' and '#' cannot start XML names,
   so attribute/text/comment/pi/document entries never collide with
   element names *)
let tag_of (r : Record.t) =
  match r.kind with
  | Record.Element -> r.name
  | Record.Attribute -> "@" ^ r.name
  | Record.Text -> "#text"
  | Record.Comment -> "#comment"
  | Record.Pi -> "#pi"
  | Record.Document -> "#document"

let indexed_value (r : Record.t) =
  match r.kind with Record.Text | Record.Attribute -> Some r.value | _ -> None

(* ---- write-footprint deltas ----

   Every content mutation records which name-index tags and value-index
   keys it added or removed, plus the string-value "cones": the element
   tags (and "#document") whose XPath string-value — concatenated
   descendant text — changed because a text node appeared or vanished
   below them.  FLEX keys are immutable and node values never mutate in
   place, so these three atom classes are a complete description of what
   a mutation can change about any query's answer. *)

let delta_capacity = 128
let delta_atom_cap = 64

let record_delta t ~doc ?(top = false) ~tags ~values ~cones () =
  let dedup l = List.sort_uniq String.compare l in
  let tags = dedup tags and values = dedup values and cones = dedup cones in
  let top =
    top
    || List.length tags > delta_atom_cap
    || List.length values > delta_atom_cap
    || List.length cones > delta_atom_cap
  in
  let wd =
    { wd_epoch = t.epoch;
      wd_doc = Option.map (fun d -> d.doc_id) doc;
      wd_top = top;
      wd_tags = (if top then [] else tags);
      wd_values = (if top then [] else values);
      wd_cones = (if top then [] else cones) }
  in
  let rec take n = function
    | [] -> ([], None)
    | x :: rest ->
        if n = 0 then ([], Some x)
        else
          let kept, dropped = take (n - 1) rest in
          (x :: kept, dropped)
  in
  let kept, dropped = take delta_capacity (wd :: t.deltas) in
  (* the first entry past capacity is the newest of those dropped, so its
     epoch is the ring's new coverage floor *)
  (match dropped with
  | Some d -> t.deltas_dropped_through <- max t.deltas_dropped_through d.wd_epoch
  | None -> ());
  t.deltas <- kept

(* bounded atom accumulator: distinct strings with early collapse to ⊤,
   so bulk mutations never materialize unbounded atom lists *)
let acc_put top tbl k =
  if not !top then begin
    if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k ();
    if Hashtbl.length tbl > delta_atom_cap then top := true
  end

let acc_keys tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl []

let write_deltas t ~since =
  if since < t.deltas_dropped_through then None
  else Some (List.filter (fun d -> d.wd_epoch > since) t.deltas)

let last_write_delta t = match t.deltas with d :: _ -> Some d | [] -> None

let insert_record t (r : Record.t) =
  DocTree.insert t.doc_index r.key r;
  TagTree.insert t.name_index (tag_of r, r.key) ();
  match indexed_value r with
  | Some v -> TagTree.insert t.value_index (v, r.key) ()
  | None -> ()

let remove_record t (r : Record.t) =
  ignore (DocTree.delete t.doc_index r.key);
  ignore (TagTree.delete t.name_index (tag_of r, r.key));
  match indexed_value r with
  | Some v -> ignore (TagTree.delete t.value_index (v, r.key))
  | None -> ()

(* ---- path synopsis tree ---- *)

let path_root () = { syn_tag = "#document"; syn_parent = None; syn_count = 0; syn_children = [] }

(* the child of [n] labelled [tag], linked in tag order if absent *)
let path_child n tag =
  match List.find_opt (fun c -> String.equal c.syn_tag tag) n.syn_children with
  | Some c -> c
  | None ->
      let c = { syn_tag = tag; syn_parent = Some n; syn_count = 0; syn_children = [] } in
      n.syn_children <-
        List.merge (fun a b -> String.compare a.syn_tag b.syn_tag) [ c ] n.syn_children;
      c

(* Count records given in document order: [count depth tag] adds [delta]
   to the path node of a record at [depth] (the first record, at
   [depth0], is [top]) and returns that node.  Parents precede children,
   so a depth-indexed stack suffices. *)
let path_counter top depth0 delta =
  let stack = ref (Array.make 16 top) in
  fun depth tag ->
    let i = depth - depth0 in
    if i >= Array.length !stack then begin
      let bigger = Array.make (2 * i) top in
      Array.blit !stack 0 bigger 0 (Array.length !stack);
      stack := bigger
    end;
    let n = if i = 0 then top else path_child !stack.(i - 1) tag in
    n.syn_count <- n.syn_count + delta;
    !stack.(i) <- n;
    n

(* the maintained tree's root of [doc], when the tree is materialised *)
let synopsis_root t doc =
  match (t.synopsis, doc) with
  | Some s, Some d ->
      List.find_map (fun (k, root) -> if Flex.equal k d.doc_key then Some root else None) s.ps_docs
  | _ -> None

(* ---- document loading ---- *)

let bump doc (kind : Record.kind) n =
  match kind with
  | Record.Element -> doc.element_count <- doc.element_count + n
  | Record.Text -> doc.text_count <- doc.text_count + n
  | Record.Attribute -> doc.attribute_count <- doc.attribute_count + n
  | Record.Comment -> doc.comment_count <- doc.comment_count + n
  | Record.Pi -> doc.pi_count <- doc.pi_count + n
  | Record.Document -> ()

let doc_of_key t key =
  if Flex.depth key = 0 then None
  else
    let root = Flex.prefix key 1 in
    List.find_opt (fun d -> Flex.equal d.doc_key root) t.docs

(* [count] tallies each record in the new document's path tree *)
let load_records t ~name tree ~count =
  let last_component =
    List.fold_left
      (fun acc d ->
        match Flex.last_component d.doc_key with
        | Some c -> (
            match acc with
            | Some prev when String.compare prev c >= 0 -> acc
            | _ -> Some c)
        | None -> acc)
      None t.docs
  in
  let root_component = Flex.between last_component None in
  let doc_key = Flex.of_components [ root_component ] in
  let doc =
    {
      doc_id = t.next_doc_id;
      doc_name = name;
      doc_key;
      element_count = 0;
      text_count = 0;
      attribute_count = 0;
      comment_count = 0;
      pi_count = 0;
    }
  in
  t.next_doc_id <- t.next_doc_id + 1;
  (* accumulate the load's write footprint with an early collapse to ⊤ so
     a bulk ingest never materializes an unbounded atom list *)
  let d_top = ref false in
  let d_tags = Hashtbl.create 32 and d_values = Hashtbl.create 32 in
  let note (r : Record.t) =
    acc_put d_top d_tags (tag_of r);
    (match indexed_value r with Some v -> acc_put d_top d_values v | None -> ());
    match count with Some count -> ignore (count (Flex.depth r.key) (tag_of r)) | None -> ()
  in
  let doc_record = { Record.key = doc_key; kind = Record.Document; name; value = "" } in
  insert_record t doc_record;
  note doc_record;
  let add key kind nm value =
    let r = { Record.key; kind; name = nm; value } in
    insert_record t r;
    note r;
    bump doc kind 1
  in
  let rec walk key (n : Xml.Tree.node) =
    match n.Xml.Tree.kind with
    | Xml.Tree.Document -> assert false
    | Xml.Tree.Text s -> add key Record.Text "" s
    | Xml.Tree.Comment s -> add key Record.Comment "" s
    | Xml.Tree.Pi (target, data) -> add key Record.Pi target data
    | Xml.Tree.Attribute (an, av) -> add key Record.Attribute an av
    | Xml.Tree.Element en ->
        add key Record.Element en "";
        let attrs = n.Xml.Tree.attributes and children = n.Xml.Tree.children in
        let total = Array.length attrs + Array.length children in
        let comps = Array.of_list (Flex.sequence total) in
        Array.iteri (fun i c -> walk (Flex.child key comps.(i)) c) attrs;
        let na = Array.length attrs in
        Array.iteri (fun i c -> walk (Flex.child key comps.(na + i)) c) children
  in
  let top = tree.Xml.Tree.children in
  let comps = Array.of_list (Flex.sequence (Array.length top)) in
  Array.iteri (fun i c -> walk (Flex.child doc_key comps.(i)) c) top;
  t.docs <- t.docs @ [ doc ];
  bump_epoch t;
  note_doc_mutation t (Some doc);
  (* no string-value cones: a load creates only new nodes, so no existing
     node's string-value changes *)
  record_delta t ~doc:(Some doc) ~top:!d_top ~tags:(acc_keys d_tags)
    ~values:(acc_keys d_values) ~cones:[] ();
  doc

let load t ~name tree =
  (* On the file backend a load is one bulk ingest: pages stream to the data
     file without WAL traffic and the closing checkpoint makes the whole
     document durable at once (a crash or exception mid-load recovers to
     the pre-load state).  A maintained path synopsis gets the document's
     tree, built during the record walk, only once the load has succeeded. *)
  let root = Option.map (fun _ -> path_root ()) t.synopsis in
  let count = Option.map (fun root -> path_counter root 1 1) root in
  let doc = bulk_ingest t (fun () -> load_records t ~name tree ~count) in
  (match (t.synopsis, root) with
  | Some s, Some root ->
      t.synopsis <- Some { s with ps_docs = s.ps_docs @ [ (doc.doc_key, root) ] }
  | _ -> ());
  doc

let load_string t ~name src = load t ~name (Xml.Parser.parse src)
let documents t = t.docs
let find_document t name = List.find_opt (fun d -> String.equal d.doc_name name) t.docs

(* ---- record access ---- *)

let get t key = DocTree.find t.doc_index key

let get_exn t key =
  match get t key with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Mass.Store: no record at %s" (Flex.to_string key))

let subtree_bounds key =
  let lo, hi = Flex.subtree_range key in
  (key_probe lo, key_probe hi)

let string_value t key =
  match get t key with
  | None -> ""
  | Some r -> (
      match r.Record.kind with
      | Record.Text | Record.Comment -> r.Record.value
      | Record.Attribute -> r.Record.value
      | Record.Pi -> r.Record.value
      | Record.Element | Record.Document -> (
          let lo, hi = Flex.subtree_range key in
          let c = DocTree.seek t.doc_index (key_probe lo) in
          let rec texts acc =
            if DocTree.step c && Flex.bound_compare_key hi (DocTree.key c) > 0 then
              let r = DocTree.value c in
              match r.Record.kind with
              | Record.Text -> texts (r.Record.value :: acc)
              | Record.Document | Record.Element | Record.Attribute | Record.Comment
              | Record.Pi ->
                  texts acc
            else acc
          in
          (* the common single text descendant is returned without a copy *)
          match texts [] with [ s ] -> s | l -> String.concat "" (List.rev l)))

(* ---- counting (index-only) ---- *)

let scope_bounds = function
  | None -> (Flex.Min, Flex.Max)
  | Some scope -> Flex.subtree_range scope

let count_tag t ?scope tag =
  let lo, hi = scope_bounds scope in
  TagTree.count_range t.name_index ~lo:(tag_probe tag lo) ~hi:(tag_probe tag hi)

let subtree_size t key =
  let lo, hi = subtree_bounds key in
  DocTree.count_range t.doc_index ~lo ~hi

let totals t =
  List.fold_left
    (fun (e, x, a, c, p) d ->
      ( e + d.element_count,
        x + d.text_count,
        a + d.attribute_count,
        c + d.comment_count,
        p + d.pi_count ))
    (0, 0, 0, 0, 0) t.docs

let count_test t ?scope ~principal test =
  match (test : Xpath.Ast.node_test) with
  | Xpath.Ast.Name_test n ->
      let tag = match principal with Record.Attribute -> "@" ^ n | _ -> n in
      count_tag t ?scope tag
  | Xpath.Ast.Text_test -> count_tag t ?scope "#text"
  | Xpath.Ast.Comment_test -> count_tag t ?scope "#comment"
  | Xpath.Ast.Pi_test _ -> count_tag t ?scope "#pi"
  | Xpath.Ast.Wildcard | Xpath.Ast.Node_test -> (
      match scope with
      | Some key -> subtree_size t key
      | None -> (
          let e, x, a, c, p = totals t in
          match (test, principal) with
          | Xpath.Ast.Wildcard, Record.Attribute -> a
          | Xpath.Ast.Wildcard, _ -> e
          | Xpath.Ast.Node_test, Record.Attribute -> a
          | Xpath.Ast.Node_test, _ -> e + x + c + p
          | _ -> assert false))

let text_value_count t ?scope v =
  let lo, hi = scope_bounds scope in
  TagTree.count_range t.value_index ~lo:(tag_probe v lo) ~hi:(tag_probe v hi)

(* emptiness probes: a zero count from the counted indexes is a proof
   that no matching node exists (counts are exact or sound upper
   bounds), which static analysis turns into plan pruning *)
let test_present t ?scope ~principal test = count_test t ?scope ~principal test > 0
let value_present t ?scope v = text_value_count t ?scope v > 0

let total_records t = DocTree.length t.doc_index

let preorder_rank t key = DocTree.rank t.doc_index (key_probe (Flex.Before key))

let document_rank t key =
  if Flex.depth key = 0 then preorder_rank t key
  else preorder_rank t key - preorder_rank t (Flex.prefix key 1)

(* ---- cursors ---- *)

type cursor = unit -> Flex.t option

let empty_cursor () = None

let cursor_of_list keys =
  let rest = ref keys in
  fun () ->
    match !rest with
    | [] -> None
    | k :: tl ->
        rest := tl;
        Some k

(* forward scan of one tag's entries within a key range, with a key filter *)
let tag_scan tree tag ~lo ~hi ~filter =
  let c = TagTree.seek tree (tag_probe tag lo) in
  let rec pull () =
    if not (TagTree.step c) then None
    else
      let tag', k = TagTree.key c in
      if not (String.equal tag' tag && Flex.bound_compare_key hi k > 0) then None
      else if filter k then Some k
      else pull ()
  in
  pull

(* reverse scan of one tag's entries, starting just before [hi] *)
let tag_scan_rev tree tag ~lo ~hi ~filter =
  let c = TagTree.seek tree (tag_probe tag hi) in
  let rec pull () =
    if not (TagTree.step_back c) then None
    else
      let tag', k = TagTree.key c in
      if not (String.equal tag' tag && Flex.bound_compare_key lo k < 0) then None
      else if filter k then Some k
      else pull ()
  in
  pull

(* forward scan of the clustered index over a key range *)
let doc_scan t ~lo ~hi ~filter =
  let c = DocTree.seek t.doc_index (key_probe lo) in
  let rec pull () =
    if not (DocTree.step c && Flex.bound_compare_key hi (DocTree.key c) > 0) then None
    else if filter (DocTree.key c) (DocTree.value c) then Some (DocTree.key c)
    else pull ()
  in
  pull

(* reverse scan of the clustered index, starting just before [hi] *)
let doc_scan_rev t ~lo ~hi ~filter =
  let c = DocTree.seek t.doc_index (key_probe hi) in
  let rec pull () =
    if not (DocTree.step_back c && Flex.bound_compare_key lo (DocTree.key c) < 0) then None
    else if filter (DocTree.key c) (DocTree.value c) then Some (DocTree.key c)
    else pull ()
  in
  pull

(* children of [parent] by skipping each child's subtree with a fresh
   O(log n) seek — the clustered-index "jump" the paper credits MASS with *)
let child_skip_scan t parent ~yield =
  let state = ref (Flex.After_key parent) in
  let _, stop = Flex.subtree_range parent in
  let rec pull () =
    let c = DocTree.seek t.doc_index (key_probe !state) in
    if not (DocTree.step c && Flex.bound_compare_key stop (DocTree.key c) > 0) then None
    else begin
      let k = DocTree.key c in
      state := Flex.After_subtree k;
      if yield k (DocTree.value c) then Some k else pull ()
    end
  in
  pull

let non_attribute (r : Record.t) = r.Record.kind <> Record.Attribute

let is_attribute t key =
  match get t key with
  | Some { Record.kind = Record.Attribute; _ } -> true
  | _ -> false

(* Per-context node tests of the upward axes, answered from whichever
   index is warm.  The element at [key] is named [name] when a clustered
   leaf finger already covers [key] and its record says so (one pinned
   leaf away); otherwise the name index answers by membership of
   ([name], [key]): its fingers stay on the tag's dense key range while
   the contexts arrive in document order.  The membership probe passes
   the tag and key apart, so it allocates no tuple. *)
let tag_key_cmp tag k (tag', k') =
  let c = String.compare tag' tag in
  if c <> 0 then c else Flex.compare k' k

let element_named t name key =
  match DocTree.find_warm t.doc_index key with
  | Some r -> r.Record.kind = Record.Element && String.equal r.Record.name name
  | None -> TagTree.mem_by t.name_index tag_key_cmp name key

(* A proper ancestor's kind follows from its depth, so only a name test
   needs an index: only elements and document nodes have children, the
   document nodes sit at depth 1, and depth 0 is the store root, which is
   not a node.  The upward axes' principal kind is the element. *)
let ancestor_matches t (test : Xpath.Ast.node_test) key depth =
  match test with
  | Xpath.Ast.Name_test n -> depth >= 2 && element_named t n key
  | Xpath.Ast.Wildcard -> depth >= 2
  | Xpath.Ast.Node_test -> depth >= 1
  | Xpath.Ast.Text_test | Xpath.Ast.Comment_test | Xpath.Ast.Pi_test _ -> false

(* the self axis: a name test needs no record either *)
let self_matches t ~principal (test : Xpath.Ast.node_test) key =
  match (test, principal) with
  | Xpath.Ast.Name_test n, Record.Element -> element_named t n key
  | _ -> (
      match get t key with
      | Some r -> Record.matches_test ~principal test r
      | None -> false)

(* a node of the tree axes (not an attribute) that passes the node test *)
let tree_node_matches ~principal test r =
  non_attribute r && Record.matches_test ~principal test r

(* named tag for index-driven evaluation, when the node test pins one *)
let tag_for_test ~principal (test : Xpath.Ast.node_test) =
  match test with
  | Xpath.Ast.Name_test n -> (
      match (principal : Record.kind) with
      | Record.Attribute -> Some ("@" ^ n)
      | _ -> Some n)
  | Xpath.Ast.Text_test -> Some "#text"
  | Xpath.Ast.Comment_test -> Some "#comment"
  | Xpath.Ast.Pi_test None -> Some "#pi"
  | Xpath.Ast.Pi_test (Some _) -> None (* target needs the record *)
  | Xpath.Ast.Wildcard | Xpath.Ast.Node_test -> None

let axis_cursor ?(element_context = false) t (axis : Xpath.Ast.axis) test ctx : cursor =
  let principal =
    match axis with Xpath.Ast.Attribute -> Record.Attribute | _ -> Record.Element
  in
  let depth = Flex.depth ctx in
  let named = tag_for_test ~principal test in
  (* no local helper closures: a cursor open is on the hot path, and a
     closure costs its allocation in every branch, needed or not *)
  match axis with
  | Xpath.Ast.Self ->
      let done_ = ref false in
      fun () ->
        if !done_ then None
        else begin
          done_ := true;
          if self_matches t ~principal test ctx then Some ctx else None
        end
  | Xpath.Ast.Child -> (
      let lo, hi = Flex.descendants_range ctx in
      match named with
      | Some tag ->
          tag_scan t.name_index tag ~lo ~hi ~filter:(Flex.is_parent ctx)
      | None ->
          child_skip_scan t ctx ~yield:(fun _ r -> tree_node_matches ~principal test r))
  | Xpath.Ast.Descendant -> (
      let lo, hi = Flex.descendants_range ctx in
      match named with
      | Some tag -> tag_scan t.name_index tag ~lo ~hi ~filter:(fun _ -> true)
      | None -> doc_scan t ~lo ~hi ~filter:(fun _ r -> tree_node_matches ~principal test r))
  | Xpath.Ast.Descendant_or_self -> (
      let lo, hi = Flex.subtree_range ctx in
      match named with
      | Some tag -> tag_scan t.name_index tag ~lo ~hi ~filter:(fun _ -> true)
      | None ->
          (* the context node itself stays in even when it is an attribute *)
          doc_scan t ~lo ~hi ~filter:(fun k r ->
              (non_attribute r || Flex.equal k ctx) && Record.matches_test ~principal test r))
  | Xpath.Ast.Attribute -> (
      let lo, hi = Flex.descendants_range ctx in
      (* only a name test can ride the name index here: the attribute axis
         contains attribute nodes only, so kind tests select nothing *)
      match test with
      | Xpath.Ast.Name_test n ->
          tag_scan t.name_index ("@" ^ n) ~lo ~hi ~filter:(Flex.is_parent ctx)
      | Xpath.Ast.Wildcard | Xpath.Ast.Node_test ->
          child_skip_scan t ctx ~yield:(fun _ r -> r.Record.kind = Record.Attribute)
      | Xpath.Ast.Text_test | Xpath.Ast.Comment_test | Xpath.Ast.Pi_test _ -> empty_cursor)
  | Xpath.Ast.Parent -> (
      match Flex.parent ctx with
      | Some p when ancestor_matches t test p (depth - 1) -> cursor_of_list [ p ]
      | Some _ | None -> empty_cursor)
  | Xpath.Ast.Ancestor | Xpath.Ast.Ancestor_or_self ->
      (* proximity order: nearest ancestor first, up to the document node
         (the store root above it is not a node) *)
      let self = ref (axis = Xpath.Ast.Ancestor_or_self) in
      let next = ref ctx and d = ref depth in
      let rec pull () =
        if !self then begin
          self := false;
          if self_matches t ~principal test ctx then Some ctx else pull ()
        end
        else if !d <= 1 then None
        else begin
          next := Flex.prefix !next (!d - 1);
          decr d;
          if ancestor_matches t test !next !d then Some !next else pull ()
        end
      in
      pull
  | Xpath.Ast.Following when depth = 0 -> empty_cursor
  | Xpath.Ast.Following -> (
      let lo = Flex.After_subtree ctx in
      let _, hi = Flex.subtree_range (Flex.prefix ctx 1) in
      match named with
      | Some tag -> tag_scan t.name_index tag ~lo ~hi ~filter:(fun _ -> true)
      | None -> doc_scan t ~lo ~hi ~filter:(fun _ r -> tree_node_matches ~principal test r))
  | Xpath.Ast.Preceding when depth = 0 -> empty_cursor
  | Xpath.Ast.Preceding -> (
      let lo, _ = Flex.descendants_range (Flex.prefix ctx 1) in
      let hi = Flex.Before ctx in
      let not_ancestor k = not (Flex.is_ancestor k ctx) in
      match named with
      | Some tag -> tag_scan_rev t.name_index tag ~lo ~hi ~filter:not_ancestor
      | None ->
          doc_scan_rev t ~lo ~hi ~filter:(fun k r ->
              not_ancestor k && tree_node_matches ~principal test r))
  | Xpath.Ast.Following_sibling -> (
      match Flex.parent ctx with
      | None -> empty_cursor
      (* a document node's Flex parent is the store root, but in the data
         model documents have no siblings — without this guard the axis
         would leak the other documents of a multi-document store *)
      | Some _ when depth <= 1 -> empty_cursor
      | Some _ when (not element_context) && is_attribute t ctx ->
          (* attribute nodes have no siblings *)
          empty_cursor
      | Some p -> (
          let lo = Flex.After_subtree ctx in
          let _, hi = Flex.subtree_range p in
          match named with
          | Some tag ->
              tag_scan t.name_index tag ~lo ~hi ~filter:(Flex.is_parent p)
          | None ->
              let state = ref lo in
              let rec pull () =
                let c = DocTree.seek t.doc_index (key_probe !state) in
                if not (DocTree.step c && Flex.bound_compare_key hi (DocTree.key c) > 0) then
                  None
                else begin
                  let k = DocTree.key c and r = DocTree.value c in
                  state := Flex.After_subtree k;
                  if tree_node_matches ~principal test r then Some k else pull ()
                end
              in
              pull))
  | Xpath.Ast.Preceding_sibling -> (
      match Flex.parent ctx with
      | None -> empty_cursor
      | Some _ when depth <= 1 -> empty_cursor
      | Some _ when (not element_context) && is_attribute t ctx -> empty_cursor
      | Some p -> (
          let lo, _ = Flex.descendants_range p in
          let hi = Flex.Before ctx in
          match named with
          | Some tag ->
              tag_scan_rev t.name_index tag ~lo ~hi ~filter:(Flex.is_parent p)
          | None ->
              (* reverse child scan: truncating any descendant to the
                 sibling depth jumps straight to the sibling *)
              let state = ref hi in
              let rec pull () =
                let c = DocTree.seek t.doc_index (key_probe !state) in
                if not (DocTree.step_back c && Flex.bound_compare_key lo (DocTree.key c) < 0)
                then None
                else begin
                  let sibling = Flex.prefix (DocTree.key c) depth in
                  state := Flex.Before sibling;
                  match get t sibling with
                  | Some r when tree_node_matches ~principal test r -> Some sibling
                  | _ -> pull ()
                end
              in
              pull))
  | Xpath.Ast.Namespace -> empty_cursor

let test_cursor ?scope t ~principal test =
  let lo, hi = scope_bounds scope in
  match tag_for_test ~principal test with
  | Some tag -> tag_scan t.name_index tag ~lo ~hi ~filter:(fun _ -> true)
  | None ->
      let kind_ok (r : Record.t) =
        match (principal : Record.kind) with
        | Record.Attribute -> r.kind = Record.Attribute
        | _ -> r.kind <> Record.Attribute
      in
      doc_scan t ~lo ~hi ~filter:(fun _ r ->
          kind_ok r && Record.matches_test ~principal test r)

let value_cursor ?scope t v =
  let lo, hi = scope_bounds scope in
  tag_scan t.value_index v ~lo ~hi ~filter:(fun _ -> true)

let value_range_cursor ?scope t ~lo ~hi =
  let klo, khi = scope_bounds scope in
  let start_probe (tag, k) =
    match lo with
    | None -> 0
    | Some l ->
        let c = String.compare tag l in
        if c <> 0 then c else key_probe klo k
  in
  let c = TagTree.seek t.value_index start_probe in
  let rec pull () =
    if not (TagTree.step c) then None
    else
      let tag, k = TagTree.key c in
      match hi with
      | Some h when String.compare tag h > 0 -> None
      | _ -> if Flex.key_in_range ~lo:klo ~hi:khi k then Some k else pull ()
  in
  pull

let fold_document t doc f init =
  let lo, hi = Flex.subtree_range doc.doc_key in
  let c = DocTree.seek t.doc_index (key_probe lo) in
  let rec go acc =
    if DocTree.step c && Flex.bound_compare_key hi (DocTree.key c) > 0 then
      go (f acc (DocTree.key c) (DocTree.value c))
    else acc
  in
  go init

let iter_document t doc f = fold_document t doc (fun () k r -> f k r) ()

(* ---- path synopsis ---- *)

let scan_path_synopsis t =
  let scan doc =
    let root = path_root () in
    let count = path_counter root 1 1 in
    iter_document t doc (fun key r -> ignore (count (Flex.depth key) (tag_of r)));
    (doc.doc_key, root)
  in
  { ps_epoch = t.epoch; ps_docs = List.map scan t.docs }

let path_synopsis t =
  match t.synopsis with
  | Some s when s.ps_epoch = t.epoch -> s
  | stale ->
      let s =
        match stale with Some s -> { s with ps_epoch = t.epoch } | None -> scan_path_synopsis t
      in
      t.synopsis <- Some s;
      s

(* ---- dynamic updates ---- *)

let child_components t parent =
  let scan = child_skip_scan t parent ~yield:(fun _ _ -> true) in
  let rec go acc =
    match scan () with
    | Some k -> (
        match Flex.last_component k with Some c -> go (c :: acc) | None -> go acc)
    | None -> List.rev acc
  in
  go []

(* {!tag_of} spellings of the records from the document record down to
   [key] (included): its path in the synopsis, "#document" first. *)
let tag_path t key =
  let rec go acc k =
    if Flex.depth k = 0 then acc
    else
      let acc = match get t k with Some r -> tag_of r :: acc | None -> acc in
      match Flex.parent k with Some p -> go acc p | None -> acc
  in
  go [] key

(* Element tags on a tag path (plus the document string-value): the nodes
   whose XPath string-value changes when a text node appears or
   disappears below the path's end. *)
let path_cones path =
  "#document" :: List.filter (fun tag -> tag.[0] <> '#' && tag.[0] <> '@') path

(* the synopsis node of a tag path under its document's root *)
let path_node root path = List.fold_left path_child root (List.tl path)

let insert_element t ~parent ?after name attrs text =
  (match get t parent with
  | Some { Record.kind = Record.Element | Record.Document; _ } -> ()
  | Some _ -> invalid_arg "Mass.Store.insert_element: parent cannot hold children"
  | None -> invalid_arg "Mass.Store.insert_element: unknown parent");
  let siblings = child_components t parent in
  let lo, hi =
    match after with
    | None -> (
        (* append after the last existing child *)
        match List.rev siblings with last :: _ -> (Some last, None) | [] -> (None, None))
    | Some sib ->
        (match Flex.parent sib with
        | Some p when Flex.equal p parent -> ()
        | _ -> invalid_arg "Mass.Store.insert_element: 'after' is not a child of parent");
        let sc = Option.get (Flex.last_component sib) in
        let next = List.find_opt (fun c -> String.compare c sc > 0) siblings in
        (Some sc, next)
  in
  let comp = Flex.between lo hi in
  let key = Flex.child parent comp in
  let doc = doc_of_key t key in
  let parent_path = lazy (tag_path t parent) in
  (* the new element's synopsis node; its attributes and text hang below *)
  let elem_node =
    Option.map
      (fun root -> path_child (path_node root (Lazy.force parent_path)) name)
      (synopsis_root t doc)
  in
  let add k kind nm value =
    let r = { Record.key = k; kind; name = nm; value } in
    insert_record t r;
    (match doc with Some d -> bump d kind 1 | None -> ());
    match elem_node with
    | Some e ->
        let n = if kind = Record.Element then e else path_child e (tag_of r) in
        n.syn_count <- n.syn_count + 1
    | None -> ()
  in
  add key Record.Element name "";
  let inner = Flex.sequence (List.length attrs + if text = None then 0 else 1) in
  List.iteri (fun i (an, av) -> add (Flex.child key (List.nth inner i)) Record.Attribute an av) attrs;
  (match text with
  | Some s ->
      add (Flex.child key (List.nth inner (List.length attrs))) Record.Text "" s
  | None -> ());
  bump_epoch t;
  note_doc_mutation t doc;
  let tags =
    (name :: List.map (fun (an, _) -> "@" ^ an) attrs)
    @ (if text = None then [] else [ "#text" ])
  in
  let values = List.map snd attrs @ Option.to_list text in
  (* a text child changes the string-value of every ancestor element (the
     new element's own string-value is covered by its tag atom) *)
  let cones = if text = None then [] else path_cones (Lazy.force parent_path) in
  record_delta t ~doc ~tags ~values ~cones ();
  key

let delete_subtree t key =
  let lo, hi = Flex.subtree_range key in
  let doc = doc_of_key t key in
  (* the ancestor chain must be resolved before the subtree disappears *)
  let path = tag_path t key in
  let syn = synopsis_root t doc in
  (* (depth, tag) of the removed records, in document order *)
  let removed = ref [] in
  (* collect first: deleting invalidates cursors *)
  let scan = doc_scan t ~lo ~hi ~filter:(fun _ _ -> true) in
  let rec collect acc =
    match scan () with
    | Some k -> collect (k :: acc)
    | None -> acc
  in
  let keys = collect [] in
  let n = List.length keys in
  let d_top = ref false in
  let d_tags = Hashtbl.create 32
  and d_values = Hashtbl.create 32
  and d_elems = Hashtbl.create 32 in
  let has_text = ref false in
  List.iter
    (fun k ->
      match get t k with
      | Some r ->
          acc_put d_top d_tags (tag_of r);
          (match indexed_value r with Some v -> acc_put d_top d_values v | None -> ());
          (match r.Record.kind with
          | Record.Text -> has_text := true
          | Record.Element -> acc_put d_top d_elems r.Record.name
          | _ -> ());
          remove_record t r;
          (match doc with Some d -> bump d r.Record.kind (-1) | None -> ());
          if Option.is_some syn then removed := (Flex.depth k, tag_of r) :: !removed
      | None -> ())
    keys;
  (match (syn, !removed) with
  | Some root, (depth0, _) :: _ ->
      (* subtract one per record; a path left at 0 is unlinked with its
         (all-zero) subtree, so the tree stays equal to a fresh scan.  A
         document root stays until [remove_document] drops it. *)
      let count = path_counter (path_node root path) depth0 (-1) in
      let emptied = ref [] in
      List.iter
        (fun (depth, tag) ->
          let n = count depth tag in
          if n.syn_count = 0 then emptied := n :: !emptied)
        !removed;
      List.iter
        (fun n ->
          match n.syn_parent with
          | Some p -> p.syn_children <- List.filter (fun c -> c != n) p.syn_children
          | None -> ())
        !emptied
  | _ -> ());
  bump_epoch t;
  note_doc_mutation t doc;
  (* deleted text changed the string-value of its ancestors: any element
     inside the subtree (a sound over-approximation of the text's actual
     ancestors there) plus the chain above the subtree root *)
  let cones = if !has_text then path_cones path @ acc_keys d_elems else [] in
  record_delta t ~doc ~top:!d_top ~tags:(acc_keys d_tags) ~values:(acc_keys d_values)
    ~cones ();
  n

let remove_document t doc =
  (* one commit covering both the subtree deletion and the catalog update *)
  let saved = t.autocommit in
  t.autocommit <- false;
  Fun.protect
    ~finally:(fun () -> t.autocommit <- saved)
    (fun () -> ignore (delete_subtree t doc.doc_key));
  t.docs <- List.filter (fun d -> d.doc_id <> doc.doc_id) t.docs;
  t.synopsis <-
    Option.map
      (fun s ->
        { s with ps_docs = List.filter (fun (k, _) -> not (Flex.equal k doc.doc_key)) s.ps_docs })
      t.synopsis;
  Hashtbl.remove t.doc_epochs doc.doc_id;
  maybe_commit t

let root_element_key doc t =
  let scan =
    child_skip_scan t doc.doc_key ~yield:(fun _ r -> r.Record.kind = Record.Element)
  in
  scan ()

(* aggregate per-tag entry counts by one index sweep *)
let tag_statistics tree =
  let counts = Hashtbl.create 256 in
  TagTree.iter
    (fun (tag, _) () ->
      Hashtbl.replace counts tag (1 + Option.value ~default:0 (Hashtbl.find_opt counts tag)))
    tree;
  Hashtbl.fold (fun tag n acc -> (tag, n) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let name_statistics t = tag_statistics t.name_index
let value_statistics t = tag_statistics t.value_index

(* ---- subtree reconstruction ---- *)

let to_tree t key =
  match get t key with
  | None -> None
  | Some root_record ->
      (* one clustered scan of the subtree, rebuilding the spec bottom-up
         via a stack of open elements *)
      let lo, hi = Flex.subtree_range key in
      let records =
        let c = DocTree.seek t.doc_index (key_probe lo) in
        let rec go acc =
          if DocTree.step c && Flex.bound_compare_key hi (DocTree.key c) > 0 then
            go ((DocTree.key c, DocTree.value c) :: acc)
          else List.rev acc
        in
        go []
      in
      let spec_of_leaf (r : Record.t) =
        match r.kind with
        | Record.Text -> Some (Xml.Tree.D r.value)
        | Record.Comment -> Some (Xml.Tree.Cm r.value)
        | Record.Pi -> Some (Xml.Tree.Proc (r.name, r.value))
        | Record.Element | Record.Attribute | Record.Document -> None
      in
      (* frame: element key, name, collected attrs (rev), children (rev) *)
      let rec close_to depth stack =
        match stack with
        | (k, name, attrs, children) :: (pk, pname, pattrs, pchildren) :: rest
          when Flex.depth k > depth ->
            let e = Xml.Tree.E (name, List.rev attrs, List.rev children) in
            close_to depth ((pk, pname, pattrs, e :: pchildren) :: rest)
        | _ -> stack
      in
      let push stack (k, (r : Record.t)) =
        (* a record at depth d terminates every open frame at depth >= d *)
        let stack = close_to (Flex.depth k - 1) stack in
        match r.kind with
        | Record.Element | Record.Document -> (k, r.name, [], []) :: stack
        | Record.Attribute -> (
            match stack with
            | (pk, pname, pattrs, pchildren) :: rest ->
                (pk, pname, (r.name, r.value) :: pattrs, pchildren) :: rest
            | [] -> stack)
        | Record.Text | Record.Comment | Record.Pi -> (
            match (spec_of_leaf r, stack) with
            | Some spec, (pk, pname, pattrs, pchildren) :: rest ->
                (pk, pname, pattrs, spec :: pchildren) :: rest
            | _, _ -> stack)
      in
      let stack = List.fold_left push [] records in
      let stack = close_to (Flex.depth key) stack in
      (match (root_record.Record.kind, stack) with
      | Record.Document, [ (_, _, _, children) ] -> Some (Xml.Tree.document (List.rev children))
      | Record.Element, [ (_, name, attrs, children) ] ->
          Some (Xml.Tree.document [ Xml.Tree.E (name, List.rev attrs, List.rev children) ])
      | _ -> None)

let to_xml ?indent t key =
  match get t key with
  | None -> None
  | Some { Record.kind = Record.Document; _ } ->
      Option.map (Xml.Writer.to_string ?indent) (to_tree t key)
  | Some { Record.kind = Record.Element; _ } ->
      Option.map
        (fun tree -> Xml.Writer.to_string ?indent (Xml.Tree.root_element tree))
        (to_tree t key)
  | Some ({ Record.kind = Record.Attribute | Record.Text | Record.Comment | Record.Pi; _ } as r)
    ->
      Some r.Record.value

(* ---- integrity validation (test support) ---- *)

let validate t =
  let fail fmt = Format.kasprintf failwith fmt in
  (* every clustered record must have exactly its index entries *)
  let doc_records = ref 0 in
  List.iter
    (fun d ->
      ignore
        (fold_document t d
           (fun () k (r : Record.t) ->
             incr doc_records;
             if not (Flex.equal k r.key) then fail "record key mismatch at %s" (Flex.to_string k);
             if not (TagTree.mem t.name_index (tag_of r, k)) then
               fail "missing name-index entry for %s" (Flex.to_string k);
             match indexed_value r with
             | Some v ->
                 if not (TagTree.mem t.value_index (v, k)) then
                   fail "missing value-index entry for %s" (Flex.to_string k)
             | None -> ())
           ()))
    t.docs;
  if !doc_records <> total_records t then
    fail "documents cover %d records, doc index holds %d" !doc_records (total_records t);
  (* no dangling name/value entries *)
  TagTree.iter
    (fun (tag, k) () ->
      match get t k with
      | Some r -> if not (String.equal (tag_of r) tag) then fail "stale name entry %s" tag
      | None -> fail "dangling name-index entry (%s, %s)" tag (Flex.to_string k))
    t.name_index;
  TagTree.iter
    (fun (v, k) () ->
      match get t k with
      | Some r -> (
          match indexed_value r with
          | Some v' when String.equal v v' -> ()
          | _ -> fail "stale value entry %S" v)
      | None -> fail "dangling value-index entry (%S, %s)" v (Flex.to_string k))
    t.value_index;
  (* per-document counters match reality *)
  List.iter
    (fun d ->
      let e = ref 0 and x = ref 0 and a = ref 0 and c = ref 0 and p = ref 0 in
      iter_document t d (fun _ r ->
          match r.Record.kind with
          | Record.Element -> incr e
          | Record.Text -> incr x
          | Record.Attribute -> incr a
          | Record.Comment -> incr c
          | Record.Pi -> incr p
          | Record.Document -> ());
      if !e <> d.element_count then fail "%s: element counter %d <> %d" d.doc_name d.element_count !e;
      if !x <> d.text_count then fail "%s: text counter" d.doc_name;
      if !a <> d.attribute_count then fail "%s: attribute counter" d.doc_name;
      if !c <> d.comment_count then fail "%s: comment counter" d.doc_name;
      if !p <> d.pi_count then fail "%s: pi counter" d.doc_name)
    t.docs

(* ---- persistence ----

   Snapshot format (versioned, little-endian):
     magic "MASSSNAP" + u64 version
     u64 document count, then per document:
       string name, string encoded doc key, 5 x u64 kind counters
     u64 record count, then per record:
       string encoded key, u8 kind, string name, string value
   Records are written in document order, so reloading re-inserts them in
   sorted order (the B+-trees' best case). *)

let snapshot_magic = "MASSSNAP"
let snapshot_version = 1L

let write_u64 buf n = Buffer.add_int64_le buf (Int64.of_int n)

let write_string buf s =
  write_u64 buf (String.length s);
  Buffer.add_string buf s

let save_file t path =
  let buf = Buffer.create (1 lsl 20) in
  Buffer.add_string buf snapshot_magic;
  Buffer.add_int64_le buf snapshot_version;
  write_u64 buf (List.length t.docs);
  List.iter
    (fun d ->
      write_string buf d.doc_name;
      write_string buf (Flex.encode d.doc_key);
      write_u64 buf d.element_count;
      write_u64 buf d.text_count;
      write_u64 buf d.attribute_count;
      write_u64 buf d.comment_count;
      write_u64 buf d.pi_count)
    t.docs;
  write_u64 buf (total_records t);
  List.iter
    (fun d ->
      ignore
        (fold_document t d
           (fun () _ (r : Record.t) ->
             write_string buf (Flex.encode r.key);
             Buffer.add_uint8 buf (kind_code r.kind);
             write_string buf r.name;
             write_string buf r.value)
           ()))
    t.docs;
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc

exception Corrupt_snapshot of string

let load_file ?pool_pages ?order ?backend path =
  let ic = open_in_bin path in
  let fail msg =
    close_in ic;
    raise (Corrupt_snapshot (Printf.sprintf "%s: %s" path msg))
  in
  let read_exact n =
    match really_input_string ic n with
    | s -> s
    | exception End_of_file -> fail "truncated"
  in
  let read_u64 () =
    let s = read_exact 8 in
    let n = Int64.to_int (String.get_int64_le s 0) in
    if n < 0 then fail "negative length" else n
  in
  let read_string () = read_exact (read_u64 ()) in
  let read_key () =
    match Flex.decode (read_string ()) with
    | k -> k
    | exception Invalid_argument msg -> fail msg
  in
  if not (String.equal (read_exact (String.length snapshot_magic)) snapshot_magic) then
    fail "bad magic";
  let version = String.get_int64_le (read_exact 8) 0 in
  if version <> snapshot_version then fail (Printf.sprintf "unsupported version %Ld" version);
  let t = create ?pool_pages ?order ?backend () in
  bulk_ingest t @@ fun () ->
  let ndocs = read_u64 () in
  let docs =
    List.init ndocs (fun i ->
        let doc_name = read_string () in
        let doc_key = read_key () in
        let element_count = read_u64 () in
        let text_count = read_u64 () in
        let attribute_count = read_u64 () in
        let comment_count = read_u64 () in
        let pi_count = read_u64 () in
        { doc_id = i; doc_name; doc_key; element_count; text_count; attribute_count;
          comment_count; pi_count })
  in
  t.docs <- docs;
  t.next_doc_id <- ndocs;
  let nrecords = read_u64 () in
  for _ = 1 to nrecords do
    let key = read_key () in
    let kind =
      match kind_of_code (Char.code (read_exact 1).[0]) with
      | k -> k
      | exception Failure msg -> fail msg
    in
    let name = read_string () in
    let value = read_string () in
    insert_record t { Record.key; kind; name; value }
  done;
  (* trailing garbage indicates corruption *)
  (match input_char ic with
  | _ -> fail "trailing data"
  | exception End_of_file -> ());
  close_in ic;
  t

(* ---- statistics ---- *)

type statistics = {
  record_count : int;
  document_count : int;
  doc_index_pages : int;
  name_index_pages : int;
  value_index_pages : int;
  doc_index_height : int;
  tuples_per_page : float;
  io : Storage.Stats.t;
}

(* live per-index counters: the mutable Stats records of each pager, so
   callers snapshot with [Stats.copy] and diff around a query to
   attribute page traffic to an individual index *)
let io_by_index t =
  [ ("doc_index", DocTree.stats t.doc_index);
    ("name_index", TagTree.stats t.name_index);
    ("value_index", TagTree.stats t.value_index) ]

type pool_info = {
  pool_index : string;
  pool_capacity : int;  (** configured pool size, pages *)
  pool_resident : int;
  pool_pages_total : int;  (** live pages, resident or not *)
  pool_io : Storage.Stats.t;  (** snapshot, not live *)
}

let pool_by_index t =
  [ { pool_index = "doc_index";
      pool_capacity = DocTree.pool_pages t.doc_index;
      pool_resident = DocTree.resident_count t.doc_index;
      pool_pages_total = DocTree.page_count t.doc_index;
      pool_io = Storage.Stats.copy (DocTree.stats t.doc_index) };
    { pool_index = "name_index";
      pool_capacity = TagTree.pool_pages t.name_index;
      pool_resident = TagTree.resident_count t.name_index;
      pool_pages_total = TagTree.page_count t.name_index;
      pool_io = Storage.Stats.copy (TagTree.stats t.name_index) };
    { pool_index = "value_index";
      pool_capacity = TagTree.pool_pages t.value_index;
      pool_resident = TagTree.resident_count t.value_index;
      pool_pages_total = TagTree.page_count t.value_index;
      pool_io = Storage.Stats.copy (TagTree.stats t.value_index) } ]

let document_of_key = doc_of_key

let io_stats t =
  let acc = Storage.Stats.create () in
  let add (s : Storage.Stats.t) =
    acc.Storage.Stats.logical_reads <- acc.Storage.Stats.logical_reads + s.Storage.Stats.logical_reads;
    acc.Storage.Stats.physical_reads <- acc.Storage.Stats.physical_reads + s.Storage.Stats.physical_reads;
    acc.Storage.Stats.page_writes <- acc.Storage.Stats.page_writes + s.Storage.Stats.page_writes;
    acc.Storage.Stats.evictions <- acc.Storage.Stats.evictions + s.Storage.Stats.evictions;
    acc.Storage.Stats.allocations <- acc.Storage.Stats.allocations + s.Storage.Stats.allocations;
    acc.Storage.Stats.write_back_bytes <-
      acc.Storage.Stats.write_back_bytes + s.Storage.Stats.write_back_bytes;
    acc.Storage.Stats.fsyncs <- acc.Storage.Stats.fsyncs + s.Storage.Stats.fsyncs
  in
  add (DocTree.stats t.doc_index);
  add (TagTree.stats t.name_index);
  add (TagTree.stats t.value_index);
  acc

let reset_io_stats t =
  Storage.Stats.reset (DocTree.stats t.doc_index);
  Storage.Stats.reset (TagTree.stats t.name_index);
  Storage.Stats.reset (TagTree.stats t.value_index)

type structure = {
  s_max_depth : int;
  s_depths : (int * int) list;
  s_fanouts : (int * int) list;
  s_max_fanout : int;
  s_mean_fanout : float;
}

(* one clustered scan; fanout falls out of a stack of open containers
   (document-order means every record closes all deeper frames first) *)
let structure_statistics t doc =
  let depth0 = Flex.depth doc.doc_key in
  let depths = Hashtbl.create 32 in
  let fanouts = Hashtbl.create 64 in
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let stack = ref [] in
  let rec close_to d =
    match !stack with
    | (sd, n) :: rest when sd >= d ->
        bump fanouts !n;
        stack := rest;
        close_to d
    | _ -> ()
  in
  iter_document t doc (fun k (r : Record.t) ->
      let d = Flex.depth k in
      bump depths (d - depth0);
      close_to d;
      (match !stack with (_, n) :: _ -> incr n | [] -> ());
      match r.Record.kind with
      | Record.Element | Record.Document -> stack := (d, ref 0) :: !stack
      | Record.Attribute | Record.Text | Record.Comment | Record.Pi -> ());
  close_to depth0;
  let sorted tbl =
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let s_depths = sorted depths and s_fanouts = sorted fanouts in
  let containers = List.fold_left (fun acc (_, n) -> acc + n) 0 s_fanouts in
  let children = List.fold_left (fun acc (f, n) -> acc + (f * n)) 0 s_fanouts in
  {
    s_max_depth = List.fold_left (fun acc (d, _) -> max acc d) 0 s_depths;
    s_depths;
    s_fanouts;
    s_max_fanout = List.fold_left (fun acc (f, _) -> max acc f) 0 s_fanouts;
    s_mean_fanout =
      (if containers = 0 then 0.0 else float_of_int children /. float_of_int containers);
  }

let statistics t =
  let records = total_records t in
  let doc_pages = DocTree.page_count t.doc_index in
  {
    record_count = records;
    document_count = List.length t.docs;
    doc_index_pages = doc_pages;
    name_index_pages = TagTree.page_count t.name_index;
    value_index_pages = TagTree.page_count t.value_index;
    doc_index_height = DocTree.height t.doc_index;
    tuples_per_page = (if doc_pages = 0 then 0.0 else float_of_int records /. float_of_int doc_pages);
    io = io_stats t;
  }
