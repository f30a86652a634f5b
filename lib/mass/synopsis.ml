(* DataGuide-style path synopsis over a MASS store.

   One node per distinct root-to-tag path, labelled with {!Store.tag_of}
   spellings and carrying the exact number of records on that path.
   Built in a single document-order scan (parents precede children, so a
   depth-indexed stack of synopsis nodes suffices), rebuilt lazily and
   invalidated by the store epoch like the engine's plan caches.

   The synopsis instantiates {!Xpath.Typecheck.schema}, which is where
   all axis reasoning lives; this module only owns the tree, its
   construction, and the store-facing cache. *)

type node = {
  syn_tag : string;
  syn_parent : node option;
  mutable syn_count : int;
  mutable syn_children : node list;  (* sorted by tag once built *)
}

type t = {
  syn_epoch : int;  (** store epoch the synopsis was derived at *)
  syn_docs : (Flex.t * node) list;  (** document key → "#document" synopsis node *)
  syn_paths : int;  (** distinct root-to-tag paths *)
  syn_records : int;  (** records summarized (including document records) *)
}

let epoch t = t.syn_epoch
let paths t = t.syn_paths
let records t = t.syn_records

let rec sort_tree n =
  let children =
    List.sort (fun a b -> String.compare a.syn_tag b.syn_tag) n.syn_children
  in
  n.syn_children <- children;
  List.iter sort_tree children

let build_doc store (doc : Store.doc) =
  let root =
    { syn_tag = "#document"; syn_parent = None; syn_count = 0; syn_children = [] }
  in
  (* stack.(d) = synopsis node of the record currently open at depth d+1;
     document order guarantees a record's parent was seen first *)
  let stack = ref (Array.make 16 root) in
  let ensure d =
    if d >= Array.length !stack then begin
      let bigger = Array.make (2 * d) root in
      Array.blit !stack 0 bigger 0 (Array.length !stack);
      stack := bigger
    end
  in
  Store.iter_document store doc (fun key record ->
      let d = Flex.depth key in
      ensure d;
      if d = 1 then begin
        root.syn_count <- root.syn_count + 1;
        !stack.(0) <- root
      end
      else begin
        let parent = !stack.(d - 2) in
        let tag = Store.tag_of record in
        let n =
          match List.find_opt (fun c -> c.syn_tag = tag) parent.syn_children with
          | Some c -> c
          | None ->
              let c =
                { syn_tag = tag; syn_parent = Some parent; syn_count = 0; syn_children = [] }
              in
              parent.syn_children <- c :: parent.syn_children;
              c
        in
        n.syn_count <- n.syn_count + 1;
        !stack.(d - 1) <- n
      end);
  sort_tree root;
  (doc.Store.doc_key, root)

let rec tree_stats n (paths, records) =
  List.fold_left
    (fun acc c -> tree_stats c acc)
    (paths + 1, records + n.syn_count)
    n.syn_children

let build store =
  let ep = Store.epoch store in
  let docs = List.map (build_doc store) (Store.documents store) in
  let paths, records =
    List.fold_left (fun acc (_, root) -> tree_stats root acc) (0, 0) docs
  in
  { syn_epoch = ep; syn_docs = docs; syn_paths = paths; syn_records = records }

(* ---- per-store cache ---- *)

(* Keyed by physical store identity; a handful of live stores at most
   (tests, CLI, service), so a short list with LRU-ish trimming does.
   Each entry is an ephemeron: the cache never keeps a store (or its
   synopsis) alive once its owner drops it. *)
let cache : (Store.t, t) Ephemeron.K1.t list ref = ref []
let cache_limit = 8

let for_store store =
  match List.find_map (fun e -> Ephemeron.K1.query e store) !cache with
  | Some syn when syn.syn_epoch = Store.epoch store -> syn
  | _ ->
      let syn = build store in
      let rest = List.filter (fun e -> Ephemeron.K1.query e store = None) !cache in
      let rest = List.filteri (fun i _ -> i < cache_limit - 1) rest in
      cache := Ephemeron.K1.make store syn :: rest;
      syn

(* ---- schema instantiation ---- *)

let roots t ~scope =
  match scope with
  | None -> List.map snd t.syn_docs
  | Some key ->
      List.filter_map
        (fun (dk, root) -> if Flex.equal dk key then Some root else None)
        t.syn_docs

let schema t ~scope =
  {
    Xpath.Typecheck.sch_roots = roots t ~scope;
    sch_tag = (fun n -> n.syn_tag);
    sch_count = (fun n -> n.syn_count);
    sch_children = (fun n -> n.syn_children);
    sch_parent = (fun n -> n.syn_parent);
  }

let chain_estimate t ~scope spec =
  match (scope, roots t ~scope) with
  | Some _, [] ->
      (* scope is not a whole document (or an unknown one): the synopsis
         cannot place it, so claim nothing *)
      None
  | _ -> Some (Xpath.Typecheck.chain_estimate (schema t ~scope) spec)

(* ---- dumping and verification ---- *)

let fold t ~init ~f =
  let rec go acc rev_path n =
    let rev_path = n.syn_tag :: rev_path in
    let acc = f acc ~path:(List.rev rev_path) ~count:n.syn_count in
    List.fold_left (fun acc c -> go acc rev_path c) acc n.syn_children
  in
  List.fold_left (fun acc (_, root) -> go acc [] root) init t.syn_docs

let rec equal_tree a b =
  a.syn_tag = b.syn_tag && a.syn_count = b.syn_count
  && List.length a.syn_children = List.length b.syn_children
  && List.for_all2 equal_tree a.syn_children b.syn_children

(* Recount one kind over a synopsis tree for the doc-counter cross-check. *)
let rec kind_total pred n acc =
  let acc = if pred n.syn_tag then acc + n.syn_count else acc in
  List.fold_left (fun acc c -> kind_total pred c acc) acc n.syn_children

let verify store t =
  if t.syn_epoch <> Store.epoch store then
    Error
      (Printf.sprintf "synopsis is stale: built at epoch %d, store is at %d" t.syn_epoch
         (Store.epoch store))
  else
    let fresh = build store in
    let doc_of key docs = List.find_opt (fun (dk, _) -> Flex.equal dk key) docs in
    let mismatch =
      List.find_map
        (fun (dk, root) ->
          match doc_of dk fresh.syn_docs with
          | None -> Some (Printf.sprintf "document %s missing from rescan" (Flex.to_string dk))
          | Some (_, fresh_root) ->
              if equal_tree root fresh_root then None
              else Some (Printf.sprintf "document %s: synopsis disagrees with rescan" (Flex.to_string dk)))
        t.syn_docs
    in
    match mismatch with
    | Some m -> Error m
    | None ->
        if List.length t.syn_docs <> List.length fresh.syn_docs then
          Error "document set disagrees with rescan"
        else
          (* cross-check against the store's per-document kind counters *)
          List.fold_left
            (fun acc (doc : Store.doc) ->
              match acc with
              | Error _ -> acc
              | Ok () -> (
                  match doc_of doc.Store.doc_key t.syn_docs with
                  | None -> Error (Printf.sprintf "no synopsis for document %S" doc.Store.doc_name)
                  | Some (_, root) ->
                      let is_elem tag =
                        String.length tag > 0 && tag.[0] <> '@' && tag.[0] <> '#'
                      in
                      let checks =
                        [
                          ("element", doc.Store.element_count, kind_total is_elem root 0);
                          ("text", doc.Store.text_count, kind_total (( = ) "#text") root 0);
                          ( "attribute",
                            doc.Store.attribute_count,
                            kind_total (fun tag -> String.length tag > 0 && tag.[0] = '@') root 0 );
                          ("comment", doc.Store.comment_count, kind_total (( = ) "#comment") root 0);
                          ("pi", doc.Store.pi_count, kind_total (( = ) "#pi") root 0);
                        ]
                      in
                      List.fold_left
                        (fun acc (what, expected, got) ->
                          match acc with
                          | Error _ -> acc
                          | Ok () ->
                              if expected = got then Ok ()
                              else
                                Error
                                  (Printf.sprintf
                                     "document %S: %s count %d in store, %d in synopsis"
                                     doc.Store.doc_name what expected got))
                        (Ok ()) checks))
            (Ok ()) (Store.documents store)
