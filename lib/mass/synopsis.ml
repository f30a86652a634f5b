(* DataGuide-style path synopsis over a MASS store.

   One node per distinct root-to-tag path, labelled with {!Store.tag_of}
   spellings and carrying the exact number of records on that path.  The
   tree itself lives in the store ({!Store.path_synopsis}): built by one
   document-order scan the first time it is asked for, then kept exact by
   each mutation's path-count delta.  A value of [t] is a view of it
   stamped with the store epoch it was taken at.

   The synopsis instantiates {!Xpath.Typecheck.schema}, which is where
   all axis reasoning lives; this module only owns the views over the
   tree and its verification. *)

type node = Store.path_node = private {
  syn_tag : string;
  syn_parent : node option;
  mutable syn_count : int;
  mutable syn_children : node list;
}

type t = Store.path_synopsis = private { ps_epoch : int; ps_docs : (Flex.t * node) list }

let for_store = Store.path_synopsis
let epoch t = t.ps_epoch

let rec tree_stats n (paths, records) =
  List.fold_left
    (fun acc c -> tree_stats c acc)
    (paths + 1, records + n.syn_count)
    n.syn_children

let stats t = List.fold_left (fun acc (_, root) -> tree_stats root acc) (0, 0) t.ps_docs
let paths t = fst (stats t)
let records t = snd (stats t)

(* ---- schema instantiation ---- *)

let roots t ~scope =
  match scope with
  | None -> List.map snd t.ps_docs
  | Some key ->
      List.filter_map
        (fun (dk, root) -> if Flex.equal dk key then Some root else None)
        t.ps_docs

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
  List.fold_left (fun acc (_, root) -> go acc [] root) init t.ps_docs

let rec equal_tree a b =
  a.syn_tag = b.syn_tag && a.syn_count = b.syn_count
  && List.length a.syn_children = List.length b.syn_children
  && List.for_all2 equal_tree a.syn_children b.syn_children

(* Recount one kind over a synopsis tree for the doc-counter cross-check. *)
let rec kind_total pred n acc =
  let acc = if pred n.syn_tag then acc + n.syn_count else acc in
  List.fold_left (fun acc c -> kind_total pred c acc) acc n.syn_children

let verify store t =
  if t.ps_epoch <> Store.epoch store then
    Error
      (Printf.sprintf "synopsis is stale: taken at epoch %d, store is at %d" t.ps_epoch
         (Store.epoch store))
  else
    let fresh = Store.scan_path_synopsis store in
    let doc_of key docs = List.find_opt (fun (dk, _) -> Flex.equal dk key) docs in
    let mismatch =
      List.find_map
        (fun (dk, root) ->
          match doc_of dk fresh.ps_docs with
          | None -> Some (Printf.sprintf "document %s missing from rescan" (Flex.to_string dk))
          | Some (_, fresh_root) ->
              if equal_tree root fresh_root then None
              else Some (Printf.sprintf "document %s: synopsis disagrees with rescan" (Flex.to_string dk)))
        t.ps_docs
    in
    match mismatch with
    | Some m -> Error m
    | None ->
        if List.length t.ps_docs <> List.length fresh.ps_docs then
          Error "document set disagrees with rescan"
        else
          (* cross-check against the store's per-document kind counters *)
          List.fold_left
            (fun acc (doc : Store.doc) ->
              match acc with
              | Error _ -> acc
              | Ok () -> (
                  match doc_of doc.Store.doc_key t.ps_docs with
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
