(* Path-synopsis tests: DataGuide construction on a handwritten document,
   epoch-keyed caching and the self-verification pass, plus a
   differential harness on an XMark document that validates the schema
   walk's claims — exact per-step cardinalities, chain estimates and
   emptiness proofs — against actual plan execution. *)

open Vamana
module Store = Mass.Store
module Syn = Mass.Synopsis
module T = Xpath.Typecheck
module Ast = Xpath.Ast

let compile src =
  match Compile.compile_query src with Ok p -> p | Error e -> Alcotest.fail e

(* ---- construction on the handwritten auction document ---- *)

let count_of syn target =
  Syn.fold syn ~init:None ~f:(fun acc ~path ~count ->
      if path = target then Some count else acc)

let test_build_counts () =
  let store, _doc = Test_vamana.setup () in
  let syn = Syn.for_store store in
  let expect path count =
    Alcotest.(check (option int))
      (String.concat "/" path) (Some count) (count_of syn path)
  in
  expect [ "#document" ] 1;
  expect [ "#document"; "site" ] 1;
  expect [ "#document"; "site"; "people"; "person" ] 3;
  expect [ "#document"; "site"; "people"; "person"; "@id" ] 3;
  expect [ "#document"; "site"; "people"; "person"; "address" ] 2;
  expect [ "#document"; "site"; "people"; "person"; "watches"; "watch" ] 3;
  expect [ "#document"; "site"; "people"; "person"; "watches"; "watch"; "@open_auction" ] 3;
  expect [ "#document"; "site"; "regions"; "namerica"; "item"; "@id" ] 2;
  expect [ "#document"; "site"; "people"; "person"; "name"; "#text" ] 3;
  (* one node per distinct path: item/name is a different path *)
  expect [ "#document"; "site"; "regions"; "namerica"; "item"; "name"; "#text" ] 2;
  (* totals: every record is summarized exactly once *)
  let summed = Syn.fold syn ~init:0 ~f:(fun acc ~path:_ ~count -> acc + count) in
  Alcotest.(check int) "fold covers all records" (Syn.records syn) summed;
  Alcotest.(check int) "records = store records"
    (Store.statistics store).Store.record_count (Syn.records syn)

let test_cache_and_verify () =
  let store, doc = Test_vamana.setup () in
  let syn = Syn.for_store store in
  (* cached: same epoch, same synopsis, verification passes *)
  Alcotest.(check bool) "cache hit" true (Syn.for_store store == syn);
  (match Syn.verify store syn with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* a store mutation moves the epoch: the cache rebuilds and the stale
     synopsis no longer verifies *)
  let people =
    match Vamana.Engine.query store ~context:doc.Store.doc_key "/site/people" with
    | Ok r -> List.hd r.Vamana.Engine.keys
    | Error e -> Alcotest.fail e
  in
  let _k = Store.insert_element store ~parent:people "person" [] (Some "Zed") in
  let syn' = Syn.for_store store in
  Alcotest.(check bool) "rebuilt" true (syn' != syn);
  Alcotest.(check int) "epoch tracked" (Store.epoch store) (Syn.epoch syn');
  Alcotest.(check (option int)) "new count" (Some 4)
    (count_of syn' [ "#document"; "site"; "people"; "person" ]);
  (match Syn.verify store syn' with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Syn.verify store syn with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "stale synopsis verified"

let test_scope_and_chain () =
  let store, doc = Test_vamana.setup () in
  let syn = Syn.for_store store in
  Alcotest.(check int) "scoped root" 1 (List.length (Syn.roots syn ~scope:(Some doc.Store.doc_key)));
  Alcotest.(check int) "all roots" 1 (List.length (Syn.roots syn ~scope:None));
  let dslash = (Ast.Descendant_or_self, Ast.Node_test, false) in
  let step name = (Ast.Child, Ast.Name_test name, false) in
  (* exact chain counts, root-side first *)
  (match Syn.chain_estimate syn ~scope:(Some doc.Store.doc_key) [ dslash; step "person" ] with
  | Some (3, true) -> ()
  | Some (n, e) -> Alcotest.fail (Printf.sprintf "//person: got (%d, %b)" n e)
  | None -> Alcotest.fail "//person: no claim");
  (match
     Syn.chain_estimate syn ~scope:(Some doc.Store.doc_key)
       [ dslash; (Ast.Child, Ast.Name_test "person", true); step "address" ]
   with
  | Some (2, false) -> () (* a predicate upstream demotes exactness, keeps the bound *)
  | Some (n, e) -> Alcotest.fail (Printf.sprintf "//person[..]/address: got (%d, %b)" n e)
  | None -> Alcotest.fail "//person[..]/address: no claim");
  (* a scope that names no whole document makes no claim *)
  match Syn.chain_estimate syn ~scope:(Some (Flex.child doc.Store.doc_key "b")) [ step "site" ] with
  | None -> ()
  | Some _ -> Alcotest.fail "non-document scope must make no claim"

(* ---- differential harness on XMark ---- *)

let xmark_setup () =
  let store = Store.create () in
  let doc = Xmark.load store 0.15 in
  (store, doc)

(* Execute the UNCLEANED compiled plan with profiling: its context chain
   maps 1:1 to the source location steps, so each checker step note can
   be compared with the operator's observed raw tuple count. *)
let profiled_chain store (doc : Store.doc) src =
  let plan = compile src in
  let ctx = Profile.create store in
  let _keys = Exec.run ~profile:ctx store ~context:doc.Store.doc_key plan in
  let cost = Cost.estimate store ~scope:(Some doc.Store.doc_key) plan in
  let report = Profile.make ctx ~cost ~total_time:0.0 plan in
  (* the profile chain runs root-side (R) first; drop R, reverse the rest *)
  let rec collect (n : Profile.node) = n :: (match n.Profile.context with Some c -> collect c | None -> []) in
  match collect report.Profile.plan with
  | _root :: steps -> List.rev steps (* source order: first location step first *)
  | [] -> Alcotest.fail "empty profile chain"

let test_xmark_step_counts () =
  let store, doc = xmark_setup () in
  let schema = Syn.schema (Syn.for_store store) ~scope:(Some doc.Store.doc_key) in
  let queries =
    [ "//person/address";
      "//watches/watch/ancestor::person";
      "/descendant::name/parent::*/self::person/address";
      "//itemref/following-sibling::price/parent::*";
      "//province[text()='Vermont']/ancestor::person";
      "/site/people/person/watches/watch";
      "//open_auction/price";
      "//person/@id" ]
  in
  let checked = ref 0 in
  List.iter
    (fun src ->
      let ast, spans = Xpath.Parser.parse_spanned src in
      let rep = T.check ~schema ~spans ast in
      let ops = profiled_chain store doc src in
      Alcotest.(check int) (src ^ ": note/op alignment") (List.length ops)
        (List.length rep.T.rep_steps);
      List.iter2
        (fun (note : T.step_note) (op : Profile.node) ->
          let act =
            match op.Profile.act with
            | Some s -> s.Profile.tuples
            | None -> Alcotest.fail (src ^ ": operator did not run")
          in
          if note.T.sn_exact then begin
            incr checked;
            Alcotest.(check int)
              (Printf.sprintf "%s step %s::%s" src (Ast.axis_name note.T.sn_axis)
                 (Ast.node_test_to_string note.T.sn_test))
              act note.T.sn_bound
          end
          else
            (* inexact claims are upper bounds *)
            Alcotest.(check bool)
              (Printf.sprintf "%s bound %d >= actual %d" src note.T.sn_bound act)
              true (note.T.sn_bound >= act))
        rep.T.rep_steps ops)
    queries;
  Alcotest.(check bool) "exact claims were exercised" true (!checked >= 10)

let test_xmark_emptiness () =
  let store, doc = xmark_setup () in
  let schema = Syn.schema (Syn.for_store store) ~scope:(Some doc.Store.doc_key) in
  let check_one src =
    let ast, spans = Xpath.Parser.parse_spanned src in
    let rep = T.check ~schema ~spans ast in
    match Vamana.Engine.query store ~context:doc.Store.doc_key src with
    | Error e -> Alcotest.fail (src ^ ": " ^ e)
    | Ok r ->
        (* soundness: an emptiness proof means execution finds nothing *)
        if rep.T.rep_empty then
          Alcotest.(check int) (src ^ ": proof is sound") 0 (List.length r.Vamana.Engine.keys);
        (* and on this corpus the proof is also complete the other way *)
        if r.Vamana.Engine.keys = [] then
          Alcotest.(check bool) (src ^ ": emptiness detected") true rep.T.rep_empty
  in
  List.iter check_one
    [ "//nosuchtag";
      "//person/nosuchtag";
      "/site/regions/person";
      "//watch/child::*";
      "//person/@nosuchattr";
      "//closed_auction/ancestor::open_auction";
      "//person/address";
      "//people/person" ]

let test_xmark_verify () =
  let store, _doc = xmark_setup () in
  match Syn.verify store (Syn.for_store store) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* the per-store cache holds stores weakly: a dropped store (and its
   synopsis) is collectable, however many synopses were built for it *)
let test_cache_does_not_retain_stores () =
  let weak = Weak.create 1 in
  (fun () ->
    let store = Store.create () in
    ignore (Store.load_string store ~name:"w.xml" "<r><a/><b/></r>");
    ignore (Syn.for_store store);
    Weak.set weak 0 (Some store))
    ();
  Gc.full_major ();
  Alcotest.(check bool) "dropped store collected" false (Weak.check weak 0);
  (* a live store still hits its cached synopsis *)
  let store = Store.create () in
  ignore (Store.load_string store ~name:"k.xml" "<r/>");
  Alcotest.(check bool) "cache hit" true (Syn.for_store store == Syn.for_store store)

let suite =
  ( "synopsis",
    [ Alcotest.test_case "build counts" `Quick test_build_counts;
      Alcotest.test_case "cache, epoch, verify" `Quick test_cache_and_verify;
      Alcotest.test_case "cache does not retain stores" `Quick test_cache_does_not_retain_stores;
      Alcotest.test_case "scope and chain estimates" `Quick test_scope_and_chain;
      Alcotest.test_case "XMark: step counts vs execution" `Quick test_xmark_step_counts;
      Alcotest.test_case "XMark: emptiness vs execution" `Quick test_xmark_emptiness;
      Alcotest.test_case "XMark: verify" `Quick test_xmark_verify ] )
