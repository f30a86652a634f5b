(* Tests for the MASS storage structure: loading, counting, axis cursors.

   The central property: every MASS axis cursor agrees with the DOM
   reference semantics (Baselines.Dom_nav) on random documents, for all
   13 axes and all node-test shapes. *)

open Mass

let person_doc =
  {xml|<site>
  <person id="person144">
    <name>Yung Flach</name>
    <emailaddress>Flach@auth.gr</emailaddress>
    <address>
      <street>92 Pfisterer St</street>
      <city>Monroe</city>
      <country>United States</country>
      <zipcode>12</zipcode>
    </address>
    <watches>
      <watch open_auction="open_auction108"/>
      <watch open_auction="open_auction94"/>
      <watch open_auction="open_auction110"/>
    </watches>
  </person>
  <person id="person145">
    <name>Ann Smith</name>
    <address><city>Monroe</city></address>
  </person>
</site>|xml}

let setup src =
  let store = Store.create () in
  let tree = Xml.Parser.parse src in
  let doc = Store.load store ~name:"test.xml" tree in
  (store, tree, doc)

(* Map each Tree node to its MASS key by walking both structures in step. *)
let build_key_map store tree doc =
  let map = Hashtbl.create 64 in
  let rec walk key (n : Xml.Tree.node) =
    Hashtbl.add map n.Xml.Tree.id key;
    let attr_cursor = Store.axis_cursor store Xpath.Ast.Attribute Xpath.Ast.Node_test key in
    Array.iter
      (fun (a : Xml.Tree.node) ->
        match attr_cursor () with
        | Some ak -> Hashtbl.add map a.Xml.Tree.id ak
        | None -> Alcotest.fail "missing attribute record")
      n.Xml.Tree.attributes;
    let child_cursor = Store.axis_cursor store Xpath.Ast.Child Xpath.Ast.Node_test key in
    Array.iter
      (fun (c : Xml.Tree.node) ->
        match child_cursor () with
        | Some ck -> walk ck c
        | None -> Alcotest.fail "missing child record")
      n.Xml.Tree.children
  in
  walk doc.Store.doc_key tree;
  map

let test_load_counts () =
  let store, _, doc = setup person_doc in
  Alcotest.(check int) "persons" 2 (Store.count_test store ~principal:Record.Element (Xpath.Ast.Name_test "person"));
  Alcotest.(check int) "addresses" 2 (Store.count_test store ~principal:Record.Element (Xpath.Ast.Name_test "address"));
  Alcotest.(check int) "names" 2 (Store.count_test store ~principal:Record.Element (Xpath.Ast.Name_test "name"));
  Alcotest.(check int) "watch" 3 (Store.count_test store ~principal:Record.Element (Xpath.Ast.Name_test "watch"));
  Alcotest.(check int) "elements total" doc.Store.element_count
    (Store.count_test store ~principal:Record.Element Xpath.Ast.Wildcard);
  Alcotest.(check int) "attrs" 5 doc.Store.attribute_count;
  Alcotest.(check int) "text nodes" doc.Store.text_count
    (Store.count_test store ~principal:Record.Element Xpath.Ast.Text_test);
  Alcotest.(check int) "id attributes" 2
    (Store.count_test store ~principal:Record.Attribute (Xpath.Ast.Name_test "id"))

let test_text_counts () =
  let store, _, _ = setup person_doc in
  Alcotest.(check int) "TC Yung Flach" 1 (Store.text_value_count store "Yung Flach");
  Alcotest.(check int) "TC Monroe" 2 (Store.text_value_count store "Monroe");
  Alcotest.(check int) "TC absent" 0 (Store.text_value_count store "Nobody");
  (* attribute values are indexed too *)
  Alcotest.(check int) "TC attr value" 1 (Store.text_value_count store "open_auction94")

let test_scoped_counts () =
  let store, _, doc = setup person_doc in
  let persons =
    let c = Store.axis_cursor store Xpath.Ast.Descendant (Xpath.Ast.Name_test "person") doc.Store.doc_key in
    let rec go acc = match c () with Some k -> go (k :: acc) | None -> List.rev acc in
    go []
  in
  Alcotest.(check int) "two persons" 2 (List.length persons);
  let p1 = List.nth persons 0 in
  Alcotest.(check int) "city in person1 subtree" 1
    (Store.count_test store ~scope:p1 ~principal:Record.Element (Xpath.Ast.Name_test "city"));
  Alcotest.(check int) "watch in person1" 3
    (Store.count_test store ~scope:p1 ~principal:Record.Element (Xpath.Ast.Name_test "watch"));
  let p2 = List.nth persons 1 in
  Alcotest.(check int) "watch in person2" 0
    (Store.count_test store ~scope:p2 ~principal:Record.Element (Xpath.Ast.Name_test "watch"));
  Alcotest.(check int) "TC Monroe scoped" 1 (Store.text_value_count store ~scope:p2 "Monroe")

let test_counts_are_index_only () =
  let store, _, _ = setup person_doc in
  (* force everything out of the measurable window *)
  Store.reset_io_stats store;
  let before = (Store.io_stats store).Storage.Stats.logical_reads in
  ignore (Store.count_test store ~principal:Record.Element (Xpath.Ast.Name_test "person"));
  ignore (Store.text_value_count store "Monroe");
  let after = (Store.io_stats store).Storage.Stats.logical_reads in
  Alcotest.(check bool)
    (Printf.sprintf "counting touched %d pages" (after - before))
    true
    (after - before <= 12)

let test_string_value () =
  let store, _, doc = setup person_doc in
  let name_cursor = Store.axis_cursor store Xpath.Ast.Descendant (Xpath.Ast.Name_test "name") doc.Store.doc_key in
  match name_cursor () with
  | Some k -> Alcotest.(check string) "string value" "Yung Flach" (Store.string_value store k)
  | None -> Alcotest.fail "no name element"

let test_value_cursor () =
  let store, _, _ = setup person_doc in
  let c = Store.value_cursor store "Monroe" in
  let rec go acc = match c () with Some k -> go (k :: acc) | None -> List.rev acc in
  let keys = go [] in
  Alcotest.(check int) "two Monroe text nodes" 2 (List.length keys);
  List.iter
    (fun k ->
      let r = Store.get_exn store k in
      Alcotest.(check string) "is text" "text" (Record.kind_to_string r.Record.kind);
      Alcotest.(check string) "value" "Monroe" r.Record.value)
    keys

let test_value_range_cursor () =
  let store, _, _ = setup person_doc in
  let c = Store.value_range_cursor store ~lo:(Some "M") ~hi:(Some "N") in
  let rec go acc = match c () with Some k -> go (k :: acc) | None -> acc in
  (* Monroe x2 *)
  Alcotest.(check int) "values in [M,N]" 2 (List.length (go []))

let test_multiple_documents () =
  let store = Store.create () in
  let d1 = Store.load_string store ~name:"a.xml" "<a><x/><x/></a>" in
  let d2 = Store.load_string store ~name:"b.xml" "<b><x/></b>" in
  Alcotest.(check int) "global x count" 3
    (Store.count_test store ~principal:Record.Element (Xpath.Ast.Name_test "x"));
  Alcotest.(check int) "doc1 x count" 2
    (Store.count_test store ~scope:d1.Store.doc_key ~principal:Record.Element (Xpath.Ast.Name_test "x"));
  Alcotest.(check int) "doc2 x count" 1
    (Store.count_test store ~scope:d2.Store.doc_key ~principal:Record.Element (Xpath.Ast.Name_test "x"));
  (* following must not leak across documents *)
  let root1 = Option.get (Store.root_element_key d1 store) in
  let c = Store.axis_cursor store Xpath.Ast.Following (Xpath.Ast.Name_test "x") root1 in
  Alcotest.(check bool) "no following across docs" true (c () = None);
  Alcotest.(check bool) "find by name" true (Store.find_document store "b.xml" <> None);
  Store.remove_document store d1;
  Alcotest.(check int) "count after removal" 1
    (Store.count_test store ~principal:Record.Element (Xpath.Ast.Name_test "x"));
  Alcotest.(check int) "docs left" 1 (List.length (Store.documents store))

let test_dynamic_insert_delete () =
  let store, _, doc = setup person_doc in
  let persons =
    let c = Store.axis_cursor store Xpath.Ast.Descendant (Xpath.Ast.Name_test "person") doc.Store.doc_key in
    let rec go acc = match c () with Some k -> go (k :: acc) | None -> List.rev acc in
    go []
  in
  let p1 = List.nth persons 0 in
  (* insert a new province element under person1's address *)
  let address =
    let c = Store.axis_cursor store Xpath.Ast.Descendant (Xpath.Ast.Name_test "address") p1 in
    Option.get (c ())
  in
  let key = Store.insert_element store ~parent:address "province" [] (Some "Vermont") in
  Alcotest.(check int) "province count updated" 1
    (Store.count_test store ~principal:Record.Element (Xpath.Ast.Name_test "province"));
  Alcotest.(check int) "TC Vermont" 1 (Store.text_value_count store "Vermont");
  Alcotest.(check string) "string value" "Vermont" (Store.string_value store key);
  (* child axis from address now sees it *)
  let c = Store.axis_cursor store Xpath.Ast.Child (Xpath.Ast.Name_test "province") address in
  Alcotest.(check bool) "child cursor finds it" true (c () <> None);
  (* and counts drop after delete *)
  let removed = Store.delete_subtree store key in
  Alcotest.(check int) "removed records" 2 removed;
  Alcotest.(check int) "province gone" 0
    (Store.count_test store ~principal:Record.Element (Xpath.Ast.Name_test "province"));
  Alcotest.(check int) "TC gone" 0 (Store.text_value_count store "Vermont")

let test_insert_between_siblings () =
  let store = Store.create () in
  let doc = Store.load_string store ~name:"t" "<r><a/><b/></r>" in
  let root = Option.get (Store.root_element_key doc store) in
  let a =
    let c = Store.axis_cursor store Xpath.Ast.Child (Xpath.Ast.Name_test "a") root in
    Option.get (c ())
  in
  let _mid = Store.insert_element store ~parent:root ~after:a "m" [] None in
  let c = Store.axis_cursor store Xpath.Ast.Child Xpath.Ast.Wildcard root in
  let rec names acc =
    match c () with
    | Some k -> names ((Store.get_exn store k).Record.name :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list string)) "sibling order" [ "a"; "m"; "b" ] (names [])

let test_statistics () =
  let store, _, _ = setup person_doc in
  let s = Store.statistics store in
  Alcotest.(check bool) "records positive" true (s.Store.record_count > 20);
  Alcotest.(check int) "one document" 1 s.Store.document_count;
  Alcotest.(check bool) "tuples per page positive" true (s.Store.tuples_per_page > 0.0);
  Alcotest.(check bool) "height >= 1" true (s.Store.doc_index_height >= 1)

(* ---- the big agreement property ---- *)

let gen_tree =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c"; "person"; "name" ] in
  let rec spec depth =
    if depth = 0 then
      oneof
        [ map (fun s -> Xml.Tree.D ("t" ^ s)) (string_size ~gen:(char_range 'a' 'c') (return 2));
          return (Xml.Tree.Cm "note");
          return (Xml.Tree.Proc ("pi", "d")) ]
    else
      let* n = name in
      let* nattr = int_range 0 3 in
      (* "a" is also an element name: an attribute context must never
         pass an element name test of the same name *)
      let attr_names = List.filteri (fun i _ -> i < nattr) [ "id"; "a"; "k" ] in
      let* attrs = flatten_l (List.map (fun a -> map (fun v -> (a, "v" ^ v)) (string_size ~gen:(char_range 'a' 'b') (return 1))) attr_names) in
      let* nc = int_range 0 3 in
      let* children = list_size (return nc) (spec (depth - 1)) in
      return (Xml.Tree.E (n, attrs, children))
  in
  let* root = spec 3 in
  match root with
  | Xml.Tree.E _ -> return (Xml.Tree.document [ root ])
  | _ -> return (Xml.Tree.document [ Xml.Tree.E ("r", [], [ root ]) ])

(* deeper, narrower trees exercise long FLEX keys and deep axis chains *)
let gen_deep_tree =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c" ] in
  let rec spec depth =
    if depth = 0 then map (fun s -> Xml.Tree.D ("t" ^ s)) (string_size ~gen:(char_range 'a' 'b') (return 1))
    else
      let* n = name in
      let* nc = int_range 1 2 in
      let* children = list_size (return nc) (spec (depth - 1)) in
      return (Xml.Tree.E (n, [], children))
  in
  let* root = spec 6 in
  match root with
  | Xml.Tree.E _ -> return (Xml.Tree.document [ root ])
  | _ -> return (Xml.Tree.document [ Xml.Tree.E ("r", [], [ root ]) ])

let all_tests =
  [ Xpath.Ast.Name_test "a"; Xpath.Ast.Name_test "person"; Xpath.Ast.Wildcard;
    Xpath.Ast.Text_test; Xpath.Ast.Node_test; Xpath.Ast.Comment_test; Xpath.Ast.Pi_test None ]

(* Which index answers a per-context node test depends on the state of
   the clustered index's leaf fingers, so every context is visited twice:
   in preorder, and then in a seeded shuffled order.  Order 4 gives even
   a small document a many-leaf clustered index, so both the finger path
   and the name-index path are taken. *)
let axis_agreement_property tree =
  let store = Store.create ~order:4 () in
  let doc = Store.load store ~name:"gen" tree in
  let key_map = build_key_map store tree doc in
  let nodes = Array.of_list (List.rev (Xml.Tree.fold_preorder (fun acc n -> n :: acc) [] tree)) in
  let shuffled = Array.copy nodes in
  let rng = Random.State.make [| Array.length nodes |] in
  for i = Array.length shuffled - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = shuffled.(i) in
    shuffled.(i) <- shuffled.(j);
    shuffled.(j) <- x
  done;
  let ok = ref true in
  let check (n : Xml.Tree.node) =
    let ctx = Hashtbl.find key_map n.Xml.Tree.id in
    List.iter
      (fun axis ->
        List.iter
          (fun test ->
            let expected =
              Baselines.Dom_nav.select axis test n
              |> List.map (fun (m : Xml.Tree.node) -> Hashtbl.find key_map m.Xml.Tree.id)
            in
            let actual =
              let c = Store.axis_cursor store axis test ctx in
              let rec go acc =
                match c () with Some k -> go (k :: acc) | None -> List.rev acc
              in
              go []
            in
            if not (List.equal Flex.equal expected actual) then begin
              ok := false;
              Printf.eprintf "MISMATCH axis=%s test=%s ctx=%s\n  expected: %s\n  actual:   %s\n"
                (Xpath.Ast.axis_name axis)
                (Xpath.Ast.node_test_to_string test)
                (Flex.to_string ctx)
                (String.concat "," (List.map Flex.to_string expected))
                (String.concat "," (List.map Flex.to_string actual))
            end)
          all_tests)
      Xpath.Ast.all_axes
  in
  Array.iter check nodes;
  Array.iter check shuffled;
  !ok

let prop_axis_agreement =
  QCheck.Test.make ~name:"MASS axis cursors agree with DOM reference" ~count:60
    (QCheck.make gen_tree) axis_agreement_property

let prop_axis_agreement_deep =
  QCheck.Test.make ~name:"axis agreement on deep trees" ~count:15
    (QCheck.make gen_deep_tree) axis_agreement_property

let prop_count_matches_cursor =
  QCheck.Test.make ~name:"count_test equals cursor cardinality for named tests" ~count:60
    (QCheck.make gen_tree) (fun tree ->
      let store = Store.create () in
      let doc = Store.load store ~name:"gen" tree in
      List.for_all
        (fun test ->
          let counted = Store.count_test store ~principal:Record.Element test in
          let scanned =
            let c = Store.axis_cursor store Xpath.Ast.Descendant test doc.Store.doc_key in
            let rec go n = match c () with Some _ -> go (n + 1) | None -> n in
            go 0
          in
          counted = scanned)
        [ Xpath.Ast.Name_test "a"; Xpath.Ast.Name_test "person"; Xpath.Ast.Text_test;
          Xpath.Ast.Comment_test ])

let test_get_allocates_only_the_option () =
  let store = Store.create ~backend:Store.Mem ~order:8 () in
  let doc = Store.load_string store ~name:"g.xml" person_doc in
  let keys = Array.of_list (Store.fold_document store doc (fun acc k _ -> k :: acc) []) in
  let n = Array.length keys in
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to calls do
    ignore (Store.get store keys.(i mod n))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%d gets over %d records allocated %.0f minor words" calls n words)
    true
    (words <= (2.0 *. float_of_int calls) +. 16.0)

let suite =
  ( "mass",
    [ Alcotest.test_case "load and counts" `Quick test_load_counts;
      Alcotest.test_case "text value counts" `Quick test_text_counts;
      Alcotest.test_case "scoped counts" `Quick test_scoped_counts;
      Alcotest.test_case "counts are index-only" `Quick test_counts_are_index_only;
      Alcotest.test_case "string value" `Quick test_string_value;
      Alcotest.test_case "get allocates only the option" `Quick
        test_get_allocates_only_the_option;
      Alcotest.test_case "value cursor" `Quick test_value_cursor;
      Alcotest.test_case "value range cursor" `Quick test_value_range_cursor;
      Alcotest.test_case "multiple documents" `Quick test_multiple_documents;
      Alcotest.test_case "dynamic insert and delete" `Quick test_dynamic_insert_delete;
      Alcotest.test_case "insert between siblings" `Quick test_insert_between_siblings;
      Alcotest.test_case "statistics" `Quick test_statistics;
      QCheck_alcotest.to_alcotest prop_axis_agreement;
      QCheck_alcotest.to_alcotest prop_axis_agreement_deep;
      QCheck_alcotest.to_alcotest prop_count_matches_cursor ] )
