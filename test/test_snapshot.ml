(* Tests for MASS store snapshots: save/load roundtrips, corruption
   detection, and post-load behaviour (queries, counts, updates). *)

module Store = Mass.Store

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("vamana_test_" ^ name)

let with_file name f =
  let path = tmp name in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* open file descriptors, where the platform lists them; 0 elsewhere *)
let open_fds () =
  if Sys.file_exists "/proc/self/fd" then Array.length (Sys.readdir "/proc/self/fd") else 0

let find_sub s sub =
  let n = String.length sub in
  let rec go i = if String.equal (String.sub s i n) sub then i else go (i + 1) in
  go 0

let build_store () =
  let store = Store.create () in
  let d1 = Xmark.load store ~name:"auction.xml" 0.3 in
  let d2 = Store.load_string store ~name:"tiny.xml" "<r><x a='1'>t</x><!--c--><?p d?></r>" in
  (store, d1, d2)

let test_roundtrip () =
  with_file "roundtrip.snap" @@ fun path ->
  let store, d1, _ = build_store () in
  Store.save_file store path;
  let store2 = Store.load_file path in
  Alcotest.(check int) "record count" (Store.total_records store) (Store.total_records store2);
  Alcotest.(check int) "documents" 2 (List.length (Store.documents store2));
  let d1' = Option.get (Store.find_document store2 "auction.xml") in
  Alcotest.(check int) "element counter" d1.Store.element_count d1'.Store.element_count;
  Alcotest.(check int) "text counter" d1.Store.text_count d1'.Store.text_count;
  Alcotest.(check int) "attribute counter" d1.Store.attribute_count d1'.Store.attribute_count;
  (* queries agree before and after *)
  List.iter
    (fun q ->
      let run store doc =
        match Vamana.Engine.query_doc store doc q with
        | Ok r -> List.map Flex.to_string r.Vamana.Engine.keys
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check (list string)) q (run store d1) (run store2 d1'))
    [ "//person/address"; "//province[text()='Vermont']/ancestor::person";
      "//watches/watch/ancestor::person" ]

let test_comments_and_pis_survive () =
  with_file "kinds.snap" @@ fun path ->
  let store, _, _ = build_store () in
  Store.save_file store path;
  let store2 = Store.load_file path in
  let d2 = Option.get (Store.find_document store2 "tiny.xml") in
  let count test = Store.count_test store2 ~scope:d2.Store.doc_key ~principal:Mass.Record.Element test in
  Alcotest.(check int) "comment" 1 (count Xpath.Ast.Comment_test);
  Alcotest.(check int) "pi" 1 (count (Xpath.Ast.Pi_test None));
  Alcotest.(check int) "attr" 1
    (Store.count_test store2 ~scope:d2.Store.doc_key ~principal:Mass.Record.Attribute
       (Xpath.Ast.Name_test "a"));
  Alcotest.(check int) "tc attr value" 1 (Store.text_value_count store2 ~scope:d2.Store.doc_key "1")

let test_updates_after_load () =
  with_file "updates.snap" @@ fun path ->
  let store, _, _ = build_store () in
  Store.save_file store path;
  let store2 = Store.load_file path in
  let d2 = Option.get (Store.find_document store2 "tiny.xml") in
  let root = Option.get (Store.root_element_key d2 store2) in
  let _ = Store.insert_element store2 ~parent:root "y" [] (Some "new") in
  Alcotest.(check int) "insert works after load" 1
    (Store.count_test store2 ~principal:Mass.Record.Element (Xpath.Ast.Name_test "y"));
  (* and a fresh document can still be loaded without key collisions *)
  let d3 = Store.load_string store2 ~name:"extra.xml" "<z/>" in
  Alcotest.(check int) "three documents" 3 (List.length (Store.documents store2));
  Alcotest.(check bool) "distinct roots" true
    (not (Flex.equal d3.Store.doc_key d2.Store.doc_key))

let test_corruption_detection () =
  with_file "corrupt.snap" @@ fun path ->
  let store, _, d2 = build_store () in
  Store.save_file store path;
  let data = read_file path in
  let expect_corrupt what s =
    write_file path s;
    let fds = open_fds () in
    (match Store.load_file path with
    | exception Store.Corrupt_snapshot msg ->
        Alcotest.(check bool) (what ^ ": message names the file") true
          (String.starts_with ~prefix:path msg)
    | _ -> Alcotest.fail ("expected Corrupt_snapshot for " ^ what));
    (* finalisers of earlier tests' garbage may close descriptors meanwhile,
       so a leak shows as growth, not as any change *)
    Alcotest.(check bool) (what ^ ": no descriptor leaked") true (open_fds () <= fds)
  in
  expect_corrupt "bad magic" ("XXXX" ^ String.sub data 4 (String.length data - 4));
  expect_corrupt "truncated" (String.sub data 0 (String.length data / 2));
  expect_corrupt "trailing garbage" (data ^ "junk");
  let flipped = Bytes.of_string data in
  (* corrupt the version field *)
  Bytes.set flipped 8 '\xFF';
  expect_corrupt "bad version" (Bytes.to_string flipped);
  (* a key component byte set to 'A', in the document table and in a
     record; [field s] is [s] as the snapshot writes it, after its u64
     length *)
  let field s =
    let b = Buffer.create 16 in
    Buffer.add_int64_le b (Int64.of_int (String.length s));
    Buffer.add_string b s;
    Buffer.contents b
  in
  let set_a at =
    let b = Bytes.of_string data in
    Bytes.set b at 'A';
    Bytes.to_string b
  in
  let doc_key = field (Flex.encode d2.Store.doc_key) in
  let root = Flex.encode (Option.get (Store.root_element_key d2 store)) in
  expect_corrupt "malformed document key"
    (set_a (find_sub data (field "tiny.xml" ^ doc_key) + String.length (field "tiny.xml") + 8));
  expect_corrupt "malformed record key"
    (set_a (find_sub data (field root) + 8 + String.rindex root '\x01' + 1))

(* The snapshot bytes of a fixed document, recorded when keys were still
   component arrays: packed keys must not change the on-disk format. *)
let pinned_doc =
  "<site><people><person id=\"p1\"><name>Ann</name><address><street>1 Elm</street>\
   <city>Oslo</city></address></person><person id=\"p2\"><name>Bo</name></person>\
   </people><!--note--><?audit v1?><regions><europe><item id=\"i1\" featured=\"yes\">\
   <name>lamp</name></item></europe></regions></site>"

let test_bytes_pinned () =
  with_file "pinned.snap" @@ fun path ->
  let store = Store.create ~backend:Store.Mem () in
  ignore (Store.load_string store ~name:"pin.xml" pinned_doc);
  Store.save_file store path;
  Alcotest.(check string) "snapshot digest" "c8a810023c677510a55c9cd8cd65b4ff"
    (Digest.to_hex (Digest.file path))

let test_empty_store () =
  with_file "empty.snap" @@ fun path ->
  let store = Store.create () in
  Store.save_file store path;
  let store2 = Store.load_file path in
  Alcotest.(check int) "no docs" 0 (List.length (Store.documents store2));
  Alcotest.(check int) "no records" 0 (Store.total_records store2)

let suite =
  ( "snapshot",
    [ Alcotest.test_case "roundtrip" `Quick test_roundtrip;
      Alcotest.test_case "all node kinds survive" `Quick test_comments_and_pis_survive;
      Alcotest.test_case "updates after load" `Quick test_updates_after_load;
      Alcotest.test_case "corruption detection" `Quick test_corruption_detection;
      Alcotest.test_case "empty store" `Quick test_empty_store;
      Alcotest.test_case "bytes pinned" `Quick test_bytes_pinned ] )
