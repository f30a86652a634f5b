(* Unit and property tests for FLEX structural keys. *)

let key cs = Flex.of_components cs

let check_order a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s < %s" (Flex.to_string a) (Flex.to_string b))
    true
    (Flex.compare a b < 0)

let test_document_order () =
  (* pre-order of the paper's Figure 10 fragment *)
  let site = key [ "b" ] in
  let person = key [ "b"; "d"; "y" ] in
  let name = key [ "b"; "d"; "y"; "b" ] in
  let email = key [ "b"; "d"; "y"; "c" ] in
  let address = key [ "b"; "d"; "y"; "d" ] in
  let street = key [ "b"; "d"; "y"; "d"; "b" ] in
  let person2 = key [ "b"; "d"; "z" ] in
  check_order Flex.document site;
  check_order site person;
  check_order person name;
  check_order name email;
  check_order email address;
  check_order address street;
  check_order street person2;
  (* sibling vs deeper earlier sibling: a.d.y.c.a < a.d.z *)
  check_order street person2;
  (* a.d < a.dd style: longer component sorts after the shorter-component
     subtree *)
  check_order (key [ "b"; "d"; "x" ]) (key [ "b"; "dd" ])

let test_component_validity () =
  Alcotest.(check bool) "empty invalid" false (Flex.is_valid_component "");
  Alcotest.(check bool) "trailing a invalid" false (Flex.is_valid_component "ba");
  Alcotest.(check bool) "uppercase invalid" false (Flex.is_valid_component "B");
  Alcotest.(check bool) "digit invalid" false (Flex.is_valid_component "b1");
  Alcotest.(check bool) "b valid" true (Flex.is_valid_component "b");
  Alcotest.(check bool) "ab valid" true (Flex.is_valid_component "ab");
  Alcotest.check_raises "of_components rejects" (Invalid_argument "Flex: invalid component \"xa\"")
    (fun () -> ignore (key [ "xa" ]))

let test_ancestry () =
  let a = key [ "b"; "d" ] in
  let b = key [ "b"; "d"; "y"; "c" ] in
  Alcotest.(check bool) "ancestor" true (Flex.is_ancestor a b);
  Alcotest.(check bool) "not self" false (Flex.is_ancestor a a);
  Alcotest.(check bool) "or-self" true (Flex.is_ancestor_or_self a a);
  Alcotest.(check bool) "document ancestor of all" true (Flex.is_ancestor Flex.document b);
  Alcotest.(check bool) "sibling not ancestor" false
    (Flex.is_ancestor (key [ "b"; "d" ]) (key [ "b"; "dd" ]));
  Alcotest.(check string) "common ancestor" "b.d"
    (Flex.to_string (Flex.common_ancestor b (key [ "b"; "d"; "z" ])));
  Alcotest.(check string) "parent" "b.d.y"
    (Flex.to_string (Option.get (Flex.parent (key [ "b"; "d"; "y"; "c" ]))));
  Alcotest.(check bool) "document has no parent" true (Flex.parent Flex.document = None);
  Alcotest.(check string) "prefix depth 1" "b" (Flex.to_string (Flex.prefix b 1))

let test_between_basic () =
  let checks =
    [ (Some "b", Some "c"); (Some "b", Some "bc"); (None, Some "b");
      (Some "z", None); (None, None); (Some "b", Some "d");
      (Some "bz", Some "c"); (Some "n", Some "nb") ]
  in
  List.iter
    (fun (lo, hi) ->
      let m = Flex.between lo hi in
      Alcotest.(check bool)
        (Printf.sprintf "valid between %s %s -> %s"
           (Option.value lo ~default:"-inf") (Option.value hi ~default:"+inf") m)
        true
        (Flex.is_valid_component m
        && (match lo with None -> true | Some l -> String.compare l m < 0)
        && match hi with None -> true | Some h -> String.compare m h < 0))
    checks;
  Alcotest.check_raises "between rejects lo >= hi"
    (Invalid_argument "Flex.between: \"c\" >= \"c\"") (fun () ->
      ignore (Flex.between (Some "c") (Some "c")))

let test_sequence () =
  List.iter
    (fun n ->
      let cs = Flex.sequence n in
      Alcotest.(check int) (Printf.sprintf "sequence %d length" n) n (List.length cs);
      List.iter
        (fun c ->
          Alcotest.(check bool) ("valid " ^ c) true (Flex.is_valid_component c))
        cs;
      let rec sorted = function
        | a :: (b :: _ as rest) -> String.compare a b < 0 && sorted rest
        | _ -> true
      in
      Alcotest.(check bool) (Printf.sprintf "sequence %d sorted" n) true (sorted cs))
    [ 0; 1; 2; 25; 26; 624; 625; 626; 1000 ]

let test_bounds () =
  let k = key [ "b"; "d" ] in
  let desc = key [ "b"; "d"; "y" ] in
  let sib = key [ "b"; "dd" ] in
  let before = key [ "b"; "c" ] in
  let lo, hi = Flex.subtree_range k in
  Alcotest.(check bool) "self in subtree" true (Flex.key_in_range ~lo ~hi k);
  Alcotest.(check bool) "descendant in subtree" true (Flex.key_in_range ~lo ~hi desc);
  Alcotest.(check bool) "sibling out" false (Flex.key_in_range ~lo ~hi sib);
  Alcotest.(check bool) "earlier out" false (Flex.key_in_range ~lo ~hi before);
  let lo, hi = Flex.descendants_range k in
  Alcotest.(check bool) "self not in descendants" false (Flex.key_in_range ~lo ~hi k);
  Alcotest.(check bool) "descendant in descendants" true (Flex.key_in_range ~lo ~hi desc);
  Alcotest.(check bool) "sibling not in descendants" false (Flex.key_in_range ~lo ~hi sib)

let test_serialization () =
  let k = key [ "b"; "d"; "y"; "c" ] in
  Alcotest.(check string) "to_string" "b.d.y.c" (Flex.to_string k);
  Alcotest.(check bool) "of_string roundtrip" true (Flex.equal k (Flex.of_string "b.d.y.c"));
  Alcotest.(check string) "document prints as /" "/" (Flex.to_string Flex.document);
  Alcotest.(check bool) "document roundtrip" true
    (Flex.equal Flex.document (Flex.of_string "/"));
  Alcotest.(check bool) "encode/decode roundtrip" true (Flex.equal k (Flex.decode (Flex.encode k)))

(* ---- properties ---- *)

let gen_component =
  let open QCheck.Gen in
  let* n = int_range 1 4 in
  let* body = string_size (return (n - 1)) ~gen:(char_range 'a' 'z') in
  let* last = char_range 'b' 'z' in
  return (body ^ String.make 1 last)

let gen_key =
  let open QCheck.Gen in
  let* d = int_range 0 6 in
  let* cs = list_size (return d) gen_component in
  return (Flex.of_components cs)

let arb_key = QCheck.make ~print:Flex.to_string gen_key

let prop_compare_total_order =
  QCheck.Test.make ~name:"flex compare is antisymmetric and transitive-ish" ~count:500
    (QCheck.triple arb_key arb_key arb_key) (fun (a, b, c) ->
      let sign x = Stdlib.compare x 0 in
      sign (Flex.compare a b) = -sign (Flex.compare b a)
      && (Flex.compare a b >= 0 || Flex.compare b c >= 0 || Flex.compare a c < 0))

let prop_encode_order_preserving =
  QCheck.Test.make ~name:"encode preserves order" ~count:500 (QCheck.pair arb_key arb_key)
    (fun (a, b) ->
      Stdlib.compare (Flex.compare a b) 0
      = Stdlib.compare (String.compare (Flex.encode a) (Flex.encode b)) 0)

let prop_ancestor_matches_range =
  QCheck.Test.make ~name:"subtree range = ancestor-or-self" ~count:500
    (QCheck.pair arb_key arb_key) (fun (a, k) ->
      let lo, hi = Flex.subtree_range a in
      Flex.key_in_range ~lo ~hi k = Flex.is_ancestor_or_self a k)

let prop_between =
  let gen =
    let open QCheck.Gen in
    let* a = gen_component in
    let* b = gen_component in
    return (a, b)
  in
  QCheck.Test.make ~name:"between lies strictly between" ~count:1000
    (QCheck.make ~print:(fun (a, b) -> a ^ " .. " ^ b) gen) (fun (a, b) ->
      let c = String.compare a b in
      QCheck.assume (c <> 0);
      let lo, hi = if c < 0 then (a, b) else (b, a) in
      let m = Flex.between (Some lo) (Some hi) in
      Flex.is_valid_component m && String.compare lo m < 0 && String.compare m hi < 0)

let prop_between_iterated =
  (* repeatedly splitting the same interval must keep producing fresh keys *)
  QCheck.Test.make ~name:"between supports repeated splitting" ~count:50 QCheck.unit
    (fun () ->
      let rec go lo hi n =
        n = 0
        ||
        let m = Flex.between lo hi in
        (match lo with None -> true | Some l -> String.compare l m < 0)
        && (match hi with None -> true | Some h -> String.compare m h < 0)
        && go lo (Some m) (n - 1)
      in
      go (Some "b") (Some "c") 60)

let prop_sequence_between_compatible =
  QCheck.Test.make ~name:"sequence components admit between-insertion" ~count:20
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 2 80)) (fun n ->
      let cs = Array.of_list (Flex.sequence n) in
      Array.for_all
        (fun i ->
          let m = Flex.between (Some cs.(i)) (Some cs.(i + 1)) in
          String.compare cs.(i) m < 0 && String.compare m cs.(i + 1) < 0)
        (Array.init (n - 1) Fun.id))

(* ---- oracle: packed keys agree with the component-array reference ---- *)

(* a small component pool makes shared prefixes, ancestors and
   component-prefix siblings (b / bc) common *)
let gen_cs =
  let open QCheck.Gen in
  let* d = int_range 0 5 in
  list_size (return d) (oneofl [ "b"; "bc"; "c"; "cb"; "d"; "zz" ])

let arb_cs = QCheck.make ~print:(String.concat ".") gen_cs
let both cs = (Flex.of_components cs, Flex_ref.of_components cs)
let same_key k r = String.equal (Flex.encode k) (Flex_ref.encode r)
let sign x = Stdlib.compare x 0

let prop_oracle_order =
  QCheck.Test.make ~name:"oracle: compare, equal, ancestry, parent" ~count:1000
    (QCheck.pair arb_cs arb_cs) (fun (a, b) ->
      let (ka, ra), (kb, rb) = (both a, both b) in
      sign (Flex.compare ka kb) = sign (Flex_ref.compare ra rb)
      && Flex.equal ka kb = Flex_ref.equal ra rb
      && Flex.is_ancestor ka kb = Flex_ref.is_ancestor ra rb
      && Flex.is_ancestor_or_self ka kb = Flex_ref.is_ancestor_or_self ra rb
      && Flex.is_parent ka kb
         = (match Flex_ref.parent rb with Some p -> Flex_ref.equal p ra | None -> false)
      && same_key (Flex.common_ancestor ka kb) (Flex_ref.common_ancestor ra rb))

let prop_oracle_structure =
  QCheck.Test.make ~name:"oracle: depth, parent, prefix, child" ~count:1000
    (QCheck.pair arb_cs (QCheck.make gen_component)) (fun (cs, c) ->
      let k, r = both cs in
      let d = Flex.depth k in
      d = Flex_ref.depth r
      && (match (Flex.parent k, Flex_ref.parent r) with
         | None, None -> true
         | Some p, Some rp -> same_key p rp
         | _ -> false)
      && Flex.last_component k = Flex_ref.last_component r
      && List.for_all
           (fun i -> same_key (Flex.prefix k i) (Flex_ref.prefix r i))
           (List.init (d + 1) Fun.id)
      && same_key (Flex.child k c) (Flex_ref.child r c)
      && (match Flex.prefix k (d + 1) with _ -> false | exception Invalid_argument _ -> true))

let prop_oracle_serialization =
  QCheck.Test.make ~name:"oracle: to_string, of_string, encode, decode" ~count:1000 arb_cs
    (fun cs ->
      let k, r = both cs in
      String.equal (Flex.to_string k) (Flex_ref.to_string r)
      && same_key (Flex.of_string (Flex.to_string k)) (Flex_ref.of_string (Flex_ref.to_string r))
      && same_key (Flex.decode (Flex_ref.encode r)) (Flex_ref.decode (Flex.encode k)))

let prop_oracle_bounds =
  QCheck.Test.make ~name:"oracle: bound_compare_key, every bound form" ~count:1000
    (QCheck.pair arb_cs arb_cs) (fun (t, k) ->
      let (kt, rt), (kk, rk) = (both t, both k) in
      List.for_all
        (fun (b, rb) -> Flex.bound_compare_key b kk = Flex_ref.bound_compare_key rb rk)
        [ (Flex.Min, Flex_ref.Min); (Flex.Before kt, Flex_ref.Before rt);
          (Flex.After_key kt, Flex_ref.After_key rt);
          (Flex.After_subtree kt, Flex_ref.After_subtree rt); (Flex.Max, Flex_ref.Max) ])

(* the packed key is the on-disk encoding: pages, WAL records, snapshots
   and manifests keep their bytes *)
let prop_encode_pinned =
  QCheck.Test.make ~name:"encode is the 0x01-joined components" ~count:500
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 6) gen_component))
    (fun cs -> String.equal (Flex.encode (Flex.of_components cs)) (String.concat "\x01" cs))

let test_decode_rejects () =
  List.iter
    (fun (what, s) ->
      let rejects decode = match decode s with _ -> false | exception Invalid_argument _ -> true in
      Alcotest.(check bool) ("decode rejects " ^ what) true (rejects Flex.decode);
      Alcotest.(check bool) ("reference rejects " ^ what) true (rejects Flex_ref.decode))
    [ ("empty component", "\x01"); ("leading 0x01", "\x01b"); ("trailing 0x01", "b\x01");
      ("doubled 0x01", "b\x01\x01c"); ("byte outside a..z", "b\x01cA");
      ("trailing a", "ba\x01c"); ("trailing a in the last component", "c\x01ba") ];
  Alcotest.(check bool) "empty string is the document" true
    (Flex.equal Flex.document (Flex.decode ""))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_compare_total_order; prop_encode_order_preserving; prop_ancestor_matches_range;
      prop_between; prop_between_iterated; prop_sequence_between_compatible; prop_oracle_order;
      prop_oracle_structure; prop_oracle_serialization; prop_oracle_bounds; prop_encode_pinned ]

let suite =
  ( "flex",
    [ Alcotest.test_case "document order" `Quick test_document_order;
      Alcotest.test_case "component validity" `Quick test_component_validity;
      Alcotest.test_case "ancestry" `Quick test_ancestry;
      Alcotest.test_case "between basic" `Quick test_between_basic;
      Alcotest.test_case "sequence" `Quick test_sequence;
      Alcotest.test_case "bounds" `Quick test_bounds;
      Alcotest.test_case "serialization" `Quick test_serialization;
      Alcotest.test_case "decode rejects malformed keys" `Quick test_decode_rejects ]
    @ props )
