(* Update robustness: the paper's claim that statistics stay exact under
   inserts and deletes because they are computed from the live index
   (§I: "cost accuracy is not affected by updates, inserts and deletes"). *)

module Store = Mass.Store

let base_doc = "<site><people/></site>"

let setup () =
  let store = Store.create () in
  let doc = Store.load_string store ~name:"t.xml" base_doc in
  (store, doc)

let people_key store doc =
  let c = Store.axis_cursor store Xpath.Ast.Descendant (Xpath.Ast.Name_test "people") doc.Store.doc_key in
  Option.get (c ())

let count store name =
  Store.count_test store ~principal:Mass.Record.Element (Xpath.Ast.Name_test name)

(* recount by scanning every record — the ground truth the index must match *)
let recount store doc name =
  Store.fold_document store doc
    (fun n _ r ->
      if r.Mass.Record.kind = Mass.Record.Element && String.equal r.Mass.Record.name name then
        n + 1
      else n)
    0

let test_counts_track_inserts () =
  let store, doc = setup () in
  let people = people_key store doc in
  for i = 1 to 20 do
    let _ =
      Store.insert_element store ~parent:people "person"
        [ ("id", Printf.sprintf "p%d" i) ]
        (Some (Printf.sprintf "name%d" i))
    in
    Alcotest.(check int) (Printf.sprintf "count after %d inserts" i) i (count store "person");
    Alcotest.(check int) "matches rescan" (recount store doc "person") (count store "person")
  done

let test_counts_track_deletes () =
  let store, doc = setup () in
  let people = people_key store doc in
  let keys =
    List.init 10 (fun i ->
        Store.insert_element store ~parent:people "person" [] (Some (string_of_int i)))
  in
  List.iteri
    (fun i k ->
      ignore (Store.delete_subtree store k);
      Alcotest.(check int) (Printf.sprintf "count after %d deletes" (i + 1)) (9 - i)
        (count store "person"))
    keys

let test_tc_tracks_updates () =
  let store, doc = setup () in
  let people = people_key store doc in
  Alcotest.(check int) "tc 0" 0 (Store.text_value_count store "Waldo");
  let k1 = Store.insert_element store ~parent:people "person" [] (Some "Waldo") in
  let _k2 = Store.insert_element store ~parent:people "person" [] (Some "Waldo") in
  Alcotest.(check int) "tc 2" 2 (Store.text_value_count store "Waldo");
  ignore (Store.delete_subtree store k1);
  Alcotest.(check int) "tc 1 after delete" 1 (Store.text_value_count store "Waldo");
  ignore doc

let test_cost_reacts_to_updates () =
  (* the optimizer's value-index decision flips as TC changes *)
  let store, doc = setup () in
  let people = people_key store doc in
  let insert name =
    Store.insert_element store ~parent:people "person" [] (Some name)
  in
  for _ = 1 to 50 do
    ignore (insert "Common")
  done;
  let rare = insert "Rare" in
  ignore rare;
  let estimate_out src =
    match Vamana.Compile.compile_query src with
    | Error e -> Alcotest.fail e
    | Ok plan ->
        let plan = Vamana.Rewrite.apply_cleanup plan in
        let costed = Vamana.Cost.estimate store ~scope:(Some doc.Store.doc_key) plan in
        (Hashtbl.find costed plan.Vamana.Plan.id).Vamana.Cost.output
  in
  let before = estimate_out "//person[text()='Rare']" in
  Alcotest.(check int) "rare estimate" 1 before;
  (* delete the rare person: estimate drops to zero immediately *)
  (match
     Vamana.Engine.query_doc store doc "//person[text()='Rare']"
   with
  | Ok r -> List.iter (fun k -> ignore (Store.delete_subtree store k)) r.Vamana.Engine.keys
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "estimate reflects delete" 0 (estimate_out "//person[text()='Rare']")

let test_queries_after_updates () =
  let store, doc = setup () in
  let people = people_key store doc in
  let p1 = Store.insert_element store ~parent:people "person" [ ("id", "a") ] None in
  let p2 = Store.insert_element store ~parent:people "person" [ ("id", "b") ] None in
  let _addr = Store.insert_element store ~parent:p1 "address" [] (Some "Monroe") in
  (* insert p3 between p1 and p2 using FLEX between-keys *)
  let p3 = Store.insert_element store ~parent:people ~after:p1 "person" [ ("id", "c") ] None in
  let ids =
    match Vamana.Engine.query_doc store doc "//person/@id" with
    | Ok r -> List.map (fun k -> (Store.get_exn store k).Mass.Record.value) r.Vamana.Engine.keys
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list string)) "document order respects between-insert" [ "a"; "c"; "b" ] ids;
  ignore (p2, p3);
  match Vamana.Engine.query_doc store doc "//person[address]/@id" with
  | Ok r ->
      Alcotest.(check int) "person with address" 1 (List.length r.Vamana.Engine.keys)
  | Error e -> Alcotest.fail e

(* random update workloads keep every structure consistent *)
type update_op = Insert of int | Delete of int

let gen_ops =
  let open QCheck.Gen in
  list_size (int_range 1 60)
    (frequency [ (3, map (fun i -> Insert i) (int_range 0 9)); (1, map (fun i -> Delete i) (int_range 0 99)) ])

let print_ops ops =
  String.concat ";"
    (List.map (function Insert i -> Printf.sprintf "I%d" i | Delete i -> Printf.sprintf "D%d" i) ops)

let prop_updates_consistent =
  QCheck.Test.make ~name:"random update workload keeps counts and axes exact" ~count:60
    (QCheck.make ~print:print_ops gen_ops) (fun ops ->
      let store, doc = setup () in
      let people = people_key store doc in
      let live = ref [] in
      List.iter
        (fun op ->
          match op with
          | Insert tag ->
              let name = Printf.sprintf "t%d" tag in
              let k = Store.insert_element store ~parent:people name [] (Some name) in
              live := k :: !live
          | Delete idx -> (
              match !live with
              | [] -> ()
              | l ->
                  let k = List.nth l (idx mod List.length l) in
                  ignore (Store.delete_subtree store k);
                  live := List.filter (fun k' -> not (Flex.equal k k')) l))
        ops;
      (* counts per tag match a full rescan *)
      let ok_counts =
        List.for_all
          (fun tag ->
            let name = Printf.sprintf "t%d" tag in
            count store name = recount store doc name
            && Store.text_value_count store name = recount store doc name)
          [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
      in
      (* child axis yields exactly the live keys, in order *)
      let children =
        let c = Store.axis_cursor store Xpath.Ast.Child Xpath.Ast.Wildcard people in
        let rec go acc = match c () with Some k -> go (k :: acc) | None -> List.rev acc in
        go []
      in
      let expected = List.sort Flex.compare !live in
      (* full three-index cross-validation after the workload *)
      Store.validate store;
      ok_counts
      && List.equal Flex.equal expected children
      && Store.subtree_size store people = 1 + (2 * List.length !live))

(* The maintained path synopsis under a random mix of every content
   mutation: materialised once up front, it must verify against a
   rescan after each step, and the document roots it held must be the
   same nodes throughout — a rescan would have replaced them. *)
type syn_op =
  | S_insert of int * int * bool * bool  (** parent pick, tag, attributes, text *)
  | S_delete_inserted of int
  | S_delete_original of int
  | S_load
  | S_remove

let syn_tags = [| "person"; "name"; "address"; "t0"; "t1" |]

let gen_syn_ops =
  let open QCheck.Gen in
  list_size (int_range 1 40)
    (frequency
       [ (5, map (fun (((p, t), a), x) -> S_insert (p, t, a, x))
               (pair (pair (pair (int_range 0 99) (int_range 0 4)) bool) bool));
         (2, map (fun i -> S_delete_inserted i) (int_range 0 99));
         (1, map (fun i -> S_delete_original i) (int_range 0 99));
         (1, return S_load);
         (1, return S_remove) ])

let print_syn_ops ops =
  String.concat ";"
    (List.map
       (function
         | S_insert (p, t, a, x) -> Printf.sprintf "I(%d,%s,%b,%b)" p syn_tags.(t) a x
         | S_delete_inserted i -> Printf.sprintf "DI%d" i
         | S_delete_original i -> Printf.sprintf "DO%d" i
         | S_load -> "L"
         | S_remove -> "R")
       ops)

let syn_doc =
  "<site><people><person id=\"p0\"><name>Ann</name><address><city>Oslo</city></address>\
   </person><person id=\"p1\"><name>Bo</name></person></people><regions><item/></regions></site>"

let elements store (doc : Store.doc) =
  let c = Store.axis_cursor store Xpath.Ast.Descendant Xpath.Ast.Wildcard doc.Store.doc_key in
  let rec go acc = match c () with Some k -> go (k :: acc) | None -> List.rev acc in
  go []

let prop_synopsis_maintained =
  QCheck.Test.make ~name:"maintained synopsis equals a rescan after every mutation" ~count:100
    (QCheck.make ~print:print_syn_ops gen_syn_ops) (fun ops ->
      let store = Store.create () in
      let doc = Store.load_string store ~name:"a.xml" syn_doc in
      let other = Store.load_string store ~name:"u.xml" "<u><v w=\"1\">x</v></u>" in
      let module Syn = Mass.Synopsis in
      let root (d : Store.doc) = Syn.roots (Syn.for_store store) ~scope:(Some d.Store.doc_key) in
      let root_a = root doc and root_u = root other in
      let originals = elements store doc in
      let inserted = ref [] and loaded = ref [] in
      let pick l i = List.nth l (i mod List.length l) in
      let alive k = Store.get store k <> None in
      let step op =
        match op with
        | S_insert (p, t, a, x) ->
            let parent = pick (doc.Store.doc_key :: elements store doc) p in
            let attrs = if a then [ ("id", "v"); ("k", "w") ] else [] in
            let text = if x then Some "txt" else None in
            inserted := Store.insert_element store ~parent syn_tags.(t) attrs text :: !inserted
        | S_delete_inserted i -> (
            match List.filter alive !inserted with
            | [] -> ()
            | l -> ignore (Store.delete_subtree store (pick l i)))
        | S_delete_original i -> (
            match List.filter alive originals with
            | [] -> ()
            | l -> ignore (Store.delete_subtree store (pick l i)))
        | S_load ->
            let name = Printf.sprintf "c%d.xml" (List.length !loaded) in
            loaded := Store.load_string store ~name "<site><people><person/></people></site>" :: !loaded
        | S_remove -> (
            match !loaded with
            | d :: rest ->
                Store.remove_document store d;
                loaded := rest
            | [] -> ())
      in
      List.for_all
        (fun op ->
          step op;
          (match Syn.verify store (Syn.for_store store) with
          | Ok () -> ()
          | Error e -> QCheck.Test.fail_report e);
          List.equal ( == ) (root doc) root_a && List.equal ( == ) (root other) root_u)
        ops)

let suite =
  ( "updates",
    [ Alcotest.test_case "counts track inserts" `Quick test_counts_track_inserts;
      Alcotest.test_case "counts track deletes" `Quick test_counts_track_deletes;
      Alcotest.test_case "text counts track updates" `Quick test_tc_tracks_updates;
      Alcotest.test_case "cost estimates react to updates" `Quick test_cost_reacts_to_updates;
      Alcotest.test_case "queries after updates" `Quick test_queries_after_updates;
      QCheck_alcotest.to_alcotest prop_updates_consistent;
      QCheck_alcotest.to_alcotest prop_synopsis_maintained ] )
