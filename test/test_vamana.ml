(* Tests for the VAMANA engine: compiler, executor, cost model, optimizer.

   The load-bearing oracle: for a corpus of queries and for random
   documents, the pipelined plan executor (optimized and unoptimized)
   returns exactly the node set of the generic XPath evaluator. *)

open Vamana
module Store = Mass.Store

let auction_doc =
  {xml|<site>
  <regions><namerica>
    <item id="item0"><name>rusty bike</name><description>old</description></item>
    <item id="item1"><name>teapot</name><description>fine china</description></item>
  </namerica></regions>
  <people>
    <person id="person0">
      <name>Yung Flach</name>
      <emailaddress>Flach@auth.gr</emailaddress>
      <address><street>92 Pfisterer St</street><city>Monroe</city>
        <country>United States</country><province>Vermont</province><zipcode>12</zipcode></address>
      <watches><watch open_auction="oa108"/><watch open_auction="oa94"/></watches>
    </person>
    <person id="person1">
      <name>Ann Smith</name>
      <address><city>Boston</city><province>Texas</province></address>
      <watches><watch open_auction="oa1"/></watches>
    </person>
    <person id="person2"><name>Bob Stone</name></person>
  </people>
  <open_auctions>
    <open_auction id="oa1"><itemref item="item0"/><price>12.5</price><quantity>1</quantity></open_auction>
    <open_auction id="oa2"><itemref item="item1"/><price>3.5</price><quantity>2</quantity></open_auction>
  </open_auctions>
</site>|xml}

let setup () =
  let store = Store.create () in
  let doc = Store.load_string store ~name:"auction.xml" auction_doc in
  (store, doc)

let paper_queries =
  [ "//person/address";
    "//watches/watch/ancestor::person";
    "/descendant::name/parent::*/self::person/address";
    "//itemref/following-sibling::price/parent::*";
    "//province[text()='Vermont']/ancestor::person";
    "descendant::name/parent::*/self::person/address";
    "//name[text()='Yung Flach']/following-sibling::emailaddress" ]

let corpus =
  paper_queries
  @ [ "//person";
      "//person/name";
      "//person[address]/name";
      "//person[address/city='Monroe']";
      "//address[not(province)]";
      "//person[@id='person1']/name";
      "//watch/@open_auction";
      "//person[watches/watch]/address/city";
      "//city/preceding-sibling::street";
      "//province/preceding::emailaddress";
      "//name/following::price";
      "//item/description/..";
      "//person/node()";
      "//address/*";
      "//person[2]";
      "//person[position() > 1]/name";
      "//person[last()]";
      "//open_auction[price > 4]/itemref";
      "//open_auction[quantity = 1 or price < 4]";
      "//person[name = 'Bob Stone' and not(address)]";
      "//person/descendant-or-self::*/name";
      "//address/ancestor-or-self::person";
      "/site/people/person/address/province";
      "//text()";
      "//comment()";
      "//person[count(watches/watch) = 2]/name" ]

let run_nav store ~context src =
  match Xpath.Parser.parse src with
  | Xpath.Ast.Path p -> Nav.E.eval_path store ~context p
  | _ -> Alcotest.fail ("not a path: " ^ src)

let keys_to_string keys = String.concat "," (List.map Flex.to_string keys)

let check_engine_agrees ~optimize store doc src =
  let expected = run_nav store ~context:doc.Store.doc_key src in
  match Engine.query ~optimize store ~context:doc.Store.doc_key src with
  | Error msg -> Alcotest.fail (Printf.sprintf "%s: %s" src msg)
  | Ok r ->
      Alcotest.(check string)
        (Printf.sprintf "%s (optimize=%b)" src optimize)
        (keys_to_string expected) (keys_to_string r.Engine.keys)

let test_corpus_vqp () =
  let store, doc = setup () in
  List.iter (check_engine_agrees ~optimize:false store doc) corpus

let test_corpus_vqp_opt () =
  let store, doc = setup () in
  List.iter (check_engine_agrees ~optimize:true store doc) corpus

let test_results_nonempty () =
  (* guard against vacuous agreement: the paper queries must select nodes *)
  let store, doc = setup () in
  List.iter
    (fun src ->
      match Engine.query store ~context:doc.Store.doc_key src with
      | Ok r ->
          Alcotest.(check bool) (src ^ " selects nodes") true (List.length r.Engine.keys > 0)
      | Error msg -> Alcotest.fail msg)
    paper_queries

(* ---- paper running examples ---- *)

let chain_kinds plan =
  List.map
    (fun (op : Plan.op) ->
      match op.Plan.kind with
      | Plan.Root -> "R"
      | Plan.Step (axis, test) ->
          Printf.sprintf "%s::%s" (Xpath.Ast.axis_name axis) (Xpath.Ast.node_test_to_string test)
      | Plan.Value_step (v, _) -> Printf.sprintf "value::'%s'" v
      | Plan.Step_generic s -> "generic::" ^ Xpath.Ast.node_test_to_string s.Xpath.Ast.test)
    (Plan.context_chain plan)

let test_cleanup_fig5 () =
  (* descendant::name/parent::*/self::person => descendant::name/parent::person *)
  let plan =
    match Compile.compile_query "descendant::name/parent::*/self::person/address" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let cleaned = Rewrite.apply_cleanup plan in
  Alcotest.(check (list string)) "merged self step"
    [ "R"; "child::address"; "parent::person"; "descendant::name" ]
    (chain_kinds cleaned)

let test_optimize_q1_fig8_fig11 () =
  (* //person/address ends as descendant::address[parent::person] *)
  let store, doc = setup () in
  let plan =
    match Compile.compile_query "//person/address" with Ok p -> p | Error e -> Alcotest.fail e
  in
  let o = Optimizer.optimize store ~scope:(Some doc.Store.doc_key) plan in
  Alcotest.(check (list string)) "pushed-down plan" [ "R"; "descendant::address" ]
    (chain_kinds o.Optimizer.plan);
  let final_step = Option.get o.Optimizer.plan.Plan.context in
  Alcotest.(check bool) "has parent::person exist predicate" true
    (List.exists
       (function
         | Plan.Exists sub -> (
             match sub.Plan.kind with
             | Plan.Step (Xpath.Ast.Parent, Xpath.Ast.Name_test "person") -> true
             | _ -> false)
         | _ -> false)
       final_step.Plan.predicates);
  Alcotest.(check bool) "applied at least one rule" true (List.length o.Optimizer.trace >= 1)

let test_optimize_q2_fig9 () =
  (* //name[text()='Yung Flach'] uses the value index after optimization *)
  let store, doc = setup () in
  let plan =
    match Compile.compile_query "//name[text()='Yung Flach']/following-sibling::emailaddress" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let o = Optimizer.optimize store ~scope:(Some doc.Store.doc_key) plan in
  Alcotest.(check (list string)) "value-index plan"
    [ "R"; "following-sibling::emailaddress"; "parent::name"; "value::'Yung Flach'" ]
    (chain_kinds o.Optimizer.plan)

let test_optimize_q2_dup_elim () =
  (* //watches/watch/ancestor::person => //watches[watch]/ancestor::person *)
  let store, doc = setup () in
  let plan =
    match Compile.compile_query "//watches/watch/ancestor::person" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let o = Optimizer.optimize store ~scope:(Some doc.Store.doc_key) plan in
  Alcotest.(check (list string)) "dup-elim plan" [ "R"; "ancestor::person"; "descendant::watches" ]
    (chain_kinds o.Optimizer.plan);
  (* the raw (non-deduplicated) stream of the optimized plan must be
     duplicate-free while the default plan's is not *)
  let raw_default = Exec.run_raw store ~context:doc.Store.doc_key plan in
  let raw_opt = Exec.run_raw store ~context:doc.Store.doc_key o.Optimizer.plan in
  Alcotest.(check bool) "default emits duplicates" true
    (List.length raw_default > List.length (List.sort_uniq Flex.compare raw_default));
  Alcotest.(check int) "optimized emits no duplicates"
    (List.length (List.sort_uniq Flex.compare raw_opt))
    (List.length raw_opt)

(* ---- cost model ---- *)

let test_cost_q1_annotations () =
  let store, doc = setup () in
  let plan =
    match Compile.compile_query "//person/address" with Ok p -> p | Error e -> Alcotest.fail e
  in
  let plan = Rewrite.apply_cleanup plan in
  let costed = Cost.estimate store ~scope:(Some doc.Store.doc_key) plan in
  (* chain: R / child::address / descendant::person *)
  match Plan.context_chain plan with
  | [ root; address; person ] ->
      let s_person = Hashtbl.find costed person.Plan.id in
      let s_address = Hashtbl.find costed address.Plan.id in
      let s_root = Hashtbl.find costed root.Plan.id in
      Alcotest.(check int) "person COUNT" 3 s_person.Cost.count;
      Alcotest.(check int) "person IN = COUNT (leaf)" 3 s_person.Cost.input;
      Alcotest.(check int) "person OUT" 3 s_person.Cost.output;
      Alcotest.(check int) "address COUNT" 2 s_address.Cost.count;
      Alcotest.(check int) "address IN" 3 s_address.Cost.input;
      Alcotest.(check int) "address OUT = min(COUNT)" 2 s_address.Cost.output;
      Alcotest.(check int) "root passes through" 2 s_root.Cost.output;
      Alcotest.(check bool) "address is most selective" true
        (s_address.Cost.selectivity > s_person.Cost.selectivity)
  | _ -> Alcotest.fail "unexpected chain shape"

let test_cost_table_one () =
  List.iter
    (fun (axis, count, input, expected) ->
      let open Xpath.Ast in
      let plan =
        Plan.mk
          ~context:(Plan.mk (Plan.Step (Self, Node_test)))
          (Plan.Step (axis, Wildcard))
      in
      ignore plan;
      (* direct check through the exposed estimator would need a store;
         validate the table through a tiny handwritten store instead *)
      ignore (count, input, expected))
    [];
  (* Table I via a store: downward OUT=COUNT, upward OUT=IN *)
  let store, doc = setup () in
  let q src =
    match Compile.compile_query src with Ok p -> Rewrite.apply_cleanup p | Error e -> Alcotest.fail e
  in
  let costed_out src =
    let plan = q src in
    let costed = Cost.estimate store ~scope:(Some doc.Store.doc_key) plan in
    (Hashtbl.find costed (Option.get plan.Plan.context).Plan.id).Cost.output
  in
  (* parent axis: OUT = IN (all 5 names flow through), paper Fig. 6 *)
  Alcotest.(check int) "parent::person OUT = IN" 5 (costed_out "//name/parent::person");
  (* child axis: OUT = COUNT *)
  Alcotest.(check int) "child::address OUT = COUNT" 2 (costed_out "//person/address")

let test_cost_is_upper_bound () =
  let store, doc = setup () in
  List.iter
    (fun src ->
      match Compile.compile_query src with
      | Error e -> Alcotest.fail e
      | Ok plan ->
          let plan = Rewrite.apply_cleanup plan in
          let costed = Cost.estimate store ~scope:(Some doc.Store.doc_key) plan in
          let est = (Hashtbl.find costed plan.Plan.id).Cost.output in
          let actual = List.length (Exec.run_raw store ~context:doc.Store.doc_key plan) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: est %d >= actual %d" src est actual)
            true (est >= actual))
    paper_queries

let test_optimizer_monotone_trace () =
  let store, doc = setup () in
  List.iter
    (fun src ->
      match Compile.compile_query src with
      | Error e -> Alcotest.fail e
      | Ok plan ->
          let o = Optimizer.optimize store ~scope:(Some doc.Store.doc_key) plan in
          List.iter
            (fun (t : Optimizer.trace_entry) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s %d -> %d" src t.Optimizer.rule t.Optimizer.cost_before
                   t.Optimizer.cost_after)
                true
                (t.Optimizer.cost_after <= t.Optimizer.cost_before))
            o.Optimizer.trace)
    corpus

(* ---- engine facade ---- *)

let test_engine_explain () =
  let store, doc = setup () in
  match Engine.explain store doc "//person/address" with
  | Ok s ->
      Alcotest.(check bool) "mentions default plan" true
        (String.length s > 0 && String.sub s 0 7 = "Default");
      let contains needle hay =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "mentions a rewrite" true (contains "applied" s);
      (* clean-up merges the // step: it is a rewrite too *)
      Alcotest.(check bool) "shows the clean-up" true (contains "applied cleanup: cost " s);
      Alcotest.(check bool) "shows counts" true (contains "COUNT=" s);
      Alcotest.(check bool) "single path has no branch header" false (contains "Branch" s)
  | Error e -> Alcotest.fail e

(* explain accepts every query prepare accepts: a union is explained
   branch by branch *)
let test_engine_explain_union () =
  let store, doc = setup () in
  match Engine.explain store doc "//person/name | //item/name" with
  | Error e -> Alcotest.fail e
  | Ok s ->
      let count needle =
        let n = String.length needle and h = String.length s in
        let rec go i acc =
          if i + n > h then acc else go (i + 1) (if String.sub s i n = needle then acc + 1 else acc)
        in
        go 0 0
      in
      Alcotest.(check int) "two branch headers" 2 (count "Branch ");
      Alcotest.(check int) "a default plan per branch" 2 (count "Default plan:");
      Alcotest.(check int) "an optimized plan per branch" 2 (count "Optimized plan");
      Alcotest.(check bool) "person branch" true (count "person" > 0);
      Alcotest.(check bool) "item branch" true (count "item" > 0)

(* Operator ids come from a process-wide counter, so they depend on which
   tests ran first: renumber Φ/β/R/L ids by first appearance. *)
let renumber_ids s =
  let ids = Hashtbl.create 16 in
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let is_digit c = c >= '0' && c <= '9' in
  let rec go i =
    if i < n then begin
      let mark =
        if i + 1 < n && s.[i] = '\xCE' && (s.[i + 1] = '\xA6' || s.[i + 1] = '\xB2') then 2
        else if (s.[i] = 'R' || s.[i] = 'L') && i + 1 < n && is_digit s.[i + 1] then 1
        else 0
      in
      if mark > 0 && i + mark < n && is_digit s.[i + mark] then begin
        Buffer.add_string b (String.sub s i mark);
        let j = ref (i + mark) in
        while !j < n && is_digit s.[!j] do incr j done;
        let id = String.sub s (i + mark) (!j - i - mark) in
        let k =
          match Hashtbl.find_opt ids id with
          | Some k -> k
          | None ->
              let k = Hashtbl.length ids + 1 in
              Hashtbl.add ids id k;
              k
        in
        Buffer.add_string b (string_of_int k);
        go !j
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
    end
  in
  go 0;
  Buffer.contents b

(* The CI lint corpus, explained on the seeded 0.5 MB XMark document:
   pins every bound, Table I annotation, applied rewrite and footprint. *)
let lint_corpus =
  [ "//person/address";
    "//watches/watch/ancestor::person";
    "/descendant::name/parent::*/self::person/address";
    "//itemref/following-sibling::price/parent::*";
    "//province[text()='Vermont']/ancestor::person" ]

let explain_corpus_expected =
  {|-- //person/address
Default plan:
R1  {card≤63}  {COUNT=63 IN=63 OUT=63}
  Φ2 child::address  {card≤63}  {COUNT=63 IN=128 OUT=63}
    Φ3 child::person  {card≤128}  {COUNT=128 IN=6524 OUT=128}
      Φ4 descendant-or-self::node()  {card≤6524}  {COUNT=6524 IN=6524 OUT=6524}

applied cleanup: cost 6778 -> 254
applied child-pushdown at Φ2 child::address: cost 254 -> 189
Optimized plan (1 iterations):
R1  {card≤63}  {COUNT=63 IN=63 OUT=63}
  Φ5 descendant::address  {card≤63}  {COUNT=63 IN=63 OUT=63}
    ξ
      Φ6 parent::person  {card≤1}  {COUNT=128 IN=63 OUT=63}

Footprint: tag:address tag:person
-- //watches/watch/ancestor::person
Default plan:
R1  {card≤128}  {COUNT=162 IN=162 OUT=162}
  Φ2 ancestor::person  {card≤128}  {COUNT=128 IN=162 OUT=162}
    Φ3 child::watch  {card≤162}  {COUNT=162 IN=69 OUT=162}
      Φ4 child::watches  {card≤69}  {COUNT=69 IN=6524 OUT=69}
        Φ5 descendant-or-self::node()  {card≤6524}  {COUNT=6524 IN=6524 OUT=6524}

applied cleanup: cost 7079 -> 555
applied ancestor-pushdown at Φ2 ancestor::person: cost 555 -> 369
Optimized plan (1 iterations):
R1  {card≤128}  {COUNT=69 IN=69 OUT=69}
  Φ2 ancestor::person  {card≤128}  {COUNT=128 IN=69 OUT=69}
    Φ6 descendant::watches  {card≤69}  {COUNT=69 IN=69 OUT=69}
      ξ
        Φ7 child::watch  {card≤162}  {COUNT=162 IN=69 OUT=162}

Footprint: tag:person tag:watch tag:watches
Diagnostics:
  info [reverse-axis] Φ2 ancestor::person: reverse axis ancestor:: survives optimization (streams in reverse document order)
-- /descendant::name/parent::*/self::person/address
Default plan:
R1  {card≤63}  {COUNT=63 IN=63 OUT=63}
  Φ2 child::address  {card≤63}  {COUNT=63 IN=242 OUT=63}
    Φ3 self::person  {card≤128}  {COUNT=128 IN=242 OUT=242}
      Φ4 parent::*  {card≤242}  {COUNT=6524 IN=242 OUT=242}
        Φ5 descendant::name  {card≤242}  {COUNT=242 IN=242 OUT=242}

applied cleanup: cost 852 -> 610
applied parent-elim at Φ4 parent::person: cost 610 -> 496
applied child-pushdown at Φ2 child::address: cost 496 -> 431
Optimized plan (2 iterations):
R1  {card≤63}  {COUNT=63 IN=63 OUT=63}
  Φ6 descendant::address  {card≤63}  {COUNT=63 IN=63 OUT=63}
    ξ
      Φ7 parent::person  {card≤1}  {COUNT=128 IN=63 OUT=63}
        ξ
          Φ8 child::name  {card≤242}  {COUNT=242 IN=63 OUT=242}

Footprint: tag:address tag:name tag:person
-- //itemref/following-sibling::price/parent::*
Default plan:
R1  {card≤49}  {COUNT=109 IN=109 OUT=109}
  Φ2 parent::*  {card≤49}  {COUNT=6524 IN=109 OUT=109}
    Φ3 following-sibling::price  {card≤49}  {COUNT=49 IN=109 OUT=109}
      Φ4 child::itemref  {card≤109}  {COUNT=109 IN=6524 OUT=109}
        Φ5 descendant-or-self::node()  {card≤6524}  {COUNT=6524 IN=6524 OUT=6524}

applied cleanup: cost 6960 -> 436
Optimized plan (0 iterations):
R1  {card≤49}  {COUNT=109 IN=109 OUT=109}
  Φ2 parent::*  {card≤49}  {COUNT=6524 IN=109 OUT=109}
    Φ3 following-sibling::price  {card≤49}  {COUNT=49 IN=109 OUT=109}
      Φ6 descendant::itemref  {card≤109}  {COUNT=109 IN=109 OUT=109}

Footprint: kind:element tag:itemref tag:price
-- //province[text()='Vermont']/ancestor::person
Default plan:
R1  {card≤128}  {COUNT=2 IN=2 OUT=2}
  Φ2 ancestor::person  {card≤128}  {COUNT=128 IN=2 OUT=2}
    Φ3 child::province  {card≤2}  {COUNT=29 IN=6524 OUT=2}
      β4 =
        Φ5 child::text()  {card≤2091}  {COUNT=2091 IN=29 OUT=2091}
        L6 'Vermont'
      Φ7 descendant-or-self::node()  {card≤6524}  {COUNT=6524 IN=6524 OUT=6524}

applied cleanup: cost 8621 -> 2097
applied value-index at Φ8 descendant::province: cost 2097 -> 8
Optimized plan (1 iterations):
R1  {card≤128}  {COUNT=2 IN=2 OUT=2}
  Φ2 ancestor::person  {card≤128}  {COUNT=128 IN=2 OUT=2}
    Φ9 parent::province  {card≤2}  {COUNT=29 IN=2 OUT=2}
      Φ10 value::'Vermont' (source text())  {card≤2}  {COUNT=2 TC=2 IN=1 OUT=2}

Footprint: tag:person tag:province value:Vermont
Diagnostics:
  info [reverse-axis] Φ2 ancestor::person: reverse axis ancestor:: survives optimization (streams in reverse document order)
|}

let test_engine_explain_golden () =
  let store = Store.create () in
  let doc = Xmark.load ~seed:42L store 0.5 in
  let out =
    String.concat ""
      (List.map
         (fun q ->
           match Engine.explain store doc q with
           | Ok s -> Printf.sprintf "-- %s\n%s" q (renumber_ids s)
           | Error e -> Alcotest.fail e)
         lint_corpus)
  in
  Alcotest.(check string) "explain output" explain_corpus_expected out

let test_engine_eval () =
  let store, doc = setup () in
  (match Engine.eval store ~context:doc.Store.doc_key "count(//person)" with
  | Ok (Xpath.Eval.Num f) -> Alcotest.(check (float 0.0)) "count" 3.0 f
  | Ok _ -> Alcotest.fail "expected a number"
  | Error e -> Alcotest.fail e);
  match Engine.eval store ~context:doc.Store.doc_key "string(//person[1]/name)" with
  | Ok (Xpath.Eval.Str s) -> Alcotest.(check string) "string" "Yung Flach" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.fail e

let test_query_store_multidoc () =
  let store = Store.create () in
  let _ = Store.load_string store ~name:"a.xml" "<r><person><name>A</name></person></r>" in
  let _ = Store.load_string store ~name:"b.xml" "<r><person><name>B</name></person><person><name>C</name></person></r>" in
  match Engine.query_store store "//person/name" with
  | Ok results ->
      let names =
        List.concat_map
          (fun ((_ : Store.doc), (r : Engine.result)) ->
            List.map (Store.string_value store) r.Engine.keys)
          results
      in
      Alcotest.(check (list string)) "all documents queried" [ "A"; "B"; "C" ] names
  | Error e -> Alcotest.fail e

let test_engine_timings_and_io () =
  let store, doc = setup () in
  match Engine.query store ~context:doc.Store.doc_key "//person/address" with
  | Ok r ->
      Alcotest.(check bool) "io recorded" true (r.Engine.io.Storage.Stats.logical_reads > 0);
      Alcotest.(check bool) "optimizer ran" true (r.Engine.optimizer <> None);
      Alcotest.(check bool) "times nonnegative" true
        (r.Engine.compile_time >= 0.0 && r.Engine.optimize_time >= 0.0
       && r.Engine.execute_time >= 0.0)
  | Error e -> Alcotest.fail e

(* ---- property: VQP & VQP-OPT agree with the evaluator on random docs ---- *)

let gen_tree =
  let open QCheck.Gen in
  let name = oneofl [ "person"; "name"; "address"; "city"; "watch"; "a" ] in
  let rec spec depth =
    if depth = 0 then
      oneof [ map (fun s -> Xml.Tree.D s) (oneofl [ "Monroe"; "x"; "12" ]) ]
    else
      let* n = name in
      let* nc = int_range 0 3 in
      let* children = list_size (return nc) (spec (depth - 1)) in
      let* with_attr = bool in
      let attrs = if with_attr then [ ("id", "i") ] else [] in
      return (Xml.Tree.E (n, attrs, children))
  in
  let* root = spec 3 in
  match root with
  | Xml.Tree.E _ -> return (Xml.Tree.document [ root ])
  | _ -> return (Xml.Tree.document [ Xml.Tree.E ("r", [], [ root ]) ])

let random_queries =
  [ "//person/address"; "//name"; "//person[name]"; "//city/ancestor::person";
    "//address/city"; "//person//city"; "//city[text()='Monroe']/ancestor::person";
    "//watch/parent::*"; "//name/following-sibling::address"; "//person[@id='i']";
    "//address/preceding-sibling::name"; "//person[2]"; "//city/.." ]

let prop_engine_matches_evaluator =
  QCheck.Test.make ~name:"VQP and VQP-OPT match the generic evaluator" ~count:40
    (QCheck.make gen_tree) (fun tree ->
      let store = Store.create () in
      let doc = Store.load store ~name:"gen" tree in
      List.for_all
        (fun src ->
          let expected = run_nav store ~context:doc.Store.doc_key src in
          let run opt =
            match Engine.query ~optimize:opt store ~context:doc.Store.doc_key src with
            | Ok r -> r.Engine.keys
            | Error e -> failwith e
          in
          let vqp = run false and vqp_opt = run true in
          let same = List.equal Flex.equal in
          if not (same expected vqp && same expected vqp_opt) then begin
            Printf.eprintf "DISAGREE %s\n  eval: %s\n  vqp:  %s\n  opt:  %s\n" src
              (keys_to_string expected) (keys_to_string vqp) (keys_to_string vqp_opt);
            false
          end
          else true)
        random_queries)


let test_nonstandard_positional () =
  (* position() in a shape outside the algebra's Position operator must
     still evaluate with true positional semantics (via Step_generic) *)
  let store, doc = setup () in
  let expected = run_nav store ~context:doc.Store.doc_key "//person[position() mod 2 = 1]/name" in
  match Engine.query store ~context:doc.Store.doc_key "//person[position() mod 2 = 1]/name" with
  | Ok r ->
      Alcotest.(check string) "odd-position persons" (keys_to_string expected)
        (keys_to_string r.Engine.keys);
      Alcotest.(check int) "two odd positions" 2 (List.length r.Engine.keys)
  | Error e -> Alcotest.fail e

(* Engine.bind: the plan is kept, every literal-dependent verdict is
   re-derived for the new value *)
let test_bind_rederives_verdicts () =
  let store = Store.create () in
  let doc = Store.load_string store ~name:"b.xml" "<r><a>x</a><a>y</a><b>x</b></r>" in
  let scope = Some doc.Store.doc_key and context = doc.Store.doc_key in
  let prep v =
    match Engine.prepare ~slots:[| v |] store ~scope (Printf.sprintf "//a[text()='%s']" v) with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let absent = prep "w" in
  Alcotest.(check bool) "absent literal is statically empty" true
    (Analysis.statically_empty (List.hd absent.Engine.tables)
       (List.hd absent.Engine.executed_plans));
  let bound = Engine.bind store absent ~source:"//a[text()='x']" [| "x" |] in
  Alcotest.(check bool) "plan kept" true
    (List.equal Plan.equal_structure
       (List.map (Plan.map_literals (fun _ -> "x")) absent.Engine.executed_plans)
       bound.Engine.executed_plans);
  Alcotest.(check bool) "emptiness proof not carried over" false
    (Analysis.statically_empty (List.hd bound.Engine.tables)
       (List.hd bound.Engine.executed_plans));
  Alcotest.(check int) "bound plan answers for x" 1
    (List.length (Engine.execute_prepared store ~context bound).Engine.keys);
  Alcotest.(check bool) "footprint value atom is the bound literal's" true
    (List.mem "value:x" (Footprint.atoms bound.Engine.prep_footprint)
    && not (List.mem "value:w" (Footprint.atoms bound.Engine.prep_footprint)));
  Alcotest.(check (array string)) "slots record the binding" [| "x" |] bound.Engine.slots;
  Alcotest.(check (array int)) "classes: TC=1 and TC=0" [| 1; 0 |]
    (Engine.slot_classes store ~scope [| "y"; "w" |]);
  Alcotest.(check (array int)) "classes: TC=2 and a repeat of slot 1" [| 2; -1 |]
    (Engine.slot_classes store ~scope [| "x"; "x" |]);
  let two =
    match
      Engine.prepare ~slots:[| "x"; "x" |] store ~scope "//a[text()='x' or text()='x']"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Alcotest.check_raises "a binding must keep the equality pattern"
    (Invalid_argument "Engine.bind: the values do not match the prepared slots") (fun () ->
      ignore (Engine.bind store two ~source:"" [| "x"; "y" |]))

let suite =
  ( "vamana",
    [ Alcotest.test_case "corpus: VQP matches evaluator" `Quick test_corpus_vqp;
      Alcotest.test_case "bind re-derives literal verdicts" `Quick test_bind_rederives_verdicts;
      Alcotest.test_case "corpus: VQP-OPT matches evaluator" `Quick test_corpus_vqp_opt;
      Alcotest.test_case "paper queries select nodes" `Quick test_results_nonempty;
      Alcotest.test_case "clean-up merges self steps (Fig 5)" `Quick test_cleanup_fig5;
      Alcotest.test_case "Q1 optimization (Figs 8+11)" `Quick test_optimize_q1_fig8_fig11;
      Alcotest.test_case "Q2 value-index rewrite (Fig 9)" `Quick test_optimize_q2_fig9;
      Alcotest.test_case "Q2 duplicate elimination" `Quick test_optimize_q2_dup_elim;
      Alcotest.test_case "cost annotations (Fig 6)" `Quick test_cost_q1_annotations;
      Alcotest.test_case "cost Table I" `Quick test_cost_table_one;
      Alcotest.test_case "estimates are upper bounds" `Quick test_cost_is_upper_bound;
      Alcotest.test_case "optimizer cost is monotone" `Quick test_optimizer_monotone_trace;
      Alcotest.test_case "explain output" `Quick test_engine_explain;
      Alcotest.test_case "explain union query" `Quick test_engine_explain_union;
      Alcotest.test_case "explain golden on the lint corpus" `Quick test_engine_explain_golden;
      Alcotest.test_case "generic eval facade" `Quick test_engine_eval;
      Alcotest.test_case "timings and io" `Quick test_engine_timings_and_io;
      Alcotest.test_case "query_store over multiple documents" `Quick test_query_store_multidoc;
      Alcotest.test_case "non-standard positional predicates" `Quick test_nonstandard_positional;
      QCheck_alcotest.to_alcotest prop_engine_matches_evaluator ] )
