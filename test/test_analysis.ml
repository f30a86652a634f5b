(* Static-analysis tests: per-operator cardinality bounds, static
   emptiness (with the engine short-circuit's page-read delta), update
   safety of cached plans, structural well-formedness, the seeded
   order-breaking rewrite trip-check, and a differential harness that
   validates every analyzer claim against observed executor behaviour on
   generated queries. *)

open Vamana
module Store = Mass.Store
module Ast = Xpath.Ast
module A = Analysis

let compile src =
  match Compile.compile_query src with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let cleaned src = Rewrite.apply_cleanup (compile src)

let estimate store (doc : Store.doc) plan = Cost.estimate store ~scope:(Some doc.Store.doc_key) plan
let bound costed (op : Plan.op) = (Hashtbl.find costed op.Plan.id).Cost.bound

let root_bound store doc src =
  let plan = cleaned src in
  bound (estimate store doc plan) plan

(* ---- per-operator cardinality bounds ---- *)

let test_step_props () =
  let store, doc = Test_vamana.setup () in
  let check src card = Alcotest.(check int) src card (root_bound store doc src) in
  (* descendant over the single root context: COUNT(person) = 3 *)
  check "//person" 3;
  (* any other axis is bounded by its own COUNT, whatever its input *)
  check "//person/address" 2;
  check "//watch/@open_auction" 3;
  check "//watch/ancestor::person" 3;
  (* self and parent: min(input, COUNT) *)
  check "//person/self::node()" 3;
  check "/child::site/parent::node()" 1

let test_root_and_generic_props () =
  let store, doc = Test_vamana.setup () in
  (* R passes its context through *)
  let plan = cleaned "//person" in
  let a = estimate store doc plan in
  let chain = Plan.context_chain plan in
  let step = List.nth chain 1 in
  Alcotest.(check int) "R = step bound" (bound a step) (bound a plan);
  (* a last() predicate compiles to a generic step, bounded by its
     COUNT like any step *)
  let gplan = cleaned "//person[last()]" in
  Alcotest.(check bool) "generic step present" true
    (List.exists
       (fun (op : Plan.op) ->
         match op.Plan.kind with Plan.Step_generic _ -> true | _ -> false)
       (Plan.subtree_ops gplan));
  Alcotest.(check bool) "generic card bounded" true (bound (estimate store doc gplan) gplan <= 3)

let test_value_step_props () =
  let store, doc = Test_vamana.setup () in
  let scope = Some doc.Store.doc_key in
  let o = Optimizer.optimize store ~scope (compile "//name[text()='Yung Flach']") in
  let has_value_step =
    List.exists
      (fun (op : Plan.op) ->
        match op.Plan.kind with Plan.Value_step _ -> true | _ -> false)
      (Plan.subtree_ops o.Optimizer.plan)
  in
  Alcotest.(check bool) "value_index fired" true has_value_step;
  (* TC('Yung Flach') = 1 *)
  Alcotest.(check int) "value plan card" 1 (bound o.Optimizer.cost o.Optimizer.plan)

(* ---- static emptiness and dead predicates ---- *)

let test_emptiness () =
  let store, doc = Test_vamana.setup () in
  let empty src =
    let plan = cleaned src in
    A.statically_empty (estimate store doc plan) plan
  in
  let diagnostics src =
    let plan = cleaned src in
    A.diagnostics (estimate store doc plan) plan
  in
  Alcotest.(check bool) "absent tag" true (empty "//nosuchtag");
  Alcotest.(check bool) "absent tag deeper" true (empty "//nosuchtag/child::x");
  Alcotest.(check bool) "position beyond COUNT" true (empty "//person[5]");
  Alcotest.(check bool) "absent value" true (empty "//province[text()='Nowhere']");
  Alcotest.(check bool) "present value not empty" false (empty "//province[text()='Vermont']");
  Alcotest.(check bool) "present tag not empty" false (empty "//person");
  (* the diagnostics name the cause *)
  let reported code src =
    List.exists (fun (d : A.diagnostic) -> d.A.code = code) (diagnostics src)
  in
  Alcotest.(check bool) "dead-predicate reported" true
    (reported "dead-predicate" "//province[text()='Nowhere']");
  Alcotest.(check bool) "empty-step reported" true (reported "empty-step" "//nosuchtag");
  (* a tautological position predicate is flagged as redundant *)
  Alcotest.(check bool) "redundant-predicate reported" true
    (reported "redundant-predicate" "//person[position()>=1]")

(* the engine must skip execution entirely: zero page reads *)
let test_engine_short_circuit () =
  let store, doc = Test_vamana.setup () in
  (match Engine.query store ~context:doc.Store.doc_key "//person" with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "control query reads pages" true
        (r.Engine.io.Storage.Stats.logical_reads > 0));
  match Engine.query store ~context:doc.Store.doc_key "//nosuchtag" with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check (list string)) "no results" []
        (List.map Flex.to_string r.Engine.keys);
      Alcotest.(check bool) "statically empty" true
        (A.statically_empty (estimate store doc r.Engine.executed_plan) r.Engine.executed_plan);
      Alcotest.(check int) "zero logical reads" 0 r.Engine.io.Storage.Stats.logical_reads;
      Alcotest.(check int) "zero physical reads" 0 r.Engine.io.Storage.Stats.physical_reads

let test_short_circuit_event () =
  let store, doc = Test_vamana.setup () in
  Obs.reset ();
  Obs.attach_ring ();
  Fun.protect
    ~finally:(fun () -> Obs.reset ())
    (fun () ->
      (match Engine.query store ~context:doc.Store.doc_key "//nosuchtag" with
      | Error e -> Alcotest.fail e
      | Ok _ -> ());
      let events = Obs.drain () in
      Alcotest.(check bool) "static_empty_skip emitted" true
        (List.exists (fun (e : Obs.event) -> e.Obs.name = "static_empty_skip") events))

(* a cached emptiness verdict must not survive a store update *)
let test_update_safety () =
  let store, doc = Test_vamana.setup () in
  let scope = Some doc.Store.doc_key in
  match Engine.prepare store ~scope "//freshtag" with
  | Error e -> Alcotest.fail e
  | Ok p ->
      let r0 = Engine.execute_prepared store ~context:doc.Store.doc_key p in
      Alcotest.(check int) "empty before insert" 0 (List.length r0.Engine.keys);
      let parent =
        match Store.root_element_key doc store with
        | Some k -> k
        | None -> Alcotest.fail "no root element"
      in
      let _ = Store.insert_element store ~parent "freshtag" [] (Some "hello") in
      (* same prepared value, post-update epoch: its emptiness proof no
         longer applies *)
      let r1 = Engine.execute_prepared store ~context:doc.Store.doc_key p in
      Alcotest.(check int) "found after insert" 1 (List.length r1.Engine.keys)

let fresh_keys store ~context src =
  match Engine.query store ~context src with
  | Ok r -> List.map Flex.to_string r.Engine.keys
  | Error e -> Alcotest.fail e

(* execution reads no analysis, so a write costs a cached plan nothing
   but its run *)
let test_no_reanalysis () =
  let store, doc = Test_vamana.setup () in
  let context = doc.Store.doc_key in
  match Engine.prepare store ~scope:(Some context) "//freshtag" with
  | Error e -> Alcotest.fail e
  | Ok p ->
      let parent =
        match Store.root_element_key doc store with
        | Some k -> k
        | None -> Alcotest.fail "no root element"
      in
      let _ = Store.insert_element store ~parent "freshtag" [] (Some "hello") in
      let r = Engine.execute_prepared store ~context p in
      let names = List.map (fun (s : Profile.span) -> s.Profile.name) r.Engine.spans in
      Alcotest.(check bool) "no analyze span" false (List.mem "analyze" names);
      Alcotest.(check string) "execute last" "execute" (List.nth names (List.length names - 1));
      Alcotest.(check (list string)) "keys of a fresh query"
        (fresh_keys store ~context "//freshtag")
        (List.map Flex.to_string r.Engine.keys)

(* a cached plan's stream order is checked when it runs, not when it was
   prepared: with one [people], [//people/person] streams in document
   order; a [people] nested inside the first [person] unsorts the raw
   stream, and the cached plan must still answer as a fresh query *)
let test_nested_write_answers () =
  let store = Store.create () in
  let doc =
    Store.load_string store ~name:"people.xml"
      "<site><people><person/><person/></people></site>"
  in
  let context = doc.Store.doc_key in
  match Engine.prepare store ~scope:(Some context) "//people/person" with
  | Error e -> Alcotest.fail e
  | Ok p ->
      let first_person =
        match Engine.query store ~context "//person" with
        | Ok { Engine.keys = k :: _; _ } -> k
        | _ -> Alcotest.fail "no person"
      in
      let nested = Store.insert_element store ~parent:first_person "people" [] None in
      let _ = Store.insert_element store ~parent:nested "person" [] None in
      let raw = Exec.run_raw store ~context (List.hd p.Engine.executed_plans) in
      Alcotest.(check bool) "raw stream now unsorted" false
        (List.sort_uniq Flex.compare raw = raw);
      let keys = (Engine.execute_prepared store ~context p).Engine.keys in
      Alcotest.(check (list string)) "cached plan answers as a fresh query"
        (fresh_keys store ~context "//people/person")
        (List.map Flex.to_string keys);
      Alcotest.(check int) "three people/person" 3 (List.length keys);
      Alcotest.(check bool) "in document order" true (List.sort_uniq Flex.compare keys = keys)

(* ---- structural well-formedness ---- *)

let test_structural () =
  let leaf = Plan.mk (Plan.Step (Ast.Descendant, Ast.Name_test "person")) in
  let ok_plan = Plan.mk ~context:leaf Plan.Root in
  Alcotest.(check int) "well-formed plan" 0 (List.length (A.structural_diagnostics ok_plan));
  let is_error (d : A.diagnostic) = d.A.severity = Xpath.Typecheck.Error in
  (* R with predicates: the executor would silently ignore them *)
  let bad = Plan.mk ~context:leaf ~predicates:[ Plan.Position (Ast.Eq, 1.) ] Plan.Root in
  Alcotest.(check bool) "R-with-predicates flagged" true
    (List.exists is_error (A.structural_diagnostics bad));
  (* β with a non-comparison operator: the executor raises mid-stream *)
  let bad_beta =
    Plan.mk
      ~context:(Plan.mk (Plan.Step (Ast.Descendant_or_self, Ast.Node_test)))
      ~predicates:
        [ Plan.Binary
            (Plan.fresh_id (), Ast.Add, Plan.Number_operand 1., Plan.Number_operand 2.) ]
      (Plan.Step (Ast.Child, Ast.Name_test "person"))
  in
  let root = Plan.mk ~context:bad_beta Plan.Root in
  Alcotest.(check bool) "non-comparison β flagged" true
    (List.exists is_error (A.structural_diagnostics root))

(* ---- seeded-bug trip-check: an order-breaking rule must be rejected ---- *)

(* descendant_merge with the positional-safety guard deliberately
   removed: merging [dos::node()/child::t[position()]] into
   [descendant::t[position()]] re-streams the positional candidates on a
   different axis, changing which node is "the 2nd" *)
let buggy_descendant_merge : Rewrite.rule =
  let apply root ~target =
    let chain = Plan.context_chain root in
    let rec go acc = function
      | (a : Plan.op) :: (b : Plan.op) :: rest when a.Plan.id = target -> (
          match (a.Plan.kind, b.Plan.kind) with
          | Plan.Step (Ast.Child, t), Plan.Step (Ast.Descendant_or_self, Ast.Node_test)
            when b.Plan.predicates = [] ->
              let merged = Plan.mk ~predicates:a.Plan.predicates (Plan.Step (Ast.Descendant, t)) in
              Plan.rebuild_chain (List.rev_append acc (merged :: rest))
          | _ -> None)
      | x :: rest -> go (x :: acc) rest
      | [] -> None
    in
    go [] chain
  in
  { Rewrite.name = "buggy-descendant-merge";
    description = "seeded bug: descendant merge without the positional guard";
    apply }

let test_seeded_bug_rejected () =
  let store, doc = Test_vamana.setup () in
  let scope = Some doc.Store.doc_key in
  let plan = compile "//person[2]" in
  let o = Optimizer.optimize ~rules:[ buggy_descendant_merge ] store ~scope plan in
  Alcotest.(check int) "no rewrite admitted" 0 (List.length o.Optimizer.trace);
  let property_rejections =
    List.fold_left
      (fun acc (s : Optimizer.iteration_stat) -> acc + s.Optimizer.property_rejected)
      0 o.Optimizer.iteration_stats
  in
  Alcotest.(check bool) "property check tripped" true (property_rejections > 0);
  (* the surviving plan still answers correctly *)
  let keys = Exec.run store ~context:doc.Store.doc_key o.Optimizer.plan in
  Alcotest.(check int) "correct result" 1 (List.length keys);
  (* sanity: the same merge on a positional-free plan preserves the
     signature — the rejection above is specifically about the
     positional fingerprint, not the rule shape.  (The optimizer never
     sees this case: cleanup merges positional-free dos/child pairs
     before the cost search runs.) *)
  let before = compile "//person" in
  let target = (Plan.leaf before).Plan.id in
  (* the chain is [R; child::person; dos::node()]: target the child step *)
  let target =
    match Plan.context_chain before with
    | [ _; c; _ ] -> c.Plan.id
    | _ -> target
  in
  match buggy_descendant_merge.Rewrite.apply before ~target with
  | None -> Alcotest.fail "merge did not fire on //person"
  | Some after ->
      let estimate p = Cost.estimate store ~scope p in
      (match
         A.check_rewrite
           ~before:(A.signature_of (estimate before) before)
           ~after:(A.signature_of (estimate after) after)
           ~after_errors:(A.structural_diagnostics after)
       with
      | Ok () -> ()
      | Error reason -> Alcotest.fail ("positional-free merge rejected: " ^ reason))

let test_seeded_bug_event () =
  let store, doc = Test_vamana.setup () in
  let scope = Some doc.Store.doc_key in
  let plan = compile "//person[2]" in
  (* the violation is visible on the bus *)
  Obs.reset ();
  Obs.attach_ring ();
  Fun.protect
    ~finally:(fun () -> Obs.reset ())
    (fun () ->
      let _ = Optimizer.optimize ~rules:[ buggy_descendant_merge ] store ~scope plan in
      let events = Obs.drain () in
      Alcotest.(check bool) "rule_property_violation emitted" true
        (List.exists
           (fun (e : Obs.event) ->
             e.Obs.name = "rule_property_violation" && e.Obs.severity = Obs.Warn)
           events))

(* the stock rule library never trips the property check *)
let test_stock_rules_clean () =
  let store, doc = Test_vamana.setup () in
  let scope = Some doc.Store.doc_key in
  List.iter
    (fun src ->
      let o = Optimizer.optimize store ~scope (compile src) in
      let rejections =
        List.fold_left
          (fun acc (s : Optimizer.iteration_stat) -> acc + s.Optimizer.property_rejected)
          0 o.Optimizer.iteration_stats
      in
      Alcotest.(check int) (src ^ " property rejections") 0 rejections)
    Test_vamana.paper_queries

(* ---- differential harness: analyzer claims vs observed behaviour ---- *)

(* deterministic LCG so the generated corpus is identical on every run *)
let mk_rng seed =
  let st = ref seed in
  fun bound ->
    st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
    !st mod bound

let pick rng l = List.nth l (rng (List.length l))

let axes =
  [ "child"; "child"; "child"; "descendant"; "descendant"; "descendant-or-self"; "self";
    "parent"; "ancestor"; "ancestor-or-self"; "following-sibling"; "preceding-sibling";
    "following"; "preceding"; "attribute" ]

let elem_tests =
  [ "person"; "name"; "address"; "city"; "watches"; "watch"; "open_auction"; "price";
    "itemref"; "province"; "item"; "nosuchtag"; "*"; "text()"; "node()" ]

let attr_tests = [ "id"; "open_auction"; "item"; "nosuchattr"; "*" ]

let predicates =
  [ ""; ""; ""; ""; ""; "[1]"; "[2]"; "[5]"; "[last()]"; "[position()>1]"; "[name]";
    "[child::name]"; "[text()='Vermont']"; "[text()='zzz-absent']"; "[@id='person0']";
    "[not(child::watches)]" ]

(* a step is "heavy" when it can fan out per context; allowing heavy
   steps only in first position (single context) keeps the harness fast
   without narrowing the grammar *)
let heavy axis test =
  match axis with
  | "following" | "preceding" -> true
  | "descendant" | "descendant-or-self" | "ancestor" | "ancestor-or-self" ->
      test = "node()" || test = "*"
  | _ -> false

let gen_query rng =
  let rec gen_steps n first acc =
    if n = 0 then List.rev acc
    else
      let axis = pick rng axes in
      let test = if axis = "attribute" then pick rng attr_tests else pick rng elem_tests in
      if heavy axis test && not first then gen_steps n first acc
      else
        let pred = pick rng predicates in
        (* positional / value predicates over an attribute step parse but
           add nothing; keep them to exercise the analyzer anyway *)
        gen_steps (n - 1) false ((axis ^ "::" ^ test ^ pred) :: acc)
  in
  let n = 1 + rng 3 in
  "/" ^ String.concat "/" (gen_steps n true [])

(* a violated claim is raised (not Alcotest.fail'd) so the harness can
   shrink the (document, query) pair before reporting *)
exception Claim of string

let claimf fmt = Printf.ksprintf (fun s -> raise (Claim s)) fmt

let check_claims store (doc : Store.doc) src plan =
  let a = estimate store doc plan in
  let raw = Exec.run_raw store ~context:doc.Store.doc_key plan in
  let set = List.sort_uniq Flex.compare raw in
  let n = bound a plan in
  if List.length set > n then
    claimf "%s: claimed card<=%d, result set has %d" src n (List.length set);
  if A.statically_empty a plan && raw <> [] then
    claimf "%s: claimed statically empty, stream has %d tuples" src (List.length raw);
  set

let test_differential () =
  let store = Store.create ~pool_pages:16384 () in
  let doc = Xmark.load store 0.1 in
  let seed = 20260806 in
  let rng = mk_rng seed in
  let n_queries = 220 in
  let checked = ref 0 in
  let doc_xml =
    lazy
      (match Store.to_tree store doc.Store.doc_key with
      | Some t -> Xml.Writer.to_string t
      | None -> Alcotest.fail "cannot reconstruct the XMark document")
  in
  (* a failure on the full XMark document is unreadable; shrink it to a
     minimal (document, query) pair with the bounded prover's shrinker
     and report that, together with the corpus seed for replay *)
  let fail_minimal src msg =
    match Smallcheck.shrink_pair ~doc:(Lazy.force doc_xml) ~query:src () with
    | Some cx ->
        Alcotest.failf
          "%s (corpus seed %d)\nminimal counterexample (%d shrink steps):\n  doc   %s\n  query %s\n  %s"
          msg seed cx.Smallcheck.cx_shrink_steps cx.Smallcheck.cx_doc cx.Smallcheck.cx_query
          cx.Smallcheck.cx_detail
    | None -> Alcotest.failf "%s (corpus seed %d, query %s)" msg seed src
    | exception _ -> Alcotest.failf "%s (corpus seed %d, query %s)" msg seed src
  in
  for _ = 1 to n_queries do
    let src = gen_query rng in
    try
      match (Engine.query ~optimize:false store ~context:doc.Store.doc_key src,
             Engine.query ~optimize:true store ~context:doc.Store.doc_key src)
      with
      | Error e, _ | _, Error e -> Alcotest.failf "%s: %s" src e
      | Ok r0, Ok r1 ->
          (* the engine's two pipelines must agree on the node set *)
          if not (List.equal Flex.equal r0.Engine.keys r1.Engine.keys) then
            claimf "%s: unoptimized %d keys, optimized %d keys — result sets differ" src
              (List.length r0.Engine.keys) (List.length r1.Engine.keys);
          (* every analyzer claim must hold on both plans, observed on the
             raw (unsorted, undeduplicated) executor stream *)
          let s0 = check_claims store doc src r0.Engine.executed_plan in
          let s1 = check_claims store doc src r1.Engine.executed_plan in
          if not (List.equal Flex.equal s0 s1) then
            claimf "%s: raw streams disagree with engine results" src;
          if not (List.equal Flex.equal s0 r0.Engine.keys) then
            claimf "%s: engine keys differ from observed node set" src;
          incr checked
    with Claim msg -> fail_minimal src msg
  done;
  Alcotest.(check int) "all generated queries checked" n_queries !checked;
  (* the analyzer's emptiness verdicts agree with the index probes the
     storage layer exposes *)
  Alcotest.(check bool) "test_present agrees" true
    (Store.test_present store ~scope:doc.Store.doc_key ~principal:Mass.Record.Element
       (Ast.Name_test "person"));
  Alcotest.(check bool) "absent tag agrees" false
    (Store.test_present store ~scope:doc.Store.doc_key ~principal:Mass.Record.Element
       (Ast.Name_test "nosuchtag"));
  Alcotest.(check bool) "value_present agrees" false
    (Store.value_present store ~scope:doc.Store.doc_key "zzz-absent")

let suite =
  ( "analysis",
    [ Alcotest.test_case "step properties" `Quick test_step_props;
      Alcotest.test_case "root and generic properties" `Quick test_root_and_generic_props;
      Alcotest.test_case "value step properties" `Quick test_value_step_props;
      Alcotest.test_case "static emptiness" `Quick test_emptiness;
      Alcotest.test_case "engine short-circuit" `Quick test_engine_short_circuit;
      Alcotest.test_case "short-circuit event" `Quick test_short_circuit_event;
      Alcotest.test_case "update safety" `Quick test_update_safety;
      Alcotest.test_case "no re-analysis after a write" `Quick test_no_reanalysis;
      Alcotest.test_case "cached plan after a nested write" `Quick test_nested_write_answers;
      Alcotest.test_case "structural well-formedness" `Quick test_structural;
      Alcotest.test_case "seeded bug rejected" `Quick test_seeded_bug_rejected;
      Alcotest.test_case "seeded bug event" `Quick test_seeded_bug_event;
      Alcotest.test_case "stock rules property-clean" `Quick test_stock_rules_clean;
      Alcotest.test_case "differential harness" `Slow test_differential ] )
