(* Unit tests for each transformation rule: firing cases, guard cases
   (where the rewrite would be unsound and must not fire), and a per-rule
   equivalence property on random documents. *)

open Vamana
module Store = Mass.Store

let compile src =
  match Compile.compile_query src with
  | Ok p -> Rewrite.apply_cleanup p
  | Error e -> Alcotest.fail e

let chain plan =
  List.map
    (fun (op : Plan.op) ->
      match op.Plan.kind with
      | Plan.Root -> "R"
      | Plan.Step (axis, test) ->
          Xpath.Ast.axis_name axis ^ "::" ^ Xpath.Ast.node_test_to_string test
      | Plan.Value_step (v, _) -> "value::'" ^ v ^ "'"
      | Plan.Step_generic s -> "generic::" ^ Xpath.Ast.node_test_to_string s.Xpath.Ast.test)
    (Plan.context_chain plan)

(* apply one rule at the first operator where it fires *)
let apply_rule (rule : Rewrite.rule) plan =
  List.fold_left
    (fun acc (op : Plan.op) ->
      match acc with Some _ -> acc | None -> rule.Rewrite.apply plan ~target:op.Plan.id)
    None (Plan.context_chain plan)

let check_fires rule src expected_chain =
  match apply_rule rule (compile src) with
  | Some plan' -> Alcotest.(check (list string)) (rule.Rewrite.name ^ ": " ^ src) expected_chain (chain plan')
  | None -> Alcotest.fail (rule.Rewrite.name ^ " did not fire on " ^ src)

let check_no_fire rule src =
  match apply_rule rule (compile src) with
  | None -> ()
  | Some p ->
      Alcotest.fail
        (Printf.sprintf "%s should not fire on %s (got %s)" rule.Rewrite.name src
           (String.concat "/" (chain p)))

let test_self_merge () =
  (* cleanup already applies it; test through a raw compile *)
  let raw = match Compile.compile_query "//a/self::a" with Ok p -> p | Error e -> Alcotest.fail e in
  (match apply_rule Rewrite.self_merge raw with
  | Some p ->
      Alcotest.(check bool) "self gone" true
        (not (List.exists (fun s -> String.length s >= 4 && String.sub s 0 4 = "self") (chain p)))
  | None -> Alcotest.fail "self_merge did not fire");
  (* incompatible name tests must not merge *)
  check_no_fire Rewrite.self_merge "parent::a/self::b"

let raw_compile src =
  match Compile.compile_query src with Ok p -> p | Error e -> Alcotest.fail e

let test_descendant_merge () =
  (* cleanup would already apply it, so test against the raw plan *)
  (match apply_rule Rewrite.descendant_merge (raw_compile "//person") with
  | Some p -> Alcotest.(check (list string)) "merged" [ "R"; "descendant::person" ] (chain p)
  | None -> Alcotest.fail "descendant_merge did not fire");
  (* positional predicate blocks the merge *)
  match apply_rule Rewrite.descendant_merge (raw_compile "//person[2]") with
  | None -> ()
  | Some _ -> Alcotest.fail "descendant_merge must not fire on //person[2]"

let test_parent_elim () =
  check_fires Rewrite.parent_elim "descendant::name/parent::person"
    [ "R"; "descendant-or-self::person" ];
  check_fires Rewrite.parent_elim "child::name/parent::*" [ "R"; "self::*" ];
  (* ancestor axis is not parent: different rule *)
  check_no_fire Rewrite.parent_elim "descendant::name/ancestor::person";
  (* positional predicates block it *)
  check_no_fire Rewrite.parent_elim "descendant::name[2]/parent::person"

let test_ancestor_pushdown () =
  check_fires Rewrite.ancestor_pushdown "descendant::watches/child::watch/ancestor::person"
    [ "R"; "ancestor::person"; "descendant::watches" ];
  (* guard: same name test on feeder and target would lose the feeder itself *)
  check_no_fire Rewrite.ancestor_pushdown "descendant::person/child::watch/ancestor::person";
  (* leaf variant *)
  check_fires Rewrite.ancestor_pushdown "descendant::watch/ancestor::person"
    [ "R"; "descendant::person" ]

let test_child_pushdown () =
  check_fires Rewrite.child_pushdown "descendant::person/child::address"
    [ "R"; "descendant::address" ];
  (* wildcard feeder cannot be proven disjoint: from the document leaf it
     is safe (document is not an element) *)
  check_fires Rewrite.child_pushdown "descendant::*/child::address"
    [ "R"; "descendant::address" ];
  (* node() target is never safe *)
  check_no_fire Rewrite.child_pushdown "descendant::node()/child::address" |> ignore;
  (* inner position: a wildcard feeder above a non-leaf descendant step
     blocks the rewrite *)
  check_no_fire Rewrite.child_pushdown "descendant::a/descendant::*/child::b"

let test_value_index () =
  check_fires Rewrite.value_index "descendant::name[text()='Yung Flach']"
    [ "R"; "parent::name"; "value::'Yung Flach'" ];
  (* attribute variant *)
  check_fires Rewrite.value_index "descendant::person[attribute::id='p1']"
    [ "R"; "parent::person"; "value::'p1'" ];
  (* inequality is not value-indexable *)
  check_no_fire Rewrite.value_index "descendant::name[text()!='x']";
  (* deeper paths in the predicate are not a plain text()/attribute shape *)
  check_no_fire Rewrite.value_index "descendant::person[address/city='x']";
  (* child axis steps are not rewritten (depth guard) *)
  check_no_fire Rewrite.value_index "descendant::a/child::name[text()='x']"

(* ---- per-rule equivalence on random documents ---- *)

let rule_equivalence_queries =
  [ (* each exercises one rule *)
    "//person"; "descendant::name/parent::person"; "descendant::name/parent::*";
    "//watches/watch/ancestor::person"; "descendant::watch/ancestor::person";
    "descendant::person/child::address"; "//person/address/city";
    "descendant::city[text()='Monroe']"; "//person[@id='i']";
    "descendant::name[text()='Monroe']/parent::*" ]

let prop_rule_equivalence =
  QCheck.Test.make ~name:"each rewrite rule preserves node sets" ~count:40
    (QCheck.make Test_vamana.gen_tree) (fun tree ->
      let store = Store.create () in
      let doc = Store.load store ~name:"gen" tree in
      let ctx = doc.Store.doc_key in
      List.for_all
        (fun src ->
          let base = compile src in
          let expected = Exec.run store ~context:ctx base in
          List.for_all
            (fun (rule : Rewrite.rule) ->
              (* apply the rule everywhere it fires, repeatedly *)
              let rec saturate plan n =
                if n = 0 then plan
                else
                  match apply_rule rule plan with
                  | Some plan' -> saturate plan' (n - 1)
                  | None -> plan
              in
              let rewritten = saturate base 8 in
              let actual = Exec.run store ~context:ctx rewritten in
              if List.equal Flex.equal expected actual then true
              else begin
                Printf.eprintf "RULE %s breaks %s\n  expected %s\n  got      %s\n"
                  rule.Rewrite.name src
                  (String.concat "," (List.map Flex.to_string expected))
                  (String.concat "," (List.map Flex.to_string actual));
                false
              end)
            (Rewrite.cleanup_rules @ Rewrite.cost_rules))
        rule_equivalence_queries)

(* ---- per-rule property-signature preservation ---- *)

(* every stock rule, applied to a query it fires on, must keep the
   analyzer's rewrite signature intact: same static-emptiness verdict, a
   result description no wider than before, identical positional
   fingerprints — the admission contract the optimizer enforces *)
let test_signature_preservation () =
  let store, doc = Test_vamana.setup () in
  let scope = Some doc.Store.doc_key in
  let estimate p = Cost.estimate store ~scope p in
  let firing =
    [ (Rewrite.self_merge, raw_compile "//a/self::a");
      (Rewrite.descendant_merge, raw_compile "//person");
      (Rewrite.parent_elim, compile "descendant::name/parent::person");
      (Rewrite.ancestor_pushdown, compile "descendant::watch/ancestor::person");
      (Rewrite.child_pushdown, compile "descendant::person/child::address");
      (Rewrite.value_index, compile "descendant::name[text()='Yung Flach']") ]
  in
  List.iter
    (fun ((rule : Rewrite.rule), before) ->
      match apply_rule rule before with
      | None -> Alcotest.fail (rule.Rewrite.name ^ " did not fire")
      | Some after ->
          let verdict =
            Analysis.check_rewrite
              ~before:(Analysis.signature_of (estimate before) before)
              ~after:(Analysis.signature_of (estimate after) after)
              ~after_errors:(Analysis.structural_diagnostics after)
          in
          (match verdict with
          | Ok () -> ()
          | Error reason ->
              Alcotest.fail (rule.Rewrite.name ^ ": signature not preserved: " ^ reason)))
    firing

let test_cleanup_idempotent () =
  List.iter
    (fun src ->
      let once = compile src in
      let twice = Rewrite.apply_cleanup once in
      Alcotest.(check bool) (src ^ " cleanup idempotent") true (Plan.equal_structure once twice))
    [ "//person/address"; "descendant::name/parent::*/self::person/address"; "//a//b/c" ]

let suite =
  ( "rewrite",
    [ Alcotest.test_case "self merge" `Quick test_self_merge;
      Alcotest.test_case "descendant merge" `Quick test_descendant_merge;
      Alcotest.test_case "parent elimination" `Quick test_parent_elim;
      Alcotest.test_case "ancestor pushdown" `Quick test_ancestor_pushdown;
      Alcotest.test_case "child pushdown" `Quick test_child_pushdown;
      Alcotest.test_case "value index" `Quick test_value_index;
      Alcotest.test_case "cleanup idempotent" `Quick test_cleanup_idempotent;
      Alcotest.test_case "signature preservation" `Quick test_signature_preservation;
      QCheck_alcotest.to_alcotest prop_rule_equivalence ] )
