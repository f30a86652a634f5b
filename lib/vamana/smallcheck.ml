(* Small-scope bounded soundness prover: exhaustively enumerate tiny XML
   documents and bounded XPath plans, and check the rewrite library, the
   property analyzer and the cost model against ground truth (the raw
   executor stream and the generic evaluator) on every pair.  See
   smallcheck.mli and DESIGN.md §10. *)

open Xpath
module Store = Mass.Store
module Json = Profile.Json

type bounds = {
  depth : int;
  fanout : int;
  tags : int;
  texts : int;
  max_nodes : int;
  steps : int;
}

(* Committed CI configuration — exhaustive; EXPERIMENTS.md records the
   measured pair count and wall time.  Adjust deliberately: CI enforces
   the minimum pair count. *)
let default_bounds = { depth = 3; fanout = 2; tags = 2; texts = 1; max_nodes = 4; steps = 2 }
let ci_random_bounds = { depth = 5; fanout = 3; tags = 3; texts = 2; max_nodes = 14; steps = 4 }
let ci_random_cases = 500
let ci_seed = 20260808

(* Committed bounds of the (document, plan, update) interference sweep.
   The triple domain multiplies documents × plans × updates, so it is
   kept much tighter than the pair sweep: single-step queries still
   cover all 13 axes and the whole predicate menu, which is where the
   footprint analysis earns its keep.  EXPERIMENTS.md records the
   measured triple count and wall time. *)
let interference_bounds =
  { depth = 2; fanout = 2; tags = 2; texts = 1; max_nodes = 3; steps = 1 }

(* Committed bounds of the (document, query shape, literal pair) binding
   sweep: every query with a string literal is prepared once per
   literal of {!bind_domain} and each preparation is bound to every
   literal, so the domain multiplies documents × shapes × literals².
   EXPERIMENTS.md records the measured count and wall time. *)
let binding_bounds = { depth = 3; fanout = 2; tags = 2; texts = 1; max_nodes = 4; steps = 1 }

type family = Rule_soundness | Analysis_soundness | Cost_invariants | Interference | Binding

let family_to_string = function
  | Rule_soundness -> "rule-soundness"
  | Analysis_soundness -> "analysis-soundness"
  | Cost_invariants -> "cost-invariants"
  | Interference -> "interference"
  | Binding -> "binding"

let family_of_string = function
  | "rule-soundness" -> Some Rule_soundness
  | "analysis-soundness" -> Some Analysis_soundness
  | "cost-invariants" -> Some Cost_invariants
  | "interference" -> Some Interference
  | "binding" -> Some Binding
  | _ -> None

type counterexample = {
  cx_family : family;
  cx_check : string;
  cx_rule : string option;
  cx_doc : string;
  cx_query : string;
  cx_detail : string;
  cx_shrink_steps : int;
  cx_doc_nodes : int;
  cx_query_steps : int;
}

type report = {
  rp_subject : string;
  rp_bounds : bounds;
  rp_docs : int;
  rp_plans : int;
  rp_pairs : int;
  rp_random : int;
  rp_seed : int option;
  rp_sites : int;
  rp_updates : int;
  rp_triples : int;
  rp_bindings : int;
  rp_counterexamples : counterexample list;
  rp_wall : float;
}

(* ---- alphabets ---- *)

let tag_name i = String.make 1 (Char.chr (Char.code 'a' + i))
let text_value i = String.make 1 (Char.chr (Char.code 'x' + i))

(* The literals the binding family binds: the first text value (present
   in every document that has text) and one no document contains, so
   every preparation is bound across the TC = 0 class boundary in both
   directions. *)
let absent_literal = "w"
let bind_domain = [ text_value 0; absent_literal ]

let spec_nodes spec =
  let rec go = function
    | Xml.Tree.E (_, attrs, kids) ->
        1 + List.length attrs + List.fold_left (fun a k -> a + go k) 0 kids
    | Xml.Tree.D _ | Xml.Tree.Cm _ | Xml.Tree.Proc _ -> 1
  in
  go spec

(* ---- document enumeration ----

   Every document with one root element, nesting depth ≤ [depth], at most
   [fanout] children per element, tags from the first [tags] letters,
   text values from the first [texts] letters, and at most [max_nodes]
   nodes total.  Adjacent text children are never generated (they would
   merge on XML reparse, breaking counterexample replay).  Elements may
   carry one [id] attribute (first text value) when the text domain is
   non-empty — that is what the value-index rule's attribute variant
   matches.  The root tag is fixed to [a]: queries start at the document
   node, so varying the root tag only rescales the sweep. *)

let enum_documents (b : bounds) : Xml.Tree.spec list =
  let tags = List.init b.tags tag_name in
  let texts = List.init b.texts text_value in
  let attr_opts = if b.texts > 0 then [ []; [ ("id", text_value 0) ] ] else [ [] ] in
  let memo : (int * int, (Xml.Tree.spec * int) list) Hashtbl.t = Hashtbl.create 64 in
  let rec elements ~root depth budget =
    if depth < 1 || budget < 1 then []
    else
      let key = ((if root then -depth else depth), budget) in
      match Hashtbl.find_opt memo key with
      | Some r -> r
      | None ->
          let r =
            List.concat_map
              (fun tag ->
                List.concat_map
                  (fun attrs ->
                    let used = 1 + List.length attrs in
                    if used > budget then []
                    else
                      List.map
                        (fun (kids, ksz) -> (Xml.Tree.E (tag, attrs, kids), used + ksz))
                        (forests ~prev_text:false depth b.fanout (budget - used)))
                  attr_opts)
              (if root then [ tag_name 0 ] else tags)
          in
          Hashtbl.add memo key r;
          r
  and forests ~prev_text depth slots budget =
    ([], 0)
    ::
    (if slots = 0 || budget = 0 then []
     else
       let elem_heads = elements ~root:false (depth - 1) budget in
       let text_heads =
         if prev_text then [] else List.map (fun v -> (Xml.Tree.D v, 1)) texts
       in
       let with_head is_text (head, hsz) =
         List.map
           (fun (rest, rsz) -> (head :: rest, hsz + rsz))
           (forests ~prev_text:is_text depth (slots - 1) (budget - hsz))
       in
       List.concat_map (with_head false) elem_heads
       @ List.concat_map (with_head true) text_heads)
  in
  List.map fst (elements ~root:true b.depth b.max_nodes)

(* ---- query enumeration ----

   Absolute location paths of 1..steps steps.  The final step ranges
   over all 13 axes, element/wildcard/node/text tests, and the predicate
   menu (none, positional [2], existence [a], value [text()='x'],
   attribute-value [@id='x']).  Non-final steps are restricted to the
   downward axes — reverse and lateral axes from the document node are
   almost always empty, so spending the final position on them already
   covers their semantics, and every rewrite-rule pattern in the library
   keys on a downward feeder. *)

let pred_menu (b : bounds) =
  let first_tag = tag_name 0 in
  [ [];
    [ Ast.Number 2. ];
    [ Ast.Path { Ast.absolute = false; steps = [ Ast.step Ast.Child (Ast.Name_test first_tag) ] } ]
  ]
  @
  if b.texts > 0 then
    let v = text_value 0 in
    [ [ Ast.Binop
          ( Ast.Eq,
            Ast.Path { Ast.absolute = false; steps = [ Ast.step Ast.Child Ast.Text_test ] },
            Ast.Literal v ) ];
      [ Ast.Binop
          ( Ast.Eq,
            Ast.Path
              { Ast.absolute = false; steps = [ Ast.step Ast.Attribute (Ast.Name_test "id") ] },
            Ast.Literal v ) ] ]
  else []

let enum_queries (b : bounds) : Ast.path list =
  let names = List.init b.tags (fun i -> Ast.Name_test (tag_name i)) in
  let final_tests = names @ [ Ast.Wildcard; Ast.Node_test; Ast.Text_test ] in
  let inner_tests = names @ [ Ast.Wildcard; Ast.Node_test ] in
  let inner_axes = [ Ast.Child; Ast.Descendant; Ast.Descendant_or_self ] in
  let preds = pred_menu b in
  let finals =
    List.concat_map
      (fun axis ->
        List.concat_map
          (fun test -> List.map (fun p -> Ast.step ~predicates:p axis test) preds)
          final_tests)
      Ast.all_axes
  in
  let inners =
    (* wildcard/node() inner steps also carry a positional predicate:
       a later rule narrowing the test under a [2] changes which node
       is "the 2nd" — the bug class that killed self-merge's original
       guard hides exactly here *)
    List.concat_map
      (fun axis ->
        List.map (Ast.step axis) inner_tests
        @ List.map
            (fun t -> Ast.step ~predicates:[ Ast.Number 2. ] axis t)
            [ Ast.Wildcard; Ast.Node_test ])
      inner_axes
  in
  let rec prefixes k =
    if k <= 0 then [ [] ]
    else
      let shorter = prefixes (k - 1) in
      shorter
      @ List.concat_map
          (fun p -> if List.length p = k - 1 then List.map (fun s -> p @ [ s ]) inners else [])
          shorter
  in
  List.concat_map
    (fun pre -> List.map (fun f -> { Ast.absolute = true; steps = pre @ [ f ] }) finals)
    (prefixes (b.steps - 1))

(* ---- subjects: the real library and the seeded-unsound mutants ---- *)

type subject = {
  sub_name : string;
  sub_desc : string;
  sub_expected_check : string option;
  sub_expected_rule : string option;
  sub_rules : Rewrite.rule list;
  sub_estimate : Cost.statistics_source -> scope:Flex.t option -> Plan.op -> Cost.costed;
  sub_stats : Store.t -> Cost.statistics_source;
  sub_footprint : Plan.op -> Footprint.t;
  sub_bind : Store.t -> Engine.prepared -> source:string -> string array -> Engine.prepared;
}

let subject_name s = s.sub_name
let subject_expected_check s = s.sub_expected_check
let subject_expected_rule s = s.sub_expected_rule

let real_subject =
  { sub_name = "real";
    sub_desc = "production rule library, analyzer, synopsis statistics and footprint analysis";
    sub_expected_check = None;
    sub_expected_rule = None;
    sub_rules = Rewrite.all_rules;
    sub_estimate = Cost.estimate_with;
    sub_stats = Cost.synopsis_statistics;
    sub_footprint = Footprint.of_plan;
    sub_bind = Engine.bind }

(* -- mutant rules -- *)

let chain_leaf_first p = List.rev (Plan.context_chain p)

let rebuild_leaf_first ops =
  match Plan.rebuild_chain (List.rev ops) with Some p -> p | None -> invalid_arg "empty chain"

let rec pred_positional = function
  | Plan.Position _ | Plan.Generic _ -> true
  | Plan.And (a, b) | Plan.Or (a, b) -> pred_positional a || pred_positional b
  | Plan.Not p -> pred_positional p
  | Plan.Exists _ | Plan.Binary _ -> false

(* descendant_merge with its positional-safety guard removed: merging
   [descendant-or-self::node()/child::t[2]] into [descendant::t[2]]
   re-streams the positional candidates on a different axis, changing
   which node is "the 2nd".  Restricted to the positional case the real
   rule refuses, so every firing is unsound. *)
let mutant_positional_merge : Rewrite.rule =
  let apply root ~target =
    let ops = chain_leaf_first root in
    let rec go i = function
      | (below : Plan.op) :: (x : Plan.op) :: _ when x.Plan.id = target -> Some (i, below, x)
      | _ :: rest -> go (i + 1) rest
      | [] -> None
    in
    match go 0 ops with
    | Some (i, below, x) -> (
        match (below.Plan.kind, x.Plan.kind) with
        | Plan.Step (Ast.Descendant_or_self, Ast.Node_test), Plan.Step (Ast.Child, t)
          when below.Plan.predicates = []
               && List.exists pred_positional x.Plan.predicates ->
            let merged = Plan.mk ~predicates:x.Plan.predicates (Plan.Step (Ast.Descendant, t)) in
            let spliced =
              List.concat
                (List.mapi
                   (fun j o -> if j = i then [] else if j = i + 1 then [ merged ] else [ o ])
                   ops)
            in
            Some (rebuild_leaf_first spliced)
        | _ -> None)
    | None -> None
  in
  { Rewrite.name = "mutant-positional-merge";
    description = "descendant merge without the positional-safety guard (unsound)";
    apply }

(* Silently drops a step's predicates — the classic lost-filter rewrite
   bug. *)
let mutant_drop_predicate : Rewrite.rule =
  let apply root ~target =
    let ops = chain_leaf_first root in
    if
      List.exists
        (fun (o : Plan.op) ->
          o.Plan.id = target
          && o.Plan.predicates <> []
          && match o.Plan.kind with Plan.Step _ -> true | _ -> false)
        ops
    then
      Some
        (rebuild_leaf_first
           (List.map
              (fun (o : Plan.op) ->
                if o.Plan.id = target then Plan.mk ~predicates:[] o.Plan.kind else o)
              ops))
    else None
  in
  { Rewrite.name = "mutant-drop-predicate";
    description = "rewrite that silently discards a step's predicates (unsound)";
    apply }

(* -- mutant bounds: post-process the real walk's bounds -- *)

let mutate_bounds f stats ~scope plan =
  let costed = Cost.estimate_with stats ~scope plan in
  Plan.iter_ops
    (fun op ->
      let s = Hashtbl.find costed op.Plan.id in
      Hashtbl.replace costed op.Plan.id { s with Cost.bound = f op s.Cost.bound })
    plan;
  costed

let card_off_by_one = mutate_bounds (fun _ n -> if n >= 2 then n - 1 else n)

(* Claims every text() step statically empty — modelling an analyzer
   that forgot text records exist. *)
let empty_text_step =
  mutate_bounds (fun (op : Plan.op) n ->
      match op.Plan.kind with Plan.Step (_, Ast.Text_test) -> 0 | _ -> n)

(* -- mutant statistics: a synopsis that claims exact counts one off -- *)

let chain_off_by_one store =
  let base = Cost.synopsis_statistics store in
  { base with
    Cost.chain_out =
      Option.map
        (fun f ~scope spec ->
          match f ~scope spec with Some (n, true) -> Some (n + 1, true) | r -> r)
        base.Cost.chain_out }

(* -- mutant bind: carries the representative binding's literal-dependent
   verdicts (tables, footprint) over to every binding, as if all
   literals fell in the representative's class -- *)

let bind_ignoring_class store (p : Engine.prepared) ~source values =
  let b = Engine.bind store p ~source values in
  { b with Engine.tables = p.Engine.tables; prep_footprint = p.Engine.prep_footprint }

let mutant ?rule ?(footprint = Footprint.of_plan) ?(bind = Engine.bind) ~check ~desc name ~rules
    ~estimate ~stats =
  { sub_name = name;
    sub_desc = desc;
    sub_expected_check = Some check;
    sub_expected_rule = rule;
    sub_rules = rules;
    sub_estimate = estimate;
    sub_stats = stats;
    sub_footprint = footprint;
    sub_bind = bind }

let mutants =
  let real = real_subject in
  [ mutant "positional-merge" ~rule:"mutant-positional-merge" ~check:"rule-signature"
      ~desc:"axis merge that keeps positional predicates across the axis change"
      ~rules:(Rewrite.all_rules @ [ mutant_positional_merge ])
      ~estimate:real.sub_estimate ~stats:real.sub_stats;
    mutant "drop-predicate" ~rule:"mutant-drop-predicate" ~check:"rule-node-set"
      ~desc:"rewrite that silently discards a step's predicates"
      ~rules:(Rewrite.all_rules @ [ mutant_drop_predicate ])
      ~estimate:real.sub_estimate ~stats:real.sub_stats;
    mutant "card-off-by-one" ~check:"analysis-card"
      ~desc:"analyzer whose cardinality bounds are one too small"
      ~rules:real.sub_rules ~estimate:card_off_by_one ~stats:real.sub_stats;
    mutant "empty-text-step" ~check:"analysis-empty"
      ~desc:"analyzer that proves every text() step empty"
      ~rules:real.sub_rules ~estimate:empty_text_step ~stats:real.sub_stats;
    mutant "chain-off-by-one" ~check:"cost-chain-exact"
      ~desc:"synopsis whose exact chain counts are inflated by one"
      ~rules:real.sub_rules ~estimate:real.sub_estimate ~stats:chain_off_by_one;
    (* the lying footprint: claims every plan reads nothing, so every
       update is "provably" non-interfering — the exact unsoundness the
       interference family exists to catch *)
    mutant "lying-footprint" ~check:"footprint-interference"
      ~desc:"footprint analysis that claims every plan reads nothing"
      ~rules:real.sub_rules ~estimate:real.sub_estimate ~stats:real.sub_stats
      ~footprint:(fun _ -> Footprint.empty);
    mutant "bind-ignores-class" ~check:"binding-footprint"
      ~desc:"bind that reuses the representative literal's tables and footprint for every literal"
      ~rules:real.sub_rules ~estimate:real.sub_estimate ~stats:real.sub_stats
      ~bind:bind_ignoring_class ]

let find_mutant name = List.find_opt (fun s -> s.sub_name = name) mutants

(* ---- the checks ---- *)

type check_error = {
  e_family : family;
  e_check : string;
  e_rule : string option;
  e_detail : string;
}

exception Fail of check_error

let fail ?rule family check detail =
  raise (Fail { e_family = family; e_check = check; e_rule = rule; e_detail = detail })

let keys_to_string l =
  let n = List.length l in
  let shown = List.filteri (fun i _ -> i < 8) l in
  Printf.sprintf "[%s%s] (%d)"
    (String.concat " " (List.map Flex.to_string shown))
    (if n > 8 then " …" else "")
    n

type compiled_query = {
  q_src : string;
  q_ast : Ast.path;
  q_plan : Plan.op;
  q_clean : Plan.op option;  (* cleanup-normalized form, when different *)
  q_sites : (Rewrite.rule * Plan.op * Plan.op) list;  (* every rule firing on either form *)
}

let compile_case subject ast =
  let plan = Compile.compile_path ast in
  let clean =
    let c = Rewrite.apply_cleanup plan in
    if Plan.equal_structure plan c then None else Some c
  in
  let bases = plan :: Option.to_list clean in
  let sites =
    List.concat_map
      (fun base ->
        List.concat_map
          (fun rule ->
            List.map (fun (_, rw) -> (rule, base, rw)) (Rewrite.applications rule base))
          subject.sub_rules)
      bases
  in
  { q_src = Ast.path_to_string ast; q_ast = ast; q_plan = plan; q_clean = clean; q_sites = sites }

let step_spec (op : Plan.op) =
  match op.Plan.kind with
  | Plan.Step (axis, test) -> Some (axis, test, op.Plan.predicates <> [])
  | _ -> None

(* The full main chain as a leaf-first chain_out spec, when every chain
   operator is a plain step. *)
let chain_spec plan =
  let steps =
    List.filter (fun (o : Plan.op) -> o.Plan.kind <> Plan.Root) (chain_leaf_first plan)
  in
  let specs = List.map step_spec steps in
  if List.for_all Option.is_some specs then Some (List.map Option.get specs) else None

(* Bounds and signatures read only COUNT and TC, which every source gives
   alike: walk them under the live source, which skips the synopsis. *)
let check_analysis subject store ~scope raw plan =
  let costed = subject.sub_estimate (Cost.live_statistics store) ~scope plan in
  List.iter
    (fun (op : Plan.op) ->
      match (Hashtbl.find costed op.Plan.id).Cost.bound with
      | 0 ->
          let r = raw op in
          if r <> [] then
            fail Analysis_soundness "analysis-empty"
              (Printf.sprintf "%s claims statically empty, raw stream is %s"
                 (Plan.kind_to_string op) (keys_to_string r))
      | n ->
          let set = List.sort_uniq Flex.compare (raw op) in
          if List.length set > n then
            fail Analysis_soundness "analysis-card"
              (Printf.sprintf "%s claims card≤%d, result set has %d nodes"
                 (Plan.kind_to_string op) n (List.length set)))
    (Plan.context_chain plan)

let check_typecheck store ~scope ~context raw cq =
  let schema = Mass.Synopsis.schema (Mass.Synopsis.for_store store) ~scope in
  let report = Typecheck.check ~schema (Ast.Path cq.q_ast) in
  let step_ops =
    List.filter (fun (o : Plan.op) -> o.Plan.kind <> Plan.Root) (chain_leaf_first cq.q_plan)
  in
  (if List.length report.Typecheck.rep_steps <> List.length step_ops then
     fail Analysis_soundness "typecheck-shape"
       (Printf.sprintf "typecheck produced %d step notes for a %d-step chain"
          (List.length report.Typecheck.rep_steps)
          (List.length step_ops)));
  List.iter2
    (fun (note : Typecheck.step_note) op ->
      let n = List.length (raw op) in
      if note.Typecheck.sn_empty && n > 0 then
        fail Analysis_soundness "typecheck-empty"
          (Printf.sprintf "step %s::%s claimed schema-empty, executor streams %d tuples"
             (Ast.axis_name note.Typecheck.sn_axis)
             (Ast.node_test_to_string note.Typecheck.sn_test)
             n);
      if note.Typecheck.sn_exact && n <> note.Typecheck.sn_bound then
        fail Analysis_soundness "typecheck-exact"
          (Printf.sprintf "step %s::%s claimed exactly %d tuples, executor streams %d"
             (Ast.axis_name note.Typecheck.sn_axis)
             (Ast.node_test_to_string note.Typecheck.sn_test)
             note.Typecheck.sn_bound n))
    report.Typecheck.rep_steps step_ops;
  (* the generic evaluator is the ground truth for the whole query *)
  match Engine.eval store ~context cq.q_src with
  | Error e -> fail Analysis_soundness "eval-error" (Printf.sprintf "generic evaluator failed: %s" e)
  | Ok (Eval.Nodes keys) ->
      if report.Typecheck.rep_empty && keys <> [] then
        fail Analysis_soundness "typecheck-empty"
          (Printf.sprintf "query claimed schema-empty, evaluator returns %s" (keys_to_string keys));
      let engine_keys = Exec.run store ~context cq.q_plan in
      if not (List.equal Flex.equal keys engine_keys) then
        fail Analysis_soundness "eval-differ"
          (Printf.sprintf "generic evaluator %s vs physical pipeline %s" (keys_to_string keys)
             (keys_to_string engine_keys))
  | Ok _ -> ()

let check_cost subject store ~scope raw cq =
  let stats = subject.sub_stats store in
  let plans = cq.q_plan :: Option.to_list cq.q_clean in
  List.iter
    (fun plan ->
      let costed = subject.sub_estimate stats ~scope plan in
      List.iter
        (fun (op : Plan.op) ->
          match Hashtbl.find_opt costed op.Plan.id with
          | None -> ()
          | Some s ->
              if
                s.Cost.count < 0 || s.Cost.input < 0 || s.Cost.output < 0 || s.Cost.bound < 0
                || match s.Cost.tc with Some tc -> tc < 0 | None -> false
              then
                fail Cost_invariants "cost-negative"
                  (Printf.sprintf "%s costed COUNT=%d IN=%d OUT=%d card≤%d"
                     (Plan.kind_to_string op) s.Cost.count s.Cost.input s.Cost.output
                     s.Cost.bound);
              if Float.is_nan s.Cost.selectivity || s.Cost.selectivity < 0. then
                fail Cost_invariants "cost-nan"
                  (Printf.sprintf "%s selectivity is %f" (Plan.kind_to_string op)
                     s.Cost.selectivity))
        (Plan.subtree_ops plan))
    plans;
  match stats.Cost.chain_out with
  | None -> ()
  | Some chain_out ->
      (* a chain count claimed exact must equal the profiled actual *)
      List.iter
        (fun plan ->
          let steps =
            List.filter (fun (o : Plan.op) -> o.Plan.kind <> Plan.Root) (chain_leaf_first plan)
          in
          if List.for_all (fun o -> Option.is_some (step_spec o)) steps then
            ignore
              (List.fold_left
                 (fun spec_acc op ->
                   let spec = spec_acc @ [ Option.get (step_spec op) ] in
                   (match chain_out ~scope spec with
                   | Some (n, true) ->
                       let actual = List.length (raw op) in
                       if n <> actual then
                         fail Cost_invariants "cost-chain-exact"
                           (Printf.sprintf
                              "synopsis claims exactly %d raw tuples at %s, executor streams %d" n
                              (Plan.kind_to_string op) actual)
                   | Some _ | None -> ());
                   spec)
                 [] steps))
        plans;
      (* an admitted rewrite whose totals were both claimed exact must
         not raise the actual executed total *)
      let exact_total plan =
        match chain_spec plan with
        | None -> None
        | Some spec -> (
            match chain_out ~scope spec with Some (n, true) -> Some n | _ -> None)
      in
      List.iter
        (fun ((rule : Rewrite.rule), base, rw) ->
          let cb = subject.sub_estimate stats ~scope base in
          let ca = subject.sub_estimate stats ~scope rw in
          let admitted = Cost.total_output ca rw <= Cost.total_output cb base in
          match (admitted, exact_total base, exact_total rw) with
          | true, Some _, Some _ ->
              let act_b = List.length (raw base) and act_a = List.length (raw rw) in
              if act_a > act_b then
                fail ~rule:rule.Rewrite.name Cost_invariants "cost-admitted-raises"
                  (Printf.sprintf
                     "admitted rewrite raises the actual total: %d raw tuples before, %d after"
                     act_b act_a)
          | _ -> ())
        cq.q_sites

let check_rules subject store ~scope ~context cq =
  List.iter
    (fun ((rule : Rewrite.rule), base, rw) ->
      let ns_b = Exec.run store ~context base and ns_a = Exec.run store ~context rw in
      if not (List.equal Flex.equal ns_b ns_a) then
        fail ~rule:rule.Rewrite.name Rule_soundness "rule-node-set"
          (Printf.sprintf "%s changes the node set: %s before, %s after" rule.Rewrite.name
             (keys_to_string ns_b) (keys_to_string ns_a));
      let estimate = subject.sub_estimate (Cost.live_statistics store) ~scope in
      match
        Analysis.check_rewrite
          ~before:(Analysis.signature_of (estimate base) base)
          ~after:(Analysis.signature_of (estimate rw) rw)
          ~after_errors:(Analysis.structural_diagnostics rw)
      with
      | Ok () -> ()
      | Error reason ->
          fail ~rule:rule.Rewrite.name Rule_soundness "rule-signature"
            (Printf.sprintf "sound firing rejected by check_rewrite: %s" reason))
    cq.q_sites

(* Run every check family on one (document, plan) pair; first failure
   wins.  Family order is fixed so a given mutant is always attributed
   to the same check. *)
let check_one subject store ~doc_key cq =
  let scope = Some doc_key in
  let context = doc_key in
  let raw op = Exec.run_raw store ~context op in
  try
    List.iter (check_analysis subject store ~scope raw) (cq.q_plan :: Option.to_list cq.q_clean);
    check_typecheck store ~scope ~context raw cq;
    check_cost subject store ~scope raw cq;
    check_rules subject store ~scope ~context cq;
    None
  with Fail e -> Some e

(* ---- the interference family ----

   The footprint analysis promises: a plan whose read footprint is
   disjoint from an update's write delta returns the same result before
   and after the update.  Sweep the contrapositive over (document,
   plan, update) triples — apply each bounded update to a fresh copy of
   each bounded document, re-run each bounded plan, and whenever the
   result changed, require the write delta to intersect the plan's
   footprint.  A disjoint verdict here is exactly the case where the
   service's result cache would have served a stale answer. *)

type update = { u_desc : string; u_apply : Store.t -> Store.doc -> unit }

let all_elements =
  lazy
    (Compile.compile_path
       { Ast.absolute = true; steps = [ Ast.step Ast.Descendant_or_self Ast.Wildcard ] })

(* i-th element of the document in document order (the root element is
   #0) — resolved at apply time so the update lands on the fresh copy *)
let nth_element store (doc : Store.doc) i =
  List.nth_opt (Exec.run store ~context:doc.Store.doc_key (Lazy.force all_elements)) i

let rec spec_elements = function
  | Xml.Tree.E (_, _, kids) -> 1 + List.fold_left (fun a k -> a + spec_elements k) 0 kids
  | Xml.Tree.D _ | Xml.Tree.Cm _ | Xml.Tree.Proc _ -> 0

(* Update menu per element position: child inserts over the tag
   alphabet, a text-carrying insert, an attribute-carrying insert, and
   a subtree delete.  Positions come from the spec's static element
   count, so every enumerated update really applies (an update that
   silently no-ops would make the triple vacuous). *)
let enum_updates (b : bounds) spec =
  let insert ?text ?(attrs = []) ~desc tag i =
    { u_desc = Printf.sprintf "insert %s under element #%d" desc i;
      u_apply =
        (fun store doc ->
          match nth_element store doc i with
          | Some parent -> ignore (Store.insert_element store ~parent tag attrs text)
          | None -> ()) }
  in
  let delete i =
    { u_desc = Printf.sprintf "delete the subtree of element #%d" i;
      u_apply =
        (fun store doc ->
          match nth_element store doc i with
          | Some key -> ignore (Store.delete_subtree store key)
          | None -> ()) }
  in
  List.concat
    (List.init (spec_elements spec) (fun i ->
         List.init b.tags (fun t ->
             insert ~desc:(Printf.sprintf "<%s/>" (tag_name t)) (tag_name t) i)
         @ (if b.texts > 0 then
              [ insert
                  ~desc:
                    (Printf.sprintf "<%s>%s</%s>" (tag_name 0) (text_value 0) (tag_name 0))
                  ~text:(text_value 0) (tag_name 0) i;
                insert
                  ~desc:(Printf.sprintf "<%s id=\"%s\"/>" (tag_name 0) (text_value 0))
                  ~attrs:[ ("id", text_value 0) ] (tag_name 0) i ]
            else [])
         @ [ delete i ]))

(* Fresh copy of [spec], [update] applied, plus the write deltas the
   update recorded (captured by epoch so the load's own delta is
   excluded).  A fresh store's ring always covers [e0], so the
   [write_deltas] coverage fallback cannot fire here.  The synopsis is
   materialised first, so the update must carry it by its path-count
   delta: the result has to verify against a rescan, from the same root
   node (a rescan would have replaced it).
   @raise Fail on a synopsis-delta failure. *)
let apply_update spec update =
  let store = Store.create ~backend:Store.Mem () in
  let doc = Store.load store ~name:"i" (Xml.Tree.document [ spec ]) in
  let e0 = Store.epoch store in
  let root () =
    Mass.Synopsis.roots (Mass.Synopsis.for_store store) ~scope:(Some doc.Store.doc_key)
  in
  let root0 = root () in
  update.u_apply store doc;
  (match Mass.Synopsis.verify store (Mass.Synopsis.for_store store) with
  | Error e -> fail Interference "synopsis-delta" (Printf.sprintf "%s: %s" update.u_desc e)
  | Ok () ->
      if not (List.equal ( == ) (root ()) root0) then
        fail Interference "synopsis-delta"
          (Printf.sprintf "%s: the synopsis was rebuilt, not updated" update.u_desc));
  let deltas = Option.value ~default:[] (Store.write_deltas store ~since:e0) in
  (store, doc, deltas)

let interference_error subject update deltas ~before ~after plan =
  if List.equal Flex.equal before after then None
  else
    let fp = subject.sub_footprint plan in
    if List.exists (Footprint.intersects fp) deltas then None
    else
      Some
        { e_family = Interference;
          e_check = "footprint-interference";
          e_rule = None;
          e_detail =
            Printf.sprintf
              "%s changed the result %s -> %s but every write delta is disjoint from the \
               footprint %s"
              update.u_desc (keys_to_string before) (keys_to_string after)
              (Footprint.to_string fp) }

let case_plans cq = cq.q_plan :: Option.to_list cq.q_clean

let check_interference subject spec cq =
  let store0 = Store.create ~backend:Store.Mem () in
  let doc0 = Store.load store0 ~name:"i" (Xml.Tree.document [ spec ]) in
  let plans = case_plans cq in
  let before = List.map (Exec.run store0 ~context:doc0.Store.doc_key) plans in
  List.fold_left
    (fun acc u ->
      match acc with
      | Some _ -> acc
      | None -> (
          match apply_update spec u with
          | exception Fail e -> Some e
          | store1, doc1, deltas ->
              List.fold_left2
                (fun acc plan rb ->
                  match acc with
                  | Some _ -> acc
                  | None ->
                      let ra = Exec.run store1 ~context:doc1.Store.doc_key plan in
                      interference_error subject u deltas ~before:rb ~after:ra plan)
                None plans before))
    None
    (enum_updates interference_bounds spec)

(* ---- the binding family ----

   The service prepares one plan per (query shape, selectivity class)
   with the first literals it sees and binds later literals into it
   ({!Engine.bind}).  The promise: a bound plan answers exactly what a
   fresh preparation of the instantiated text answers, and its read
   footprint covers that preparation's.  Each shape is prepared once per
   literal of {!bind_domain} and every preparation is bound to every
   literal — across class boundaries too, which the service never does,
   so a verdict carried over from the representative literal (a TC = 0
   emptiness proof, a value atom) shows up as a wrong answer.  When the
   fresh preparation chose another plan, the footprint obligation is the
   bound plan's own: a footprint belongs to a plan's structure. *)

let literal_count (p : Ast.path) =
  let n = ref 0 in
  ignore (Ast.map_path_literals (fun v -> incr n; v) p);
  !n

(* every literal of the shape bound to [v]: one equality pattern, so
   any two instantiations bind into each other *)
let instantiate (p : Ast.path) v = Ast.path_to_string (Ast.map_path_literals (fun _ -> v) p)

(* the number of (representative, literal) bindings checked — [Ok 0]
   for a query without a literal *)
let check_binding subject store ~doc_key (ast : Ast.path) =
  let n = literal_count ast in
  if n = 0 then Ok 0
  else
    let scope = Some doc_key and context = doc_key in
    let slots v = Array.make n v in
    let run p = (Engine.execute_prepared store ~context p).Engine.keys in
    try
      let prepared =
        List.map
          (fun v ->
            match Engine.prepare ~slots:(slots v) store ~scope (instantiate ast v) with
            | Ok p -> (v, p)
            | Error e ->
                fail Binding "binding-prepare"
                  (Printf.sprintf "%s does not prepare: %s" (instantiate ast v) e))
          bind_domain
      in
      List.iter
        (fun (r, rep) ->
          List.iter
            (fun (v, fresh) ->
              let bound = subject.sub_bind store rep ~source:(instantiate ast v) (slots v) in
              let got = run bound and want = run fresh in
              if not (List.equal Flex.equal got want) then
                fail Binding "binding-node-set"
                  (Printf.sprintf "prepared with '%s', bound to '%s': %s, fresh preparation %s" r
                     v (keys_to_string got) (keys_to_string want));
              let same_plan =
                List.equal Plan.equal_structure bound.Engine.executed_plans
                  fresh.Engine.executed_plans
              in
              let need =
                if same_plan then fresh.Engine.prep_footprint
                else Footprint.of_plans bound.Engine.executed_plans
              in
              if not (Footprint.subsumes bound.Engine.prep_footprint need) then
                fail Binding "binding-footprint"
                  (Printf.sprintf "prepared with '%s', bound to '%s': footprint %s misses %s" r v
                     (Footprint.to_string bound.Engine.prep_footprint)
                     (Footprint.to_string need)))
            prepared)
        prepared;
      Ok (List.length prepared * List.length prepared)
    with Fail e -> Error e

(* ---- one-shot pair checking (replay, shrinking) ---- *)

let check_spec_pair subject spec ast =
  let store = Store.create ~backend:Store.Mem () in
  let doc = Store.load store ~name:"replay" (Xml.Tree.document [ spec ]) in
  let cq = compile_case subject ast in
  match check_one subject store ~doc_key:doc.Store.doc_key cq with
  | Some e -> Some e
  | None -> (
      match check_binding subject store ~doc_key:doc.Store.doc_key ast with
      | Error e -> Some e
      | Ok _ -> check_interference subject spec cq)

(* ---- shrinking ----

   Greedy descent: try every smaller candidate (document subtree
   dropped, element hoisted out, tag/text renamed toward the first
   letter, attribute dropped, plan step dropped, predicate dropped) and
   take the first one that still fails the same check; repeat until
   nothing smaller fails.  Every candidate strictly decreases
   (nodes + steps + preds + renameable atoms), so descent terminates. *)

let normalize_specs specs =
  (* merge adjacent text children (reparse would anyway) *)
  let rec merge = function
    | Xml.Tree.D a :: Xml.Tree.D b :: rest -> merge (Xml.Tree.D (a ^ b) :: rest)
    | x :: rest -> x :: merge rest
    | [] -> []
  in
  merge specs

let rec spec_complexity spec =
  match spec with
  | Xml.Tree.E (tag, attrs, kids) ->
      (if tag = tag_name 0 then 0 else 1)
      + List.length attrs
      + List.fold_left (fun a k -> a + spec_complexity k) 0 kids
  | Xml.Tree.D v -> if v = text_value 0 then 0 else 1
  | Xml.Tree.Cm _ | Xml.Tree.Proc _ -> 1

let path_preds (p : Ast.path) =
  List.fold_left (fun a (s : Ast.step) -> a + List.length s.Ast.predicates) 0 p.Ast.steps

let case_size spec (ast : Ast.path) =
  spec_nodes spec + List.length ast.Ast.steps + path_preds ast + spec_complexity spec

(* All single-edit document shrinks. *)
let doc_candidates spec =
  let rec shrink_spec = function
    | Xml.Tree.E (tag, attrs, kids) ->
        let dropped =
          List.mapi
            (fun i _ ->
              Xml.Tree.E
                (tag, attrs, normalize_specs (List.filteri (fun j _ -> j <> i) kids)))
            kids
        in
        let hoisted =
          List.concat
            (List.mapi
               (fun i k ->
                 match k with
                 | Xml.Tree.E (_, _, grandkids) ->
                     let kids' =
                       List.concat (List.mapi (fun j k' -> if j = i then grandkids else [ k' ]) kids)
                     in
                     [ Xml.Tree.E (tag, attrs, normalize_specs kids') ]
                 | _ -> [])
               kids)
        in
        let renamed =
          if tag <> tag_name 0 then [ Xml.Tree.E (tag_name 0, attrs, kids) ] else []
        in
        let attr_dropped = if attrs <> [] then [ Xml.Tree.E (tag, [], kids) ] else [] in
        let in_kids =
          List.concat
            (List.mapi
               (fun i k ->
                 List.map
                   (fun k' ->
                     Xml.Tree.E
                       ( tag,
                         attrs,
                         normalize_specs
                           (List.concat (List.mapi (fun j k0 -> [ (if j = i then k' else k0) ]) kids))
                       ))
                   (shrink_spec k))
               kids)
        in
        dropped @ hoisted @ renamed @ attr_dropped @ in_kids
    | Xml.Tree.D v -> if v <> text_value 0 then [ Xml.Tree.D (text_value 0) ] else []
    | Xml.Tree.Cm _ | Xml.Tree.Proc _ -> []
  in
  shrink_spec spec

(* All single-edit query shrinks. *)
let query_candidates (ast : Ast.path) =
  let steps = ast.Ast.steps in
  let n = List.length steps in
  let drop_step =
    if n <= 1 then []
    else
      List.init n (fun i ->
          { ast with Ast.steps = List.filteri (fun j _ -> j <> i) steps })
  in
  let drop_preds =
    List.concat
      (List.mapi
         (fun i (s : Ast.step) ->
           if s.Ast.predicates = [] then []
           else
             [ { ast with
                 Ast.steps =
                   List.mapi
                     (fun j s0 -> if j = i then Ast.step s.Ast.axis s.Ast.test else s0)
                     steps } ])
         steps)
  in
  let rename =
    List.concat
      (List.mapi
         (fun i (s : Ast.step) ->
           match s.Ast.test with
           | Ast.Name_test t when t <> tag_name 0 ->
               [ { ast with
                   Ast.steps =
                     List.mapi
                       (fun j s0 ->
                         if j = i then
                           Ast.step ~predicates:s.Ast.predicates s.Ast.axis
                             (Ast.Name_test (tag_name 0))
                         else s0)
                       steps } ]
           | _ -> [])
         steps)
  in
  drop_step @ drop_preds @ rename

let shrink subject spec ast (e : check_error) =
  let same_failure spec' ast' =
    match check_spec_pair subject spec' ast' with
    | Some e' -> e'.e_check = e.e_check && e'.e_rule = e.e_rule
    | None -> false
    | exception _ -> false
  in
  let rec descend spec ast detail n =
    let size = case_size spec ast in
    let candidates =
      List.map (fun s -> (s, ast)) (doc_candidates spec)
      @ List.map (fun a -> (spec, a)) (query_candidates ast)
    in
    let next =
      List.find_opt (fun (s, a) -> case_size s a < size && same_failure s a) candidates
    in
    match next with
    | Some (s, a) ->
        let detail =
          match check_spec_pair subject s a with Some e' -> e'.e_detail | None -> detail
        in
        descend s a detail (n + 1)
    | None -> (spec, ast, detail, n)
  in
  let spec, ast, detail, steps = descend spec ast e.e_detail 0 in
  { cx_family = e.e_family;
    cx_check = e.e_check;
    cx_rule = e.e_rule;
    cx_doc = Xml.Writer.to_string (Xml.Tree.document [ spec ]);
    cx_query = Ast.path_to_string ast;
    cx_detail = detail;
    cx_shrink_steps = steps;
    cx_doc_nodes = spec_nodes spec;
    cx_query_steps = List.length ast.Ast.steps }

(* ---- randomized layer ---- *)

let mk_rng seed =
  let st = ref seed in
  fun bound ->
    st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
    if bound <= 0 then 0 else !st mod bound

let pick rng l = List.nth l (rng (List.length l))

let gen_doc rng (b : bounds) =
  let remaining = ref (b.max_nodes - 1) in
  let rec gen_elem depth tag =
    let attrs =
      if b.texts > 0 && !remaining > 0 && rng 4 = 0 then (
        decr remaining;
        [ ("id", text_value (rng b.texts)) ])
      else []
    in
    let rec kids slots prev_text acc =
      if slots = 0 || !remaining <= 0 then List.rev acc
      else if depth > 1 && rng 3 > 0 then (
        decr remaining;
        let child = gen_elem (depth - 1) (tag_name (rng b.tags)) in
        kids (slots - 1) false (child :: acc))
      else if b.texts > 0 && (not prev_text) && rng 3 = 0 then (
        decr remaining;
        kids (slots - 1) true (Xml.Tree.D (text_value (rng b.texts)) :: acc))
      else if rng 2 = 0 then List.rev acc
      else kids (slots - 1) prev_text acc
    in
    Xml.Tree.E (tag, attrs, kids b.fanout false [])
  in
  gen_elem b.depth (tag_name (rng b.tags))

let gen_query rng (b : bounds) =
  let names = List.init b.tags (fun i -> Ast.Name_test (tag_name i)) in
  let tests = names @ [ Ast.Wildcard; Ast.Node_test; Ast.Text_test ] in
  let preds = pred_menu b in
  let n = 1 + rng b.steps in
  let steps =
    List.init n (fun _ ->
        let axis = pick rng Ast.all_axes in
        let test = pick rng tests in
        let predicates = if rng 2 = 0 then pick rng preds else [] in
        Ast.step ~predicates axis test)
  in
  { Ast.absolute = true; steps }

(* ---- the prover ---- *)

let prove ?(subject = real_subject) ?(random = 0) ?(random_bounds = ci_random_bounds)
    ?(seed = ci_seed) ?(max_counterexamples = 5) bounds =
  let t0 = Obs.clock () in
  let docs = enum_documents bounds in
  let queries = enum_queries bounds in
  let cqs = List.map (compile_case subject) queries in
  let store = Store.create ~backend:Store.Mem () in
  let loaded =
    List.mapi
      (fun i spec ->
        (spec, Store.load store ~name:(Printf.sprintf "d%d" i) (Xml.Tree.document [ spec ])))
      docs
  in
  let pairs = ref 0 and sites = ref 0 in
  let cxs = ref [] and n_cxs = ref 0 in
  let seen = Hashtbl.create 8 in
  let record spec ast e =
    let key = (e.e_check, e.e_rule) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      incr n_cxs;
      cxs := shrink subject spec ast e :: !cxs
    end
  in
  let consider spec (doc : Store.doc) cq =
    if !n_cxs < max_counterexamples then begin
      incr pairs;
      sites := !sites + List.length cq.q_sites;
      match check_one subject store ~doc_key:doc.Store.doc_key cq with
      | None -> ()
      | Some e -> record spec cq.q_ast e
    end
  in
  List.iter (fun (spec, doc) -> List.iter (consider spec doc) cqs) loaded;
  let n_random = ref 0 in
  if random > 0 then begin
    let rng = mk_rng seed in
    for i = 1 to random do
      if !n_cxs < max_counterexamples then begin
        let spec = gen_doc rng random_bounds in
        let ast = gen_query rng random_bounds in
        let doc =
          Store.load store ~name:(Printf.sprintf "r%d" i) (Xml.Tree.document [ spec ])
        in
        incr n_random;
        consider spec doc (compile_case subject ast)
      end
    done
  end;
  (* binding sweep, at its own committed bounds *)
  let n_bindings = ref 0 in
  if !n_cxs < max_counterexamples then begin
    let shapes = List.filter (fun q -> literal_count q > 0) (enum_queries binding_bounds) in
    List.iteri
      (fun i spec ->
        let doc = Store.load store ~name:(Printf.sprintf "b%d" i) (Xml.Tree.document [ spec ]) in
        List.iter
          (fun ast ->
            if !n_cxs < max_counterexamples then
              match check_binding subject store ~doc_key:doc.Store.doc_key ast with
              | Ok n -> n_bindings := !n_bindings + n
              | Error e -> record spec ast e)
          shapes)
      (enum_documents binding_bounds)
  end;
  (* interference sweep, always at its own committed bounds: the triple
     domain (documents × plan forms × updates) is independent of the
     pair sweep's [bounds] so the family's coverage does not silently
     shrink when a caller passes a cheaper pair configuration *)
  let n_updates = ref 0 and n_triples = ref 0 in
  if !n_cxs < max_counterexamples then begin
    let i_cqs = List.map (compile_case subject) (enum_queries interference_bounds) in
    List.iter
      (fun spec ->
        if !n_cxs < max_counterexamples then begin
          let store0 = Store.create ~backend:Store.Mem () in
          let doc0 = Store.load store0 ~name:"i0" (Xml.Tree.document [ spec ]) in
          let before =
            List.map
              (fun cq -> List.map (Exec.run store0 ~context:doc0.Store.doc_key) (case_plans cq))
              i_cqs
          in
          List.iter
            (fun u ->
              if !n_cxs < max_counterexamples then begin
                incr n_updates;
                match apply_update spec u with
                | exception Fail e -> record spec (List.hd i_cqs).q_ast e
                | store1, doc1, deltas ->
                    List.iter2
                      (fun cq rbs ->
                        List.iter2
                          (fun plan rb ->
                            if !n_cxs < max_counterexamples then begin
                              incr n_triples;
                              let ra = Exec.run store1 ~context:doc1.Store.doc_key plan in
                              match
                                interference_error subject u deltas ~before:rb ~after:ra plan
                              with
                              | None -> ()
                              | Some e -> record spec cq.q_ast e
                            end)
                          (case_plans cq) rbs)
                      i_cqs before
              end)
            (enum_updates interference_bounds spec)
        end)
      (enum_documents interference_bounds)
  end;
  { rp_subject = subject.sub_name;
    rp_bounds = bounds;
    rp_docs = List.length docs;
    rp_plans = List.length queries;
    rp_pairs = !pairs;
    rp_random = !n_random;
    rp_seed = (if random > 0 then Some seed else None);
    rp_sites = !sites;
    rp_updates = !n_updates;
    rp_triples = !n_triples;
    rp_bindings = !n_bindings;
    rp_counterexamples = List.rev !cxs;
    rp_wall = Obs.clock () -. t0 }

let shrink_pair ?(subject = real_subject) ~doc ~query () =
  let spec = Xml.Tree.element_spec (Xml.Parser.parse doc) in
  let ast = Parser.parse_path query in
  match check_spec_pair subject spec ast with
  | None -> None
  | Some e -> Some (shrink subject spec ast e)

let check_pair ?(subject = real_subject) ~doc ~query () =
  let spec = Xml.Tree.element_spec (Xml.Parser.parse doc) in
  let ast = Parser.parse_path query in
  match check_spec_pair subject spec ast with
  | None -> []
  | Some e ->
      [ { cx_family = e.e_family;
          cx_check = e.e_check;
          cx_rule = e.e_rule;
          cx_doc = doc;
          cx_query = query;
          cx_detail = e.e_detail;
          cx_shrink_steps = 0;
          cx_doc_nodes = spec_nodes spec;
          cx_query_steps = List.length ast.Ast.steps } ]

(* ---- S-expression rendering and replay ---- *)

let sexp_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let counterexample_to_sexp cx =
  let field k v = Printf.sprintf " (%s \"%s\")\n" k (sexp_escape v) in
  "(replay\n"
  ^ field "family" (family_to_string cx.cx_family)
  ^ field "check" cx.cx_check
  ^ (match cx.cx_rule with Some r -> field "rule" r | None -> "")
  ^ field "query" cx.cx_query ^ field "doc" cx.cx_doc ^ field "detail" cx.cx_detail
  ^ Printf.sprintf " (shrink-steps %d)\n" cx.cx_shrink_steps
  ^ ")\n"

type sx = Atom of string | L of sx list

let parse_sexp s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let parse_string () =
    incr pos;
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then failwith "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            if !pos + 1 >= n then failwith "dangling escape";
            (match s.[!pos + 1] with
            | 'n' -> Buffer.add_char buf '\n'
            | c -> Buffer.add_char buf c);
            pos := !pos + 2;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let rec parse_one () =
    skip_ws ();
    match peek () with
    | None -> failwith "unexpected end of input"
    | Some '(' ->
        incr pos;
        let rec items acc =
          skip_ws ();
          match peek () with
          | Some ')' ->
              incr pos;
              List.rev acc
          | None -> failwith "unterminated list"
          | _ -> items (parse_one () :: acc)
        in
        L (items [])
    | Some '"' -> Atom (parse_string ())
    | Some _ ->
        let start = !pos in
        let rec atom () =
          match peek () with
          | Some (' ' | '\t' | '\n' | '\r' | '(' | ')' | '"') | None -> ()
          | Some _ ->
              incr pos;
              atom ()
        in
        atom ();
        Atom (String.sub s start (!pos - start))
  in
  let v = parse_one () in
  skip_ws ();
  v

let replay_of_sexp s =
  match parse_sexp s with
  | exception Failure msg -> Error ("malformed replay file: " ^ msg)
  | Atom _ -> Error "malformed replay file: expected a (replay …) form"
  | L (Atom "replay" :: fields) -> (
      let find k =
        List.find_map
          (function L [ Atom k'; Atom v ] when k' = k -> Some v | _ -> None)
          fields
      in
      match (find "doc", find "query") with
      | Some doc, Some query -> Ok (doc, query, find "mutant")
      | _ -> Error "replay file must carry (doc \"…\") and (query \"…\")")
  | L _ -> Error "malformed replay file: expected a (replay …) form"

(* ---- rendering ---- *)

let bounds_to_json b =
  Json.Obj
    [ ("depth", Json.Int b.depth);
      ("fanout", Json.Int b.fanout);
      ("tags", Json.Int b.tags);
      ("texts", Json.Int b.texts);
      ("max_nodes", Json.Int b.max_nodes);
      ("steps", Json.Int b.steps) ]

let counterexample_to_json cx =
  Json.Obj
    [ ("family", Json.Str (family_to_string cx.cx_family));
      ("check", Json.Str cx.cx_check);
      ("rule", match cx.cx_rule with Some r -> Json.Str r | None -> Json.Null);
      ("doc", Json.Str cx.cx_doc);
      ("query", Json.Str cx.cx_query);
      ("detail", Json.Str cx.cx_detail);
      ("shrink_steps", Json.Int cx.cx_shrink_steps);
      ("doc_nodes", Json.Int cx.cx_doc_nodes);
      ("query_steps", Json.Int cx.cx_query_steps) ]

let report_to_json r =
  Json.Obj
    [ ("subject", Json.Str r.rp_subject);
      ("bounds", bounds_to_json r.rp_bounds);
      ("documents", Json.Int r.rp_docs);
      ("plans", Json.Int r.rp_plans);
      ("pairs", Json.Int r.rp_pairs);
      ("random_pairs", Json.Int r.rp_random);
      ("seed", match r.rp_seed with Some s -> Json.Int s | None -> Json.Null);
      ("rule_sites", Json.Int r.rp_sites);
      ("updates", Json.Int r.rp_updates);
      ("triples", Json.Int r.rp_triples);
      ("bindings", Json.Int r.rp_bindings);
      ("counterexamples", Json.Arr (List.map counterexample_to_json r.rp_counterexamples));
      ("wall_seconds", Json.Float r.rp_wall) ]

let report_to_string r =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "subject %s: %d documents × %d plans = %d pairs (%d randomized), %d rule sites, %d \
     updates / %d interference triples, %d literal bindings, %.2fs\n"
    r.rp_subject r.rp_docs r.rp_plans r.rp_pairs r.rp_random r.rp_sites r.rp_updates
    r.rp_triples r.rp_bindings r.rp_wall;
  (match r.rp_seed with Some s -> Printf.bprintf b "random seed: %d (replay with --seed %d)\n" s s | None -> ());
  (match r.rp_counterexamples with
  | [] -> Buffer.add_string b "no counterexamples: every invariant holds on the bounded domain\n"
  | cxs ->
      Printf.bprintf b "%d counterexample(s):\n" (List.length cxs);
      List.iter
        (fun cx ->
          Printf.bprintf b "  [%s/%s%s] doc %s  query %s\n    %s\n    (shrunk in %d steps to %d nodes / %d steps)\n"
            (family_to_string cx.cx_family) cx.cx_check
            (match cx.cx_rule with Some r -> " rule " ^ r | None -> "")
            cx.cx_doc cx.cx_query cx.cx_detail cx.cx_shrink_steps cx.cx_doc_nodes
            cx.cx_query_steps)
        cxs);
  Buffer.contents b

