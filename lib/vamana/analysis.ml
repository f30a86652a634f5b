(* Plan diagnostics and rewrite signatures over the plan walk's table.
   See analysis.mli for the contract; DESIGN.md §5⅞ for the soundness
   argument of each bound. *)

module Ast = Xpath.Ast
module Json = Profile.Json
module Typecheck = Xpath.Typecheck

type diagnostic = {
  severity : Xpath.Typecheck.severity;
  code : string;
  op_id : int;
  op_label : string;
  message : string;
}

let diagnostic severity code (op : Plan.op) message =
  { severity; code; op_id = op.Plan.id; op_label = Plan.kind_to_string op; message }

let entry (costed : Cost.costed) (op : Plan.op) = Hashtbl.find costed op.Plan.id
let statically_empty costed plan = (entry costed plan).Cost.bound = 0

(* ------------------------------------------------------------------ *)
(* Structural well-formedness (no statistics needed)                   *)

let structural_diagnostics (plan : Plan.op) =
  let acc = ref [] in
  let add op message = acc := diagnostic Typecheck.Error "malformed" op message :: !acc in
  let top_id = plan.Plan.id in
  Plan.iter_ops
    (fun op ->
      (match op.Plan.kind with
      | Plan.Root ->
          if op.Plan.id <> top_id then add op "nested R operator inside a plan";
          if op.Plan.predicates <> [] then
            add op "R operator carries predicates the executor ignores"
      | Plan.Value_step (_, Some ((Ast.Comment_test | Ast.Pi_test _ | Ast.Node_test) as t)) ->
          add op
            (Printf.sprintf "value step sourced from %s, which never carries an indexed value"
               (Ast.node_test_to_string t))
      | _ -> ());
      let rec scan (p : Plan.pred) =
        match p with
        | Plan.Binary (bid, cond, _, _) ->
            if not (Plan.is_comparison cond) then
              add op
                (Printf.sprintf "β%d uses non-comparison operator '%s'" bid (Plan.binop_symbol cond))
        | Plan.And (a, b) | Plan.Or (a, b) -> scan a; scan b
        | Plan.Not a -> scan a
        | Plan.Position (cond, _) ->
            if not (Plan.is_comparison cond) then
              add op
                (Printf.sprintf "position predicate uses non-comparison operator '%s'"
                   (Plan.binop_symbol cond))
        | Plan.Exists _ | Plan.Generic _ -> ()
      in
      List.iter scan op.Plan.predicates)
    plan;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Count-based lint, read off the walk's table                         *)

let rec pred_label (p : Plan.pred) =
  match p with
  | Plan.Exists op -> Printf.sprintf "ξ %s" (Plan.kind_to_string (Plan.leaf op))
  | Plan.Binary (_, cond, a, b) ->
      Printf.sprintf "%s %s %s" (operand_label a) (Plan.binop_symbol cond) (operand_label b)
  | Plan.And (a, b) -> Printf.sprintf "(%s and %s)" (pred_label a) (pred_label b)
  | Plan.Or (a, b) -> Printf.sprintf "(%s or %s)" (pred_label a) (pred_label b)
  | Plan.Not a -> Printf.sprintf "not(%s)" (pred_label a)
  | Plan.Position (cond, n) ->
      Printf.sprintf "position() %s %g" (Plan.binop_symbol cond) n
  | Plan.Generic e -> Ast.expr_to_string e

and operand_label (o : Plan.operand) =
  match o with
  | Plan.Path_operand op -> Plan.kind_to_string op
  | Plan.Literal (_, s) -> Printf.sprintf "'%s'" s
  | Plan.Number_operand n -> Printf.sprintf "%g" n

(* In walk order: an operator's context first, then the operator, then
   each predicate's sub-plans followed by the predicate's verdict. *)
let lint_diagnostics costed plan =
  let acc = ref [] in
  let add severity code op message = acc := diagnostic severity code op message :: !acc in
  let rec visit (op : Plan.op) =
    Option.iter visit op.Plan.context;
    let input_empty =
      match op.Plan.context with Some c -> (entry costed c).Cost.bound = 0 | None -> false
    in
    let e = entry costed op in
    (match op.Plan.kind with
    | Plan.Root -> ()
    | Plan.Step (axis, test) | Plan.Step_generic { Ast.axis; test; _ } ->
        if axis = Ast.Namespace then
          add Typecheck.Info "empty-step" op
            "namespace axis yields no nodes (the data model carries none)"
        else if e.Cost.count = 0 && not input_empty then
          add Typecheck.Warning "empty-step" op
            (Printf.sprintf "no %s::%s nodes in scope (COUNT = 0): step is provably empty"
               (Ast.axis_name axis) (Ast.node_test_to_string test));
        (* parent:: is excluded: the optimizer introduces it on purpose
           (value index, pushdowns) and it costs one prefix truncation
           per tuple *)
        if Ast.is_reverse_axis axis && axis <> Ast.Parent then
          add Typecheck.Info "reverse-axis" op
            (Printf.sprintf
               "reverse axis %s:: survives optimization (streams in reverse document order)"
               (Ast.axis_name axis));
        if
          Ast.is_reverse_axis axis
          && List.exists
               (fun (p : Plan.pred) -> match p with Plan.Position _ -> true | _ -> false)
               op.Plan.predicates
        then
          add Typecheck.Warning "position-on-reverse-axis" op
            "position() over a reverse axis counts in proximity order (nearest first), which \
             often surprises"
    | Plan.Value_step (v, source) ->
        let dead_source =
          match source with
          | Some (Ast.Comment_test | Ast.Pi_test _ | Ast.Node_test) -> true
          | _ -> false
        in
        if e.Cost.count = 0 && (not input_empty) && not dead_source then
          add Typecheck.Warning "empty-step" op
            (Printf.sprintf "no indexed value equals '%s' (TC = 0): step is provably empty" v));
    if op.Plan.kind <> Plan.Root then
      List.iter2
        (fun pred (sat : Cost.sat) ->
          visit_pred pred;
          match sat with
          | Cost.Unsat ->
              add Typecheck.Warning "dead-predicate" op
                (Printf.sprintf "predicate can never hold: %s" (pred_label pred))
          | Cost.Valid ->
              add Typecheck.Info "redundant-predicate" op
                (Printf.sprintf "predicate is always true: %s" (pred_label pred))
          | Cost.Unknown -> ())
        op.Plan.predicates e.Cost.verdicts
  and visit_pred (p : Plan.pred) =
    match p with
    | Plan.Exists sub -> visit sub
    | Plan.Binary (_, _, a, b) -> visit_operand a; visit_operand b
    | Plan.And (a, b) | Plan.Or (a, b) -> visit_pred a; visit_pred b
    | Plan.Not a -> visit_pred a
    | Plan.Position _ | Plan.Generic _ -> ()
  and visit_operand (o : Plan.operand) =
    match o with Plan.Path_operand sub -> visit sub | Plan.Literal _ | Plan.Number_operand _ -> ()
  in
  visit plan;
  List.rev !acc

let diagnostics costed plan = structural_diagnostics plan @ lint_diagnostics costed plan

(* ------------------------------------------------------------------ *)
(* Rewrite signatures                                                  *)

type signature = {
  sig_empty : bool;
  sig_desc : Plan.node_desc;
  sig_positional : string list;
}

let desc_subset ~(sub : Plan.node_desc) ~(super : Plan.node_desc) =
  sub.Plan.kinds = []
  || (List.for_all (fun k -> List.mem k super.Plan.kinds) sub.Plan.kinds
      && (match super.Plan.name with
          | None -> true
          | Some n -> ( match sub.Plan.name with Some m -> String.equal m n | None -> false)))

(* Fingerprint every position-sensitive predicate together with the step
   that streams its candidates: "<axis>::<test> [position() = 2]".  A
   rule that re-streams the candidates of a positional predicate on a
   different axis (changing which node is "second") moves a fingerprint
   and is caught by list comparison. *)
let positional_fingerprints plan =
  let acc = ref [] in
  Plan.iter_ops
    (fun op ->
      let carrier =
        match op.Plan.kind with
        | Plan.Step (axis, test) ->
            Printf.sprintf "%s::%s" (Ast.axis_name axis) (Ast.node_test_to_string test)
        | Plan.Value_step (v, _) -> Printf.sprintf "value::'%s'" v
        | Plan.Root -> "R"
        | Plan.Step_generic _ -> "generic"
      in
      (match op.Plan.kind with
      | Plan.Step_generic s ->
          (* generic steps evaluate their own AST predicates; fingerprint
             the whole step so it cannot be silently altered *)
          acc :=
            Printf.sprintf "generic %s::%s%s" (Ast.axis_name s.Ast.axis)
              (Ast.node_test_to_string s.Ast.test)
              (String.concat ""
                 (List.map (fun e -> "[" ^ Ast.expr_to_string e ^ "]") s.Ast.predicates))
            :: !acc
      | _ -> ());
      let rec scan (p : Plan.pred) =
        match p with
        | Plan.Position (cond, n) ->
            acc :=
              Printf.sprintf "%s [position() %s %g]" carrier (Plan.binop_symbol cond) n :: !acc
        | Plan.Generic e ->
            acc := Printf.sprintf "%s [%s]" carrier (Ast.expr_to_string e) :: !acc
        | Plan.And (a, b) | Plan.Or (a, b) -> scan a; scan b
        | Plan.Not a -> scan a
        | Plan.Exists _ | Plan.Binary _ -> ()
      in
      List.iter scan op.Plan.predicates)
    plan;
  List.sort String.compare !acc

let signature_of costed plan =
  { sig_empty = statically_empty costed plan;
    sig_desc = Plan.desc_of plan;
    sig_positional = positional_fingerprints plan }

let check_rewrite ~before ~after ~after_errors =
  match List.find_opt (fun d -> d.severity = Typecheck.Error) after_errors with
  | Some d -> Result.Error (Printf.sprintf "rewritten plan is ill-formed: %s" d.message)
  | None ->
      if before.sig_empty <> after.sig_empty then
        Result.Error
          (Printf.sprintf "static emptiness changed (%b before, %b after)" before.sig_empty
             after.sig_empty)
      else if not (desc_subset ~sub:after.sig_desc ~super:before.sig_desc) then
        Result.Error "rewritten plan may emit nodes outside the original result description"
      else if not (List.equal String.equal before.sig_positional after.sig_positional) then
        Result.Error "a position-sensitive predicate was moved or its candidate stream changed"
      else Ok ()

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let diagnostic_to_string d =
  Printf.sprintf "%s [%s] %s: %s" (Typecheck.severity_to_string d.severity) d.code d.op_label
    d.message

let pp_tree annot_stats costed ppf plan =
  let annot (op : Plan.op) =
    match Hashtbl.find_opt costed op.Plan.id with
    | None -> ""
    | Some s -> annot_stats s
  in
  let line indent text = Format.fprintf ppf "%s%s@." (String.make indent ' ') text in
  let rec pp_op indent (op : Plan.op) =
    line indent (Plan.kind_to_string op ^ annot op);
    List.iter (pp_pred (indent + 2)) op.Plan.predicates;
    match op.Plan.context with Some c -> pp_op (indent + 2) c | None -> ()
  and pp_pred indent (p : Plan.pred) =
    match p with
    | Plan.Exists op ->
        line indent "ξ";
        pp_op (indent + 2) op
    | Plan.Binary (bid, cond, a, b) ->
        line indent (Printf.sprintf "β%d %s" bid (Plan.binop_symbol cond));
        pp_operand (indent + 2) a;
        pp_operand (indent + 2) b
    | Plan.And (a, b) ->
        line indent "and";
        pp_pred (indent + 2) a;
        pp_pred (indent + 2) b
    | Plan.Or (a, b) ->
        line indent "or";
        pp_pred (indent + 2) a;
        pp_pred (indent + 2) b
    | Plan.Not a ->
        line indent "not";
        pp_pred (indent + 2) a
    | Plan.Position (cond, n) ->
        line indent (Printf.sprintf "position() %s %g" (Plan.binop_symbol cond) n)
    | Plan.Generic e -> line indent (Printf.sprintf "generic [%s]" (Ast.expr_to_string e))
  and pp_operand indent (o : Plan.operand) =
    match o with
    | Plan.Path_operand op -> pp_op indent op
    | Plan.Literal (lid, s) -> line indent (Printf.sprintf "L%d '%s'" lid s)
    | Plan.Number_operand n -> line indent (Printf.sprintf "%g" n)
  in
  pp_op 0 plan

let pp_annotated =
  pp_tree (fun (s : Cost.stats) ->
      let tc = match s.Cost.tc with Some n -> Printf.sprintf " TC=%d" n | None -> "" in
      Printf.sprintf "  {card≤%d}  {COUNT=%d%s IN=%d OUT=%d}" s.Cost.bound s.Cost.count tc
        s.Cost.input s.Cost.output)

let pp_bounds = pp_tree (fun (s : Cost.stats) -> Printf.sprintf "  {card≤%d}" s.Cost.bound)

let diagnostic_json d =
  Json.Obj
    [ ("severity", Json.Str (Typecheck.severity_to_string d.severity));
      ("code", Json.Str d.code);
      ("op", Json.Str d.op_label);
      ("message", Json.Str d.message) ]

let to_json costed plan diagnostics =
  let operators =
    List.filter_map
      (fun (op : Plan.op) ->
        Option.map
          (fun (s : Cost.stats) ->
            Json.Obj
              [ ("id", Json.Int op.Plan.id);
                ("op", Json.Str (Plan.kind_to_string op));
                ("card_max", Json.Int s.Cost.bound) ])
          (Hashtbl.find_opt costed op.Plan.id))
      (Plan.subtree_ops plan)
  in
  Json.Obj
    [ ("statically_empty", Json.Bool (statically_empty costed plan));
      ("root", Json.Obj [ ("card_max", Json.Int (entry costed plan).Cost.bound) ]);
      ("operators", Json.Arr operators);
      ("diagnostics", Json.Arr (List.map diagnostic_json diagnostics)) ]
