(* Static plan analysis: cardinality bounds, diagnostics, rewrite
   signatures.  See analysis.mli for the contract; DESIGN.md §5⅞ for the
   soundness argument of each transfer function. *)

module Ast = Xpath.Ast
module Store = Mass.Store
module Record = Mass.Record
module Json = Profile.Json

type props = int option

type severity = Info | Warning | Error

type diagnostic = {
  severity : severity;
  code : string;
  op_id : int;
  op_label : string;
  message : string;
}

type t = {
  props : (int, props) Hashtbl.t;
  diagnostics : diagnostic list;
  root_props : props;
}

exception Ill_formed of string

let is_empty p = p = Some 0

type env = {
  stats : Cost.statistics_source;
  scope : Flex.t option;
  tbl : (int, props) Hashtbl.t;
  mutable diags : diagnostic list;  (* reverse order *)
}

let diag env severity code (op : Plan.op) message =
  env.diags <-
    { severity; code; op_id = op.Plan.id; op_label = Plan.kind_to_string op; message }
    :: env.diags

(* COUNT for a step, matching the cost model's principal-kind choice. *)
let count_for env axis test =
  let principal = if axis = Ast.Attribute then Record.Attribute else Record.Element in
  env.stats.Cost.node_count ~scope:env.scope ~principal test

(* ------------------------------------------------------------------ *)
(* Constant folding for β operands                                     *)

let num_cmp (cmp : Ast.binop) a b =
  match cmp with
  | Ast.Eq -> a = b
  | Ast.Neq -> a <> b
  | Ast.Lt -> a < b
  | Ast.Le -> a <= b
  | Ast.Gt -> a > b
  | Ast.Ge -> a >= b
  | _ -> false

let is_comparison (cmp : Ast.binop) =
  match cmp with
  | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> true
  | _ -> false

let operand_const (o : Plan.operand) =
  match o with
  | Plan.Literal (_, s) -> Some (`Str s)
  | Plan.Number_operand n -> Some (`Num n)
  | Plan.Path_operand _ -> None

let to_num = function
  | `Num n -> n
  | `Str s -> ( match float_of_string_opt (String.trim s) with Some n -> n | None -> Float.nan)

(* XPath 1.0 comparison of two constants. *)
let const_cmp cmp a b =
  match (cmp, a, b) with
  | (Ast.Eq, `Str x, `Str y) -> String.equal x y
  | (Ast.Neq, `Str x, `Str y) -> not (String.equal x y)
  | _ -> num_cmp cmp (to_num a) (to_num b)

(* ------------------------------------------------------------------ *)
(* Node descriptions                                                   *)

(* Fixed kind order so descriptions compare structurally. *)
let kind_rank = function
  | Record.Document -> 0
  | Record.Element -> 1
  | Record.Attribute -> 2
  | Record.Text -> 3
  | Record.Comment -> 4
  | Record.Pi -> 5

let norm_kinds ks = List.sort_uniq (fun a b -> compare (kind_rank a) (kind_rank b)) ks

type node_desc = { kinds : Record.kind list; name : string option }

let desc_of_test axis (test : Ast.node_test) =
  if axis = Ast.Attribute then
    match test with
    | Ast.Name_test n -> { kinds = [ Record.Attribute ]; name = Some n }
    | Ast.Wildcard | Ast.Node_test -> { kinds = [ Record.Attribute ]; name = None }
    | Ast.Text_test | Ast.Comment_test | Ast.Pi_test _ -> { kinds = []; name = None }
  else
    match test with
    | Ast.Name_test n -> { kinds = [ Record.Element ]; name = Some n }
    | Ast.Wildcard -> { kinds = [ Record.Element ]; name = None }
    | Ast.Text_test -> { kinds = [ Record.Text ]; name = None }
    | Ast.Comment_test -> { kinds = [ Record.Comment ]; name = None }
    | Ast.Pi_test _ -> { kinds = [ Record.Pi ]; name = None }
    | Ast.Node_test ->
        let ks =
          match axis with
          | Ast.Ancestor | Ast.Ancestor_or_self | Ast.Parent ->
              (* upward axes can reach the document node *)
              [ Record.Document; Record.Element; Record.Text; Record.Comment; Record.Pi ]
          | _ -> [ Record.Element; Record.Text; Record.Comment; Record.Pi ]
        in
        { kinds = norm_kinds ks; name = None }

(* A predicate that can only hold on a node with children (the sub-path
   starts with child:: or descendant::) or with attributes: every
   comparison β is existential, so an empty sub-path falsifies it.  Not
   is excluded (it inverts the requirement); Or requires both arms. *)
let rec pred_narrows (p : Plan.pred) =
  let of_sub (sub : Plan.op) =
    match (Plan.leaf sub).Plan.kind with
    | Plan.Step ((Ast.Child | Ast.Descendant), _) -> Some `Children
    | Plan.Step (Ast.Attribute, _) -> Some `Attrs
    | _ -> None
  in
  match p with
  | Plan.Exists sub
  | Plan.Binary (_, _, Plan.Path_operand sub, _)
  | Plan.Binary (_, _, _, Plan.Path_operand sub) ->
      of_sub sub
  | Plan.And (a, b) -> ( match pred_narrows a with Some _ as r -> r | None -> pred_narrows b)
  | Plan.Or (a, b) -> (
      match (pred_narrows a, pred_narrows b) with
      | Some `Attrs, Some _ | Some _, Some `Attrs -> Some `Attrs
      | Some `Children, Some `Children -> Some `Children
      | _ -> None)
  | Plan.Not _ | Plan.Binary _ | Plan.Position _ | Plan.Generic _ -> None

(* Only documents and elements have children; only elements have
   attributes. *)
let refine_desc_by_preds (op : Plan.op) desc =
  List.fold_left
    (fun d p ->
      match pred_narrows p with
      | Some `Children ->
          { d with
            kinds = List.filter (fun k -> k = Record.Document || k = Record.Element) d.kinds }
      | Some `Attrs -> { d with kinds = List.filter (fun k -> k = Record.Element) d.kinds }
      | None -> d)
    desc op.Plan.predicates

(* Description of the nodes an operator can emit (the operator is the
   chain top of its sub-plan). *)
let rec desc_of (op : Plan.op) = refine_desc_by_preds op (desc_of_kind op)

and desc_of_kind (op : Plan.op) =
  match op.Plan.kind with
  | Plan.Root -> (
      match op.Plan.context with
      | Some c -> desc_of c
      | None -> { kinds = []; name = None })
  | Plan.Step (axis, test) -> (
      match axis with
      | Ast.Self -> (
          (* self narrows the input description by the test *)
          let input =
            match op.Plan.context with
            | Some c -> desc_of c
            | None ->
                { kinds = norm_kinds [ Record.Document; Record.Element; Record.Attribute;
                                       Record.Text; Record.Comment; Record.Pi ];
                  name = None }
          in
          let test_desc = desc_of_test axis test in
          match test with
          | Ast.Node_test -> input
          | _ ->
              { kinds = List.filter (fun k -> List.mem k input.kinds)
                  (match test_desc.kinds with [] -> input.kinds | ks -> ks);
                name = (match test_desc.name with Some _ as n -> n | None -> input.name) })
      | _ -> desc_of_test axis test)
  | Plan.Step_generic s -> desc_of_test s.Ast.axis s.Ast.test
  | Plan.Value_step (_, source) -> (
      match source with
      | Some (Ast.Name_test n) -> { kinds = [ Record.Attribute ]; name = Some n }
      | Some Ast.Text_test -> { kinds = [ Record.Text ]; name = None }
      | Some _ -> { kinds = []; name = None }
      | None -> { kinds = norm_kinds [ Record.Text; Record.Attribute ]; name = None })

let desc_subset ~sub ~super =
  sub.kinds = []
  || (List.for_all (fun k -> List.mem k super.kinds) sub.kinds
      && (match super.name with
          | None -> true
          | Some n -> ( match sub.name with Some m -> String.equal m n | None -> false)))

(* ------------------------------------------------------------------ *)
(* Structural well-formedness (no statistics needed)                   *)

let structural_diagnostics (plan : Plan.op) =
  let acc = ref [] in
  let add severity code (op : Plan.op) message =
    acc := { severity; code; op_id = op.Plan.id; op_label = Plan.kind_to_string op; message } :: !acc
  in
  let top_id = plan.Plan.id in
  Plan.iter_ops
    (fun op ->
      (match op.Plan.kind with
      | Plan.Root ->
          if op.Plan.id <> top_id then add Error "malformed" op "nested R operator inside a plan";
          if op.Plan.predicates <> [] then
            add Error "malformed" op "R operator carries predicates the executor ignores"
      | Plan.Value_step (_, Some ((Ast.Comment_test | Ast.Pi_test _ | Ast.Node_test) as t)) ->
          add Error "malformed" op
            (Printf.sprintf "value step sourced from %s, which never carries an indexed value"
               (Ast.node_test_to_string t))
      | _ -> ());
      let rec scan (p : Plan.pred) =
        match p with
        | Plan.Binary (bid, cond, _, _) ->
            if not (is_comparison cond) then
              add Error "malformed" op
                (Printf.sprintf "β%d uses non-comparison operator '%s'" bid (Plan.binop_symbol cond))
        | Plan.And (a, b) | Plan.Or (a, b) -> scan a; scan b
        | Plan.Not a -> scan a
        | Plan.Position (cond, _) ->
            if not (is_comparison cond) then
              add Error "malformed" op
                (Printf.sprintf "position predicate uses non-comparison operator '%s'"
                   (Plan.binop_symbol cond))
        | Plan.Exists _ | Plan.Generic _ -> ()
      in
      List.iter scan op.Plan.predicates)
    plan;
  List.rev !acc

let assert_well_formed plan =
  match List.find_opt (fun d -> d.severity = Error) (structural_diagnostics plan) with
  | None -> ()
  | Some d -> raise (Ill_formed (Printf.sprintf "%s: %s" d.op_label d.message))

(* ------------------------------------------------------------------ *)
(* Predicate rendering (diagnostic messages)                           *)

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

(* ------------------------------------------------------------------ *)
(* Inference                                                           *)

type sat = Unsat | Valid | Unknown

let rec infer env (op : Plan.op) : props =
  let p =
    match op.Plan.kind with
    | Plan.Root -> ( match op.Plan.context with Some c -> infer env c | None -> Some 0)
    | Plan.Step (axis, test) -> infer_step env op ~axis ~test
    | Plan.Step_generic s -> infer_step env op ~axis:s.Ast.axis ~test:s.Ast.test
    | Plan.Value_step (v, source) -> infer_value env op v source
  in
  Hashtbl.replace env.tbl op.Plan.id p;
  p

(* A chain leaf pulls from the single engine context tuple; predicate
   sub-plans likewise re-root at one candidate at a time. *)
and input_card env (op : Plan.op) =
  match op.Plan.context with Some c -> infer env c | None -> Some 1

and infer_step env op ~axis ~test =
  let i = input_card env op in
  let count = count_for env axis test in
  let base_card =
    if is_empty i then Some 0
    else
      match axis with
      | Ast.Namespace -> Some 0
      | Ast.Parent | Ast.Self -> (
          match i with Some n -> Some (min n count) | None -> Some count)
      | _ -> Some count
  in
  (if axis = Ast.Namespace then
     diag env Info "empty-step" op "namespace axis yields no nodes (the data model carries none)"
   else if count = 0 && not (is_empty i) then
     diag env Warning "empty-step" op
       (Printf.sprintf "no %s::%s nodes in scope (COUNT = 0): step is provably empty"
          (Ast.axis_name axis) (Ast.node_test_to_string test)));
  (* parent:: is excluded: the optimizer introduces it on purpose (value
     index, pushdowns) and it costs one prefix truncation per tuple *)
  (if Ast.is_reverse_axis axis && axis <> Ast.Parent then
     diag env Info "reverse-axis" op
       (Printf.sprintf "reverse axis %s:: survives optimization (streams in reverse document order)"
          (Ast.axis_name axis)));
  (if Ast.is_reverse_axis axis
      && List.exists
           (fun (p : Plan.pred) ->
             match p with Plan.Position _ -> true | _ -> false)
           op.Plan.predicates
   then
     diag env Warning "position-on-reverse-axis" op
       "position() over a reverse axis counts in proximity order (nearest first), which often surprises");
  apply_predicates env op ~count ~input:i base_card

and infer_value env op v source =
  let i = input_card env op in
  let tc = env.stats.Cost.value_count ~scope:env.scope v in
  let dead_source =
    match source with
    | Some (Ast.Comment_test | Ast.Pi_test _ | Ast.Node_test) -> true
    | _ -> false
  in
  let base_card = if is_empty i || dead_source then Some 0 else Some tc in
  (if tc = 0 && (not (is_empty i)) && not dead_source then
     diag env Warning "empty-step" op
       (Printf.sprintf "no indexed value equals '%s' (TC = 0): step is provably empty" v));
  apply_predicates env op ~count:tc ~input:i base_card

(* Fold predicate effects into the operator's bound: an unsatisfiable
   predicate empties the stream; equality predicates tighten it. *)
and apply_predicates env op ~count ~input card =
  List.fold_left
    (fun card pred ->
      let st = pred_status env ~count pred in
      (match st with
      | Unsat ->
          diag env Warning "dead-predicate" op
            (Printf.sprintf "predicate can never hold: %s" (pred_label pred))
      | Valid ->
          diag env Info "redundant-predicate" op
            (Printf.sprintf "predicate is always true: %s" (pred_label pred))
      | Unknown -> ());
      if st = Unsat then Some 0
      else
        match card with
        | Some 0 -> card
        | _ -> (
            match pred with
            | Plan.Position (Ast.Eq, _) -> (
                (* at most one hit per distinct context *)
                match (input, card) with
                | Some n, Some c -> Some (min n c)
                | Some n, None -> Some n
                | None, c -> c)
            | _ -> (
                match value_cap env pred with
                | Some tc -> ( match card with Some c -> Some (min c tc) | None -> Some tc)
                | None -> card)))
    card op.Plan.predicates

(* TC cap: a depth-1 [text() = 'v'] / [@a = 'v'] predicate bounds the
   result set by the value count (paper Table I case 5). *)
and value_cap env (pred : Plan.pred) =
  match pred with
  | Plan.Binary (_, Ast.Eq, a, b) -> (
      let pick path lit =
        match (path : Plan.op) with
        | { Plan.kind = Plan.Step ((Ast.Child | Ast.Attribute), _); context = None; _ }
          when (desc_of path).kinds <> []
               && List.for_all
                    (fun k -> k = Record.Text || k = Record.Attribute)
                    (desc_of path).kinds ->
            Some (env.stats.Cost.value_count ~scope:env.scope lit)
        | _ -> None
      in
      match (a, b) with
      | (Plan.Path_operand p, Plan.Literal (_, v)) | (Plan.Literal (_, v), Plan.Path_operand p) ->
          pick p v
      | _ -> None)
  | _ -> None

(* Three-valued satisfiability of a predicate over any candidate. *)
and pred_status env ~count (pred : Plan.pred) : sat =
  match pred with
  | Plan.Exists sub ->
      let sp = infer env sub in
      if is_empty sp then Unsat else Unknown
  | Plan.Binary (_, cond, a, b) ->
      analyze_operand env a;
      analyze_operand env b;
      binary_status env cond a b
  | Plan.And (a, b) -> (
      match (pred_status env ~count a, pred_status env ~count b) with
      | Unsat, _ | _, Unsat -> Unsat
      | Valid, Valid -> Valid
      | _ -> Unknown)
  | Plan.Or (a, b) -> (
      match (pred_status env ~count a, pred_status env ~count b) with
      | Valid, _ | _, Valid -> Valid
      | Unsat, Unsat -> Unsat
      | _ -> Unknown)
  | Plan.Not a -> (
      match pred_status env ~count a with
      | Unsat -> Valid
      | Valid -> Unsat
      | Unknown -> Unknown)
  | Plan.Position (cond, n) -> position_status ~count cond n
  | Plan.Generic _ -> Unknown

and analyze_operand env (o : Plan.operand) =
  match o with Plan.Path_operand op -> ignore (infer env op) | _ -> ()

and binary_status env cond a b : sat =
  if not (is_comparison cond) then Unknown
  else
    match (operand_const a, operand_const b) with
    | Some ca, Some cb -> if const_cmp cond ca cb then Valid else Unsat
    | _ -> (
        (* path = literal with TC = 0 is unsatisfiable when the path can
           only yield text/attribute nodes (an element's string-value
           concatenates text, so TC = 0 proves nothing for elements) *)
        let path_lit =
          match (a, b) with
          | (Plan.Path_operand p, (Plan.Literal (_, v))) -> Some (p, v)
          | ((Plan.Literal (_, v)), Plan.Path_operand p) -> Some (p, v)
          | _ -> None
        in
        match (cond, path_lit) with
        | (Ast.Eq, Some (p, v)) ->
            let d = desc_of p in
            if
              d.kinds <> []
              && List.for_all (fun k -> k = Record.Text || k = Record.Attribute) d.kinds
              && env.stats.Cost.value_count ~scope:env.scope v = 0
            then Unsat
            else Unknown
        | _ -> Unknown)

(* position() runs 1..k per context, k bounded by the step's COUNT. *)
and position_status ~count cond n : sat =
  let countf = float_of_int count in
  if Float.is_nan n then if cond = Ast.Neq then Valid else Unsat
  else
    let integral = Float.is_integer n in
    match cond with
    | Ast.Eq -> if (not integral) || n < 1. || n > countf then Unsat else Unknown
    | Ast.Neq -> if (not integral) || n < 1. || n > countf then Valid else Unknown
    | Ast.Lt -> if n <= 1. then Unsat else if n > countf then Valid else Unknown
    | Ast.Le -> if n < 1. then Unsat else if n >= countf then Valid else Unknown
    | Ast.Gt -> if n < 1. then Valid else if n >= countf then Unsat else Unknown
    | Ast.Ge -> if n <= 1. then Valid else if n > countf then Unsat else Unknown
    | _ -> Unknown

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let analyze_with stats ~scope plan =
  let env = { stats; scope; tbl = Hashtbl.create 16; diags = [] } in
  let root_props = infer env plan in
  { props = env.tbl;
    diagnostics = structural_diagnostics plan @ List.rev env.diags;
    root_props }

let analyze ?stats store ~scope plan =
  let stats = match stats with Some s -> s | None -> Cost.live_statistics store in
  analyze_with stats ~scope plan

let statically_empty t = is_empty t.root_props
let props_of t (op : Plan.op) = Option.join (Hashtbl.find_opt t.props op.Plan.id)
let errors t = List.filter (fun d -> d.severity = Error) t.diagnostics

(* ------------------------------------------------------------------ *)
(* Rewrite signatures                                                  *)

type signature = {
  sig_empty : bool;
  sig_desc : node_desc;
  sig_positional : string list;
}

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

let signature_of t plan =
  { sig_empty = statically_empty t;
    sig_desc = desc_of plan;
    sig_positional = positional_fingerprints plan }

let check_rewrite ~before ~after ~after_errors =
  match List.find_opt (fun d -> d.severity = Error) after_errors with
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

let severity_to_string = function Info -> "info" | Warning -> "warning" | Error -> "error"

let props_to_string = function
  | Some n -> Printf.sprintf "{card≤%d}" n
  | None -> "{card unbounded}"

let diagnostic_to_string d =
  Printf.sprintf "%s [%s] %s: %s" (severity_to_string d.severity) d.code d.op_label d.message

let pp_annotated ?costed t ppf plan =
  let cost_annot (op : Plan.op) =
    match costed with
    | None -> ""
    | Some c -> (
        match Hashtbl.find_opt c op.Plan.id with
        | None -> ""
        | Some (s : Cost.stats) ->
            let tc = match s.Cost.tc with Some n -> Printf.sprintf " TC=%d" n | None -> "" in
            Printf.sprintf "  {COUNT=%d%s IN=%d OUT=%d}" s.Cost.count tc s.Cost.input s.Cost.output)
  in
  let props_annot (op : Plan.op) =
    match Hashtbl.find_opt t.props op.Plan.id with
    | None -> ""
    | Some p -> "  " ^ props_to_string p
  in
  let line indent text = Format.fprintf ppf "%s%s@." (String.make indent ' ') text in
  let rec pp_op indent (op : Plan.op) =
    line indent (Plan.kind_to_string op ^ props_annot op ^ cost_annot op);
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

let props_json p =
  Json.Obj [ ("card_max", match p with Some n -> Json.Int n | None -> Json.Null) ]

let diagnostic_json d =
  Json.Obj
    [ ("severity", Json.Str (severity_to_string d.severity));
      ("code", Json.Str d.code);
      ("op", Json.Str d.op_label);
      ("message", Json.Str d.message) ]

let to_json t plan =
  let operators =
    List.filter_map
      (fun (op : Plan.op) ->
        match Hashtbl.find_opt t.props op.Plan.id with
        | None -> None
        | Some p ->
            Some
              (Json.Obj
                 (("id", Json.Int op.Plan.id)
                  :: ("op", Json.Str (Plan.kind_to_string op))
                  :: (match props_json p with Json.Obj fields -> fields | _ -> []))))
      (Plan.subtree_ops plan)
  in
  Json.Obj
    [ ("statically_empty", Json.Bool (statically_empty t));
      ("root", props_json t.root_props);
      ("operators", Json.Arr operators);
      ("diagnostics", Json.Arr (List.map diagnostic_json t.diagnostics)) ]
