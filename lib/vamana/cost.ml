module Store = Mass.Store
open Xpath

type sat = Unsat | Valid | Unknown

type stats = {
  count : int;
  tc : int option;
  input : int;
  output : int;
  selectivity : float;
  bound : int;
  verdicts : sat list;
}

type costed = (int, stats) Hashtbl.t

type statistics_source = {
  node_count : scope:Flex.t option -> principal:Mass.Record.kind -> Xpath.Ast.node_test -> int;
  value_count : scope:Flex.t option -> string -> int;
  chain_out :
    (scope:Flex.t option ->
     (Xpath.Ast.axis * Xpath.Ast.node_test * bool) list ->
     (int * bool) option)
    option;
      (* path-synopsis refinement of a step chain's output (root-side
         first, each step tagged with whether it carries predicates):
         [Some (n, true)] is the exact raw tuple count, [Some (n, false)]
         an estimate.  [None] (the source has no synopsis, or the scope
         is not a whole document) falls back to Table I alone. *)
}

let live_statistics store =
  {
    node_count = (fun ~scope ~principal test -> Store.count_test store ?scope ~principal test);
    value_count = (fun ~scope v -> Store.text_value_count store ?scope v);
    chain_out = None;
  }

let synopsis_statistics store =
  let live = live_statistics store in
  {
    live with
    chain_out =
      Some
        (fun ~scope spec ->
          Mass.Synopsis.chain_estimate (Mass.Synopsis.for_store store) ~scope spec);
  }

let selectivity_of ~input ~output =
  if output = 0 then Float.infinity
  else float_of_int input /. float_of_int output

let record (costed : costed) (op : Plan.op) s =
  Hashtbl.replace costed op.id s;
  s

(* Table I: upper bound on the tuples a step operator emits. *)
let table_one (axis : Ast.axis) ~count ~input =
  match axis with
  | Ast.Child | Ast.Descendant | Ast.Descendant_or_self | Ast.Attribute -> count
  | Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self | Ast.Following
  | Ast.Following_sibling | Ast.Preceding | Ast.Preceding_sibling ->
      input
  | Ast.Self -> if count > input then count else input
  | Ast.Namespace -> 0

(* A step's result set: empty from an empty input, at most one node per
   context on parent:: and self::, otherwise at most COUNT. *)
let step_bound (axis : Ast.axis) ~count ~bound_in =
  if bound_in = 0 then 0
  else
    match axis with
    | Ast.Namespace -> 0
    | Ast.Parent | Ast.Self -> min bound_in count
    | _ -> count

let count_for stats ~scope (axis : Ast.axis) test =
  let principal =
    match axis with Ast.Attribute -> Mass.Record.Attribute | _ -> Mass.Record.Element
  in
  stats.node_count ~scope ~principal test

(* A literal binary predicate comparable through the value index (the
   paper's case 5): [path = 'literal'] with equality. *)
let value_comparable (pred : Plan.pred) =
  match pred with
  | Plan.Binary (_, Ast.Eq, Plan.Path_operand p, Plan.Literal (_, v))
  | Plan.Binary (_, Ast.Eq, Plan.Literal (_, v), Plan.Path_operand p) ->
      Some (p, v)
  | _ -> None

(* The path yields only text or attribute nodes, whose string-values are
   exactly what the value index counts (an element's string-value
   concatenates text, so TC = 0 proves nothing for elements). *)
let value_only (p : Plan.op) =
  let d = Plan.desc_of p in
  d.Plan.kinds <> []
  && List.for_all (fun k -> k = Mass.Record.Text || k = Mass.Record.Attribute) d.Plan.kinds

(* A depth-1 [text() = 'v'] / [@a = 'v'] predicate bounds the result set
   by the value count. *)
let caps_bound (p : Plan.op) =
  match p with
  | { Plan.kind = Plan.Step ((Ast.Child | Ast.Attribute), _); context = None; _ } -> value_only p
  | _ -> false

(* ---- constant folding for β operands ---- *)

let operand_const (o : Plan.operand) =
  match o with
  | Plan.Literal (_, s) -> Some (`Str s)
  | Plan.Number_operand n -> Some (`Num n)
  | Plan.Path_operand _ -> None

let to_num = function
  | `Num n -> n
  | `Str s -> ( match float_of_string_opt (String.trim s) with Some n -> n | None -> Float.nan)

(* XPath 1.0 comparison of two constants. *)
let const_cmp (cmp : Ast.binop) a b =
  match (cmp, a, b) with
  | Ast.Eq, `Str x, `Str y -> String.equal x y
  | Ast.Neq, `Str x, `Str y -> not (String.equal x y)
  | _ -> (
      let a = to_num a and b = to_num b in
      match cmp with
      | Ast.Eq -> a = b
      | Ast.Neq -> a <> b
      | Ast.Lt -> a < b
      | Ast.Le -> a <= b
      | Ast.Gt -> a > b
      | Ast.Ge -> a >= b
      | _ -> false)

(* position() runs 1..k per context, k bounded by the step's COUNT. *)
let position_sat ~count (cond : Ast.binop) n =
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

(* Leaf-first [(axis, test, has_predicates)] spec of the step chain that
   feeds [op], ending with [op] itself.  [None] when the chain contains
   anything but plain steps (a value step, a nested root) — the synopsis
   walker models location steps only.  [op]'s own plan predicates are
   left to the Table I cases; a generic step's AST predicates are not. *)
let chain_spec (op : Plan.op) =
  let rec below (o : Plan.op option) =
    match o with
    | None -> Some []
    | Some o -> (
        match below o.context with
        | None -> None
        | Some acc -> (
            match o.kind with
            | Plan.Step (axis, test) -> Some (acc @ [ (axis, test, o.predicates <> []) ])
            | Plan.Step_generic st ->
                Some
                  (acc
                  @ [ (st.Xpath.Ast.axis, st.Xpath.Ast.test,
                       st.Xpath.Ast.predicates <> [] || o.predicates <> []) ])
            | Plan.Root | Plan.Value_step _ -> None))
  in
  match below op.context with
  | None -> None
  | Some acc -> (
      match op.kind with
      | Plan.Step (axis, test) -> Some (acc @ [ (axis, test, false) ])
      | Plan.Step_generic st ->
          Some (acc @ [ (st.Xpath.Ast.axis, st.Xpath.Ast.test, st.Xpath.Ast.predicates <> []) ])
      | Plan.Root | Plan.Value_step _ -> None)

(* Synopsis refinement of the Table I bound: exact chain counts replace
   it, estimates only tighten it.  Applies to the main context chain
   only — predicate sub-plans ([leaf_input] set) run from candidate
   tuples, not the document node the synopsis walk starts at. *)
let refine_with_chain stats ~scope ~leaf_input (op : Plan.op) axis_out =
  match (stats.chain_out, leaf_input) with
  | Some chain, None -> (
      match chain_spec op with
      | None -> axis_out
      | Some spec -> (
          match chain ~scope spec with
          | Some (n, true) -> n
          | Some (n, false) -> min axis_out n
          | None -> axis_out))
  | _ -> axis_out

(* The one walk over a plan.  Each operator gets both numbers: the Table
   I estimate (COUNT, TC, IN, OUT, δ), which the synopsis may refine, and
   the proven result-set [bound], which reads only COUNT and TC.  A chain
   leaf's [bound] input is the single engine context tuple; predicate
   sub-plans re-root at one candidate at a time. *)
let rec estimate_op stats ~scope ~costed ~leaf_input (op : Plan.op) : stats =
  let context = Option.map (estimate_op stats ~scope ~costed ~leaf_input) op.context in
  let bound_in = match context with Some c -> c.bound | None -> 1 in
  let input ~leaf =
    match context with Some c -> c.output | None -> Option.value leaf_input ~default:leaf
  in
  match op.kind with
  | Plan.Root ->
      let output, bound = match context with Some c -> (c.output, c.bound) | None -> (0, 0) in
      record costed op
        { count = output; tc = None; input = output; output; selectivity = 1.0; bound;
          verdicts = [] }
  | Plan.Step (axis, test) | Plan.Step_generic { Ast.axis; test; _ } ->
      let count = count_for stats ~scope axis test in
      let input = input ~leaf:count in
      let candidates =
        refine_with_chain stats ~scope ~leaf_input op (table_one axis ~count ~input)
      in
      apply_predicates stats ~scope ~costed op ~count ~tc:None ~input ~candidates ~bound_in
        (step_bound axis ~count ~bound_in)
  | Plan.Value_step (v, source) ->
      let tc = stats.value_count ~scope v in
      let dead_source =
        match source with
        | Some (Ast.Comment_test | Ast.Pi_test _ | Ast.Node_test) -> true
        | _ -> false
      in
      apply_predicates stats ~scope ~costed op ~count:tc ~tc:(Some tc) ~input:(input ~leaf:1)
        ~candidates:tc ~bound_in
        (if bound_in = 0 || dead_source then 0 else tc)

(* Fold the operator's predicates into both numbers.  OUT: case 5 (a
   value-comparable binary caps it at TC), a positional equality caps it
   at the candidates, case 6 (anything else) leaves it.  The bound: an
   unsatisfiable predicate empties the result set, a positional equality
   keeps at most one node per context, a depth-1 value predicate caps it
   at TC.  Predicate sub-plans are costed with the candidate count as
   their leaf input (case 3). *)
and apply_predicates stats ~scope ~costed op ~count ~tc ~input ~candidates ~bound_in bound =
  let output, bound, verdicts =
    List.fold_left
      (fun (output, bound, verdicts) pred ->
        let sat, literal = verdict stats ~scope ~costed ~count ~candidates pred in
        let output =
          match (literal, pred) with
          | Some (_, tc), _ -> min output tc
          | None, Plan.Position (Ast.Eq, _) -> min output candidates
          | None, _ -> output
        in
        let bound =
          if sat = Unsat || bound = 0 then 0
          else
            match (pred, literal) with
            | Plan.Position (Ast.Eq, _), _ -> min bound_in bound
            | _, Some (path, tc) when caps_bound path -> min bound tc
            | _ -> bound
        in
        (output, bound, sat :: verdicts))
      (candidates, bound, []) op.Plan.predicates
  in
  record costed op
    { count; tc; input; output; selectivity = selectivity_of ~input ~output; bound;
      verdicts = List.rev verdicts }

(* Three-valued satisfiability of a predicate over any candidate, costing
   its sub-plans on the way; a value-comparable [path = 'v'] also returns
   its path and TC('v'). *)
and verdict stats ~scope ~costed ~count ~candidates (pred : Plan.pred) =
  let sub p = fst (verdict stats ~scope ~costed ~count ~candidates p) in
  let sub_plan op = estimate_op stats ~scope ~costed ~leaf_input:(Some candidates) op in
  match pred with
  | Plan.Exists op ->
      let s = sub_plan op in
      (* an existence probe resets per candidate and stops at its first
         witness, so it emits at most one tuple per candidate; the
         refined-statistics source models that (the pure Table I source
         keeps the paper's figures) *)
      if stats.chain_out <> None && s.output > candidates then
        ignore
          (record costed op
             { s with
               output = candidates;
               selectivity = selectivity_of ~input:s.input ~output:candidates });
      ((if s.bound = 0 then Unsat else Unknown), None)
  | Plan.Binary (_, cond, a, b) -> (
      List.iter
        (function Plan.Path_operand op -> ignore (sub_plan op) | _ -> ())
        [ a; b ];
      match value_comparable pred with
      | Some (path, v) ->
          let tc = stats.value_count ~scope v in
          ((if tc = 0 && value_only path then Unsat else Unknown), Some (path, tc))
      | None -> (
          match (operand_const a, operand_const b) with
          | Some ca, Some cb when Plan.is_comparison cond ->
              ((if const_cmp cond ca cb then Valid else Unsat), None)
          | _ -> (Unknown, None)))
  | Plan.And (a, b) ->
      let a = sub a in
      let b = sub b in
      ( (match (a, b) with
        | Unsat, _ | _, Unsat -> Unsat
        | Valid, Valid -> Valid
        | _ -> Unknown),
        None )
  | Plan.Or (a, b) ->
      let a = sub a in
      let b = sub b in
      ( (match (a, b) with
        | Valid, _ | _, Valid -> Valid
        | Unsat, Unsat -> Unsat
        | _ -> Unknown),
        None )
  | Plan.Not a -> ((match sub a with Unsat -> Valid | Valid -> Unsat | Unknown -> Unknown), None)
  | Plan.Position (cond, n) -> (position_sat ~count cond n, None)
  | Plan.Generic _ -> (Unknown, None)

let estimate_with stats ~scope plan : costed =
  let costed = Hashtbl.create 16 in
  ignore (estimate_op stats ~scope ~costed ~leaf_input:None plan);
  costed

let estimate ?stats store ~scope plan : costed =
  let stats = match stats with Some s -> s | None -> live_statistics store in
  estimate_with stats ~scope plan

let total_output (costed : costed) plan =
  List.fold_left
    (fun acc (op : Plan.op) ->
      match Hashtbl.find_opt costed op.id with Some s -> acc + s.output | None -> acc)
    0 (Plan.subtree_ops plan)

let ordered_by_selectivity (costed : costed) plan =
  let ops =
    Plan.subtree_ops plan
    |> List.filter (fun (op : Plan.op) ->
           match op.kind with
           | Plan.Step _ | Plan.Value_step _ -> true
           | Plan.Root | Plan.Step_generic _ -> false)
  in
  let with_sel =
    List.filter_map
      (fun op ->
        match Hashtbl.find_opt costed op.Plan.id with
        | Some s -> Some (op, s.selectivity)
        | None -> None)
      ops
  in
  let max_sel =
    List.fold_left
      (fun acc (_, s) -> if Float.is_finite s && s > acc then s else acc)
      1.0 with_sel
  in
  (* scale into [0, 1]; infinite selectivity (empty output) scales to 1 *)
  let scaled =
    List.map
      (fun (op, s) -> (op, if Float.is_finite s then s /. max_sel else 1.0))
      with_sel
  in
  List.stable_sort (fun (_, a) (_, b) -> Float.compare b a) scaled
