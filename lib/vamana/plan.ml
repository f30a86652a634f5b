type op = { id : int; kind : kind; context : op option; predicates : pred list }

and kind =
  | Root
  | Step of Xpath.Ast.axis * Xpath.Ast.node_test
  | Value_step of string * Xpath.Ast.node_test option
  | Step_generic of Xpath.Ast.step

and pred =
  | Exists of op
  | Binary of int * Xpath.Ast.binop * operand * operand
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | Position of Xpath.Ast.binop * float
  | Generic of Xpath.Ast.expr

and operand =
  | Path_operand of op
  | Literal of int * string
  | Number_operand of float

let counter = ref 0

let fresh_id () =
  incr counter;
  !counter

let mk ?context ?(predicates = []) kind = { id = fresh_id (); kind; context; predicates }

let context_chain op =
  let rec go acc op = match op.context with None -> op :: acc | Some c -> go (op :: acc) c in
  List.rev (go [] op)

let rec leaf op = match op.context with None -> op | Some c -> leaf c

let rebuild_chain ops =
  match List.rev ops with
  | [] -> None
  | leaf :: rest ->
      let leaf = { leaf with context = None } in
      Some (List.fold_left (fun child parent -> { parent with context = Some child }) leaf rest)

let rec iter_ops f op =
  f op;
  (match op.context with Some c -> iter_ops f c | None -> ());
  List.iter (iter_pred f) op.predicates

and iter_pred f = function
  | Exists sub -> iter_ops f sub
  | Binary (_, _, a, b) ->
      iter_operand f a;
      iter_operand f b
  | And (a, b) | Or (a, b) ->
      iter_pred f a;
      iter_pred f b
  | Not p -> iter_pred f p
  | Position _ | Generic _ -> ()

and iter_operand f = function
  | Path_operand sub -> iter_ops f sub
  | Literal _ | Number_operand _ -> ()

let rec map_literals f op =
  let kind =
    match op.kind with
    | Value_step (v, src) -> Value_step (f v, src)
    | Step_generic s -> Step_generic (Xpath.Ast.map_step_literals f s)
    | (Root | Step _) as k -> k
  in
  { op with
    kind;
    context = Option.map (map_literals f) op.context;
    predicates = List.map (map_pred_literals f) op.predicates }

and map_pred_literals f = function
  | Exists sub -> Exists (map_literals f sub)
  | Binary (id, cond, a, b) -> Binary (id, cond, map_operand_literals f a, map_operand_literals f b)
  | And (a, b) -> And (map_pred_literals f a, map_pred_literals f b)
  | Or (a, b) -> Or (map_pred_literals f a, map_pred_literals f b)
  | Not p -> Not (map_pred_literals f p)
  | Generic e -> Generic (Xpath.Ast.map_literals f e)
  | Position _ as p -> p

and map_operand_literals f = function
  | Path_operand sub -> Path_operand (map_literals f sub)
  | Literal (id, v) -> Literal (id, f v)
  | Number_operand _ as o -> o

let subtree_ops op =
  let acc = ref [] in
  iter_ops (fun o -> acc := o :: !acc) op;
  List.rev !acc

let is_comparison (b : Xpath.Ast.binop) =
  match b with
  | Xpath.Ast.Eq | Xpath.Ast.Neq | Xpath.Ast.Lt | Xpath.Ast.Le | Xpath.Ast.Gt | Xpath.Ast.Ge -> true
  | _ -> false

(* ---- node descriptions ---- *)

module Ast = Xpath.Ast
module Record = Mass.Record

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
let rec pred_narrows (p : pred) =
  let of_sub (sub : op) =
    match (leaf sub).kind with
    | Step ((Ast.Child | Ast.Descendant), _) -> Some `Children
    | Step (Ast.Attribute, _) -> Some `Attrs
    | _ -> None
  in
  match p with
  | Exists sub | Binary (_, _, Path_operand sub, _) | Binary (_, _, _, Path_operand sub) ->
      of_sub sub
  | And (a, b) -> ( match pred_narrows a with Some _ as r -> r | None -> pred_narrows b)
  | Or (a, b) -> (
      match (pred_narrows a, pred_narrows b) with
      | Some `Attrs, Some _ | Some _, Some `Attrs -> Some `Attrs
      | Some `Children, Some `Children -> Some `Children
      | _ -> None)
  | Not _ | Binary _ | Position _ | Generic _ -> None

(* Only documents and elements have children; only elements have
   attributes. *)
let refine_desc_by_preds (op : op) desc =
  List.fold_left
    (fun d p ->
      match pred_narrows p with
      | Some `Children ->
          { d with
            kinds = List.filter (fun k -> k = Record.Document || k = Record.Element) d.kinds }
      | Some `Attrs -> { d with kinds = List.filter (fun k -> k = Record.Element) d.kinds }
      | None -> d)
    desc op.predicates

let rec desc_of (op : op) = refine_desc_by_preds op (desc_of_kind op)

and desc_of_kind (op : op) =
  match op.kind with
  | Root -> ( match op.context with Some c -> desc_of c | None -> { kinds = []; name = None })
  | Step (axis, test) -> (
      match axis with
      | Ast.Self -> (
          (* self narrows the input description by the test *)
          let input =
            match op.context with
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
  | Step_generic s -> desc_of_test s.Ast.axis s.Ast.test
  | Value_step (_, source) -> (
      match source with
      | Some (Ast.Name_test n) -> { kinds = [ Record.Attribute ]; name = Some n }
      | Some Ast.Text_test -> { kinds = [ Record.Text ]; name = None }
      | Some _ -> { kinds = []; name = None }
      | None -> { kinds = norm_kinds [ Record.Text; Record.Attribute ]; name = None })

let binop_symbol (b : Xpath.Ast.binop) =
  match b with
  | Xpath.Ast.Eq -> "="
  | Xpath.Ast.Neq -> "!="
  | Xpath.Ast.Lt -> "<"
  | Xpath.Ast.Le -> "<="
  | Xpath.Ast.Gt -> ">"
  | Xpath.Ast.Ge -> ">="
  | Xpath.Ast.And -> "and"
  | Xpath.Ast.Or -> "or"
  | Xpath.Ast.Add -> "+"
  | Xpath.Ast.Sub -> "-"
  | Xpath.Ast.Mul -> "*"
  | Xpath.Ast.Div -> "div"
  | Xpath.Ast.Mod -> "mod"
  | Xpath.Ast.Union -> "|"

let kind_to_string op =
  match op.kind with
  | Root -> Printf.sprintf "R%d" op.id
  | Step (axis, test) ->
      Printf.sprintf "Φ%d %s::%s" op.id (Xpath.Ast.axis_name axis)
        (Xpath.Ast.node_test_to_string test)
  | Value_step (v, src) ->
      Printf.sprintf "Φ%d value::'%s'%s" op.id v
        (match src with
        | None -> ""
        | Some t -> Printf.sprintf " (source %s)" (Xpath.Ast.node_test_to_string t))
  | Step_generic s -> Printf.sprintf "Φ%d generic %s" op.id (Xpath.Ast.node_test_to_string s.Xpath.Ast.test)

let rec pp_op ppf ~indent op =
  let pad = String.make indent ' ' in
  Format.fprintf ppf "%s%s@," pad (kind_to_string op);
  List.iter (pp_pred ppf ~indent:(indent + 2)) op.predicates;
  match op.context with Some c -> pp_op ppf ~indent:(indent + 2) c | None -> ()

and pp_pred ppf ~indent pred =
  let pad = String.make indent ' ' in
  match pred with
  | Exists sub ->
      Format.fprintf ppf "%sξ exists@," pad;
      pp_op ppf ~indent:(indent + 2) sub
  | Binary (id, cond, a, b) ->
      Format.fprintf ppf "%sβ%d %s@," pad id (binop_symbol cond);
      pp_operand ppf ~indent:(indent + 2) a;
      pp_operand ppf ~indent:(indent + 2) b
  | And (a, b) ->
      Format.fprintf ppf "%sand@," pad;
      pp_pred ppf ~indent:(indent + 2) a;
      pp_pred ppf ~indent:(indent + 2) b
  | Or (a, b) ->
      Format.fprintf ppf "%sor@," pad;
      pp_pred ppf ~indent:(indent + 2) a;
      pp_pred ppf ~indent:(indent + 2) b
  | Not p ->
      Format.fprintf ppf "%snot@," pad;
      pp_pred ppf ~indent:(indent + 2) p
  | Position (cond, n) ->
      Format.fprintf ppf "%sposition() %s %s@," pad (binop_symbol cond)
        (Xpath.Ast.expr_to_string (Xpath.Ast.Number n))
  | Generic e -> Format.fprintf ppf "%s[%s]@," pad (Xpath.Ast.expr_to_string e)

and pp_operand ppf ~indent operand =
  let pad = String.make indent ' ' in
  match operand with
  | Path_operand sub -> pp_op ppf ~indent sub
  | Literal (id, v) -> Format.fprintf ppf "%sL%d '%s'@," pad id v
  | Number_operand f ->
      Format.fprintf ppf "%s%s@," pad (Xpath.Ast.expr_to_string (Xpath.Ast.Number f))

let pp ppf op =
  Format.fprintf ppf "@[<v>";
  pp_op ppf ~indent:0 op;
  Format.fprintf ppf "@]"

let to_string op = Format.asprintf "%a" pp op

let rec equal_structure a b =
  a.kind = b.kind
  && Option.equal equal_structure a.context b.context
  && List.equal equal_pred a.predicates b.predicates

and equal_pred p q =
  match (p, q) with
  | Exists a, Exists b -> equal_structure a b
  | Binary (_, c1, a1, b1), Binary (_, c2, a2, b2) ->
      c1 = c2 && equal_operand a1 a2 && equal_operand b1 b2
  | And (a1, b1), And (a2, b2) | Or (a1, b1), Or (a2, b2) ->
      equal_pred a1 a2 && equal_pred b1 b2
  | Not a, Not b -> equal_pred a b
  | Position (c1, n1), Position (c2, n2) -> c1 = c2 && n1 = n2
  | Generic e1, Generic e2 -> Xpath.Ast.equal_expr e1 e2
  | (Exists _ | Binary _ | And _ | Or _ | Not _ | Position _ | Generic _), _ -> false

and equal_operand a b =
  match (a, b) with
  | Path_operand x, Path_operand y -> equal_structure x y
  | Literal (_, v1), Literal (_, v2) -> String.equal v1 v2
  | Number_operand f1, Number_operand f2 -> f1 = f2
  | (Path_operand _ | Literal _ | Number_operand _), _ -> false
