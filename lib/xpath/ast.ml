type axis =
  | Child
  | Descendant
  | Descendant_or_self
  | Parent
  | Ancestor
  | Ancestor_or_self
  | Following
  | Following_sibling
  | Preceding
  | Preceding_sibling
  | Self
  | Attribute
  | Namespace

let all_axes =
  [ Child; Descendant; Descendant_or_self; Parent; Ancestor; Ancestor_or_self; Following;
    Following_sibling; Preceding; Preceding_sibling; Self; Attribute; Namespace ]

let axis_name = function
  | Child -> "child"
  | Descendant -> "descendant"
  | Descendant_or_self -> "descendant-or-self"
  | Parent -> "parent"
  | Ancestor -> "ancestor"
  | Ancestor_or_self -> "ancestor-or-self"
  | Following -> "following"
  | Following_sibling -> "following-sibling"
  | Preceding -> "preceding"
  | Preceding_sibling -> "preceding-sibling"
  | Self -> "self"
  | Attribute -> "attribute"
  | Namespace -> "namespace"

let axis_of_name s = List.find_opt (fun a -> String.equal (axis_name a) s) all_axes

let is_reverse_axis = function
  | Parent | Ancestor | Ancestor_or_self | Preceding | Preceding_sibling -> true
  | Child | Descendant | Descendant_or_self | Following | Following_sibling | Self
  | Attribute | Namespace ->
      false

type node_test =
  | Name_test of string
  | Wildcard
  | Text_test
  | Node_test
  | Comment_test
  | Pi_test of string option

type binop = Or | And | Eq | Neq | Lt | Le | Gt | Ge | Add | Sub | Mul | Div | Mod | Union

type expr =
  | Path of path
  | Literal of string
  | Number of float
  | Var of string
  | Binop of binop * expr * expr
  | Neg of expr
  | Call of string * expr list
  | Filter of expr * expr list
  | Located of expr * path

and path = { absolute : bool; steps : step list }
and step = { axis : axis; test : node_test; predicates : expr list }

let step ?(predicates = []) axis test = { axis; test; predicates }
let path_expr p = Path p

let rec map_literals f e =
  match e with
  | Literal s -> Literal (f s)
  | Number _ | Var _ -> e
  | Path p -> Path (map_path_literals f p)
  | Binop (op, a, b) -> Binop (op, map_literals f a, map_literals f b)
  | Neg a -> Neg (map_literals f a)
  | Call (name, args) -> Call (name, List.map (map_literals f) args)
  | Filter (a, preds) -> Filter (map_literals f a, List.map (map_literals f) preds)
  | Located (a, p) -> Located (map_literals f a, map_path_literals f p)

and map_step_literals f s = { s with predicates = List.map (map_literals f) s.predicates }
and map_path_literals f p = { p with steps = List.map (map_step_literals f) p.steps }

let node_test_to_string = function
  | Name_test s -> s
  | Wildcard -> "*"
  | Text_test -> "text()"
  | Node_test -> "node()"
  | Comment_test -> "comment()"
  | Pi_test None -> "processing-instruction()"
  | Pi_test (Some t) -> Printf.sprintf "processing-instruction('%s')" t

let binop_name = function
  | Or -> "or"
  | And -> "and"
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "div"
  | Mod -> "mod"
  | Union -> "|"

(* Binding strengths for parenthesisation when printing. *)
let prec = function
  | Or -> 1
  | And -> 2
  | Eq | Neq -> 3
  | Lt | Le | Gt | Ge -> 4
  | Add | Sub -> 5
  | Mul | Div | Mod -> 6
  | Union -> 7

let quote_literal s =
  if String.contains s '\'' then Printf.sprintf "\"%s\"" s else Printf.sprintf "'%s'" s

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let rec expr_to_prec level e =
  match e with
  | Path p -> path_to_string p
  | Literal s -> quote_literal s
  | Number f -> number_to_string f
  | Var v -> "$" ^ v
  | Neg e -> "-" ^ expr_to_prec 8 e
  | Call (f, args) ->
      Printf.sprintf "%s(%s)" f (String.concat ", " (List.map (expr_to_prec 0) args))
  | Filter (e, preds) ->
      (* parenthesize paths so the predicate binds to the whole expression,
         not to the final step *)
      let inner =
        match e with
        | Path _ -> "(" ^ expr_to_prec 0 e ^ ")"
        | _ -> expr_to_prec 8 e
      in
      inner ^ predicates_to_string preds
  | Located (e, p) -> expr_to_prec 8 e ^ "/" ^ path_to_string { p with absolute = false }
  | Binop (op, a, b) ->
      let p = prec op in
      let s =
        Printf.sprintf "%s %s %s" (expr_to_prec p a) (binop_name op) (expr_to_prec (p + 1) b)
      in
      if p < level then "(" ^ s ^ ")" else s

and predicates_to_string preds =
  String.concat "" (List.map (fun e -> "[" ^ expr_to_prec 0 e ^ "]") preds)

and step_to_string { axis; test; predicates } =
  Printf.sprintf "%s::%s%s" (axis_name axis) (node_test_to_string test)
    (predicates_to_string predicates)

and path_to_string { absolute; steps } =
  let body = String.concat "/" (List.map step_to_string steps) in
  if absolute then "/" ^ body else body

let expr_to_string = expr_to_prec 0
let pp_expr ppf e = Format.pp_print_string ppf (expr_to_string e)
let pp_path ppf p = Format.pp_print_string ppf (path_to_string p)
let equal_expr (a : expr) (b : expr) = a = b
let equal_path (a : path) (b : path) = a = b
