(** XPath 1.0 abstract syntax.

    Covers the language surface the paper targets: all 13 axes, the node
    tests, predicates (value, range and position), the core function
    library, boolean/arithmetic operators, and node-set union. *)

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
      (** Parsed and costed for completeness; evaluates to the empty set
          because the data model keeps qualified names verbatim and
          carries no namespace nodes. *)

val all_axes : axis list
(** The 13 XPath axes. *)

val axis_name : axis -> string
(** XPath surface syntax, e.g. ["following-sibling"]. *)

val axis_of_name : string -> axis option

val is_reverse_axis : axis -> bool
(** Ancestor, ancestor-or-self, parent, preceding, preceding-sibling. *)

type node_test =
  | Name_test of string  (** element name (or attribute name on the attribute axis) *)
  | Wildcard  (** [*] *)
  | Text_test  (** [text()] *)
  | Node_test  (** [node()] *)
  | Comment_test  (** [comment()] *)
  | Pi_test of string option  (** [processing-instruction()], optionally with a target literal *)

type binop =
  | Or
  | And
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Union  (** node-set union, [|] *)

type expr =
  | Path of path
  | Literal of string
  | Number of float
  | Var of string  (** [$name] — bound by an enclosing XQuery-style expression *)
  | Binop of binop * expr * expr
  | Neg of expr
  | Call of string * expr list
  | Filter of expr * expr list  (** primary expression with predicates *)
  | Located of expr * path  (** [FilterExpr / RelativeLocationPath] *)

and path = { absolute : bool; steps : step list }

and step = { axis : axis; test : node_test; predicates : expr list }

val step : ?predicates:expr list -> axis -> node_test -> step

val path_expr : path -> expr
(** Wrap a path, simplifying [Path] application. *)

val map_literals : (string -> string) -> expr -> expr
(** Rewrite every string {!Literal} (processing-instruction targets are
    node tests, not literals, and stay). *)

val map_step_literals : (string -> string) -> step -> step
val map_path_literals : (string -> string) -> path -> path

(** {1 Printing}

    The printer emits unabbreviated syntax that reparses to an equal
    AST (used by round-trip tests and plan explanations). *)

val node_test_to_string : node_test -> string
val expr_to_string : expr -> string
val path_to_string : path -> string
val pp_expr : Format.formatter -> expr -> unit
val pp_path : Format.formatter -> path -> unit

val equal_expr : expr -> expr -> bool
val equal_path : path -> path -> bool
