(** VAMANA physical algebra (paper §V).

    A query plan is a tree of operators.  Every operator has at most one
    {e context child} — the operator it pulls context tuples from — and a
    list of {e predicate operators} filtering its output.  The plan root
    is the paper's [R] operator; its context chain runs down to the leaf
    step, which streams tuples straight from the MASS index.

    Plans are immutable values: the optimizer rewrites by rebuilding, and
    cost annotations live in a side table keyed by operator id. *)

type op = {
  id : int;
  kind : kind;
  context : op option;  (** context child *)
  predicates : pred list;
}

and kind =
  | Root  (** [R] — returns every tuple of its context child *)
  | Step of Xpath.Ast.axis * Xpath.Ast.node_test  (** [Φ axis::test] *)
  | Value_step of string * Xpath.Ast.node_test option
      (** [Φ value::'v'] — value-index location step introduced by the
          optimizer; the optional node test restricts the {e source} node
          (e.g. [text()] or an attribute name) and requires a record
          fetch per hit. *)
  | Step_generic of Xpath.Ast.step
      (** Escape hatch: a location step whose predicates need full XPath
          semantics (e.g. [last()]); executed through the generic
          evaluator per context tuple. *)

and pred =
  | Exists of op  (** [ξ] — path-existence filter; the sub-plan's leaf is re-rooted at each candidate tuple *)
  | Binary of int * Xpath.Ast.binop * operand * operand  (** [β cond] *)
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | Position of Xpath.Ast.binop * float
      (** positional filter: [position() cmp n]; a bare numeric predicate
          [[n]] is [(Eq, n)] *)
  | Generic of Xpath.Ast.expr  (** fallback: full evaluator on the candidate *)

and operand =
  | Path_operand of op  (** relative sub-plan; values are the string-values of its tuples *)
  | Literal of int * string  (** [L 'v'] *)
  | Number_operand of float

(** {1 Construction helpers} *)

val fresh_id : unit -> int
(** Process-wide operator id supply (ids only need to be unique within a
    plan; a global counter keeps rewrites collision-free). *)

val mk : ?context:op -> ?predicates:pred list -> kind -> op

(** {1 Traversal} *)

val context_chain : op -> op list
(** Operators from this op down its context chain, root side first
    (paper: the {e context path}). *)

val leaf : op -> op
(** Last operator of the context chain. *)

val rebuild_chain : op list -> op option
(** Inverse of {!context_chain}: re-links a root-side-first operator list
    into a chain (each element keeps its kind/predicates, contexts are
    overwritten). [None] on an empty list. *)

val iter_ops : (op -> unit) -> op -> unit
(** Visit every operator: context chain and predicate sub-plans. *)

val subtree_ops : op -> op list

val map_literals : (string -> string) -> op -> op
(** Rewrite every string a query literal can land in: {!Literal}
    operands, {!Value_step} values and the literals inside
    {!Step_generic} / {!Generic} fallbacks.  Operator ids are kept, so
    cost annotations keyed by id still apply.  This is how a prepared
    plan is bound to new literal values ({!Engine.bind}). *)

val is_comparison : Xpath.Ast.binop -> bool
(** [=], [!=], [<], [<=], [>], [>=]: the operators a [β] or positional
    predicate may carry. *)

(** {1 Node descriptions} *)

type node_desc = {
  kinds : Mass.Record.kind list;  (** possible node kinds, ⊆ over-approximation *)
  name : string option;  (** [Some n] if every emitted node is named [n] *)
}

val desc_of : op -> node_desc
(** Description of the nodes an operator can emit (the operator is the
    chain top of its sub-plan): its node test, narrowed by [self::]
    steps and by predicates that need children or attributes. *)

(** {1 Printing (paper Figure 4 notation)} *)

val kind_to_string : op -> string
(** e.g. ["Φ3 parent::person"], ["R1"], ["β5 ="], ["L7 'Yung Flach'"]. *)

val binop_symbol : Xpath.Ast.binop -> string
(** Display form of a binary operator (["="], ["!="], ["div"], …). *)

val pp : Format.formatter -> op -> unit
(** Indented plan tree. *)

val to_string : op -> string

val equal_structure : op -> op -> bool
(** Structural equality ignoring operator ids. *)
