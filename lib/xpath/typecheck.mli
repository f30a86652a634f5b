(** Static checking of XPath 1.0 expressions against a path synopsis.

    Infers XPath 1.0 static types (node-set / string / number / boolean)
    with constant folding that mirrors {!Eval}'s §3.4 comparison
    semantics, and interprets location paths over a DataGuide-style
    structural summary to attach an exact (or estimated) cardinality to
    every step — zero being a sound, schema-level emptiness proof.

    The summary is supplied through the polymorphic {!schema} record so
    this module stays storage-agnostic; [Mass.Synopsis] provides the
    concrete instantiation over a loaded store. *)

type ty = Nodeset | Num | Str | Bool | Unknown

val ty_to_string : ty -> string

type severity = Info | Warning | Error

val severity_to_string : severity -> string

type diagnostic = {
  severity : severity;
  code : string;
      (** stable machine key: [unknown-tag], [empty-step],
          [empty-predicate], [const-predicate], [const-compare],
          [lossy-coercion], [nan-arith], [type-error],
          [unknown-function] *)
  span : Parser.span option;
  message : string;
}

(** {1 Schema abstraction} *)

type 'n schema = {
  sch_roots : 'n list;  (** document nodes (tag ["#document"]) *)
  sch_tag : 'n -> string;
      (** record tag as {!Mass.Store.tag_of} spells it: element name,
          ["@name"] for attributes, ["#text"], ["#comment"], ["#pi"],
          ["#document"] *)
  sch_count : 'n -> int;  (** exact number of records on this path *)
  sch_children : 'n -> 'n list;
  sch_parent : 'n -> 'n option;
}

(** Occurrence facts for one synopsis path inside an abstract tuple
    stream. [all] implies [exact] and [distinct]. *)
type occ = { bound : int; exact : bool; all : bool; distinct : bool }

type 'n reach = ('n * occ) list

val walk_step : 'n schema -> 'n reach -> Ast.axis -> Ast.node_test -> 'n reach
(** Push a stream abstraction through one location step. *)

val reach_bound : 'n reach -> int
val reach_exact : 'n reach -> bool
val roots_reach : 'n schema -> 'n reach

val chain_estimate : 'n schema -> (Ast.axis * Ast.node_test * bool) list -> int * bool
(** Raw output cardinality of a location-step chain evaluated with the
    document node as context.  Steps are root-side first; the [bool]
    per step records whether it carries predicates (they demote
    exactness but keep the bound).  Returns [(n, exact)]: when [exact]
    is true, [n] is the precise raw tuple count of the last step; when
    false it is an estimate — except [n = 0], which is always a sound
    emptiness proof. *)

(** {1 Checking} *)

type step_note = {
  sn_axis : Ast.axis;
  sn_test : Ast.node_test;
  sn_span : Parser.span option;
  sn_bound : int;
  sn_exact : bool;
  sn_empty : bool;
}

type report = {
  rep_ty : ty;
  rep_diagnostics : diagnostic list;  (** errors first *)
  rep_steps : step_note list;
      (** top-level location-path steps in source order (predicate
          sub-paths are excluded so the list stays 1:1 with the
          compiled step chain) *)
  rep_empty : bool;
      (** the whole expression is a provably empty node-set *)
}

val check :
  ?schema:'n schema -> ?spans:Parser.spans -> ?opaque_literals:bool -> Ast.expr -> report
(** Check one expression.  Without [schema], only type inference and
    constant-folding diagnostics run.  With [opaque_literals] (default
    [false]) every string literal is a string of unknown value, so no
    verdict depends on a literal's text: the report then holds for
    every binding of a parameterised query.  Relative paths are interpreted as
    if evaluated with the document node as context (the engine's
    default); callers gating on {!report.rep_empty} must ensure that is
    the actual evaluation context. *)

val diagnostic_to_string : diagnostic -> string

val pp_diagnostic : ?src:string -> Format.formatter -> diagnostic -> unit
(** With [src], renders a caret line under the diagnostic's span. *)
