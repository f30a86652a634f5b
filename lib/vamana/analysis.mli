(** Plan diagnostics and rewrite admission, read off the plan walk.

    {!Cost.estimate} is the one walk over a plan that reads statistics:
    it leaves, per operator, the Table I estimate beside a proven
    result-set bound ([card≤N]; [0] proves static emptiness) and the
    verdict of each predicate.  This module reads no statistics.  It
    builds, on demand, the severity-ranked {!diagnostic}s (structural
    errors, and the count-based empty-step, dead/redundant-predicate and
    reverse-axis warnings read off the walk's table) and a per-plan
    {!signature} that the optimizer compares across a rewrite: a rule
    whose rewritten plan changes the signature is semantically suspect
    and is rejected regardless of cost.

    The bounds are sound for the counts they were derived from, not for
    every store: one write can falsify an earlier walk.  That is why
    execution reads none of this; {!Exec.run} checks stream order at run
    time. *)

type diagnostic = {
  severity : Xpath.Typecheck.severity;
  code : string;  (** stable slug, e.g. ["empty-step"], ["malformed"] *)
  op_id : int;
  op_label : string;  (** {!Plan.kind_to_string} of the operator *)
  message : string;
}

val statically_empty : Cost.costed -> Plan.op -> bool
(** The walked plan's root bound is [0]: the plan provably returns no
    tuples on the counted store (a diagnostic; the engine does not skip
    on it). *)

val diagnostics : Cost.costed -> Plan.op -> diagnostic list
(** Structural diagnostics first, then the count-based lint in walk
    order, from the table of [plan]'s walk. *)

(** {1 Rewrite admission}

    A rewrite rule must preserve plan semantics, not just improve cost.
    The signature condenses the semantic content of a plan into three
    components: static emptiness, a description of the node population
    the plan can emit, and the fingerprints of all position-sensitive
    predicates together with the step that streams their candidates.
    Legitimate rules keep all three stable (the node description may
    only narrow); an order-breaking rule — e.g. one that re-streams a
    positional predicate's candidates on a different axis — perturbs the
    fingerprint list and is rejected. *)

type signature = {
  sig_empty : bool;  (** root bound = 0 *)
  sig_desc : Plan.node_desc;
  sig_positional : string list;  (** sorted fingerprints of position-sensitive predicates *)
}

val signature_of : Cost.costed -> Plan.op -> signature

val check_rewrite :
  before:signature -> after:signature -> after_errors:diagnostic list ->
  (unit, string) result
(** [Ok ()] iff the rewritten plan is admissible: no [Error]-severity
    diagnostics, equal static emptiness, node description narrowed or
    equal, positional fingerprints unchanged. *)

(** {1 Structural well-formedness}

    Checks that need no statistics: nested [R] operators, predicates on
    [R] (the executor ignores them), non-comparison [β] conditions (the
    executor raises on those), value steps sourced from node tests that
    can never hold a value.  Each is an [Error] diagnostic, so the
    optimizer never admits a malformed rewrite. *)

val structural_diagnostics : Plan.op -> diagnostic list

(** {1 Rendering} *)

val diagnostic_to_string : diagnostic -> string

val pp_annotated : Cost.costed -> Format.formatter -> Plan.op -> unit
(** Plan tree annotated with each operator's bound and Table I estimate
    (paper Figures 6 and 7). *)

val pp_bounds : Cost.costed -> Format.formatter -> Plan.op -> unit
(** The same tree with the bounds only, for output that shows the
    Table I estimates elsewhere (an execution profile). *)

val to_json : Cost.costed -> Plan.op -> diagnostic list -> Profile.Json.t
(** Self-contained JSON: root and per-operator [card_max], the given
    diagnostics (the plan's {!diagnostics}, built once by the caller),
    the static-emptiness verdict. *)
