(** Static plan analysis (cardinality bounds + rewrite safety).

    An abstract interpretation over the physical plan tree.  For every
    operator it infers an upper bound on the {e result set} (the
    deduplicated stream) the operator emits, derived from the MASS
    counted indexes (COUNT, TC); [Some 0] is a proof of static
    emptiness.

    The bounds are sound for the counts they were derived from, not for
    every store: one write can falsify an earlier analysis.  That is why
    execution reads no analysis; {!Exec.run} checks stream order at run
    time.

    The analyzer also produces severity-ranked {!diagnostic}s (empty
    steps, dead predicates, un-eliminated reverse axes, malformed
    operators) and a per-plan {!signature} that the optimizer compares
    across a rewrite: a rule whose rewritten plan changes the signature
    is semantically suspect and is rejected regardless of cost. *)

type props = int option
(** An operator's result-set upper bound; [None] = no bound proven. *)

type severity = Info | Warning | Error

type diagnostic = {
  severity : severity;
  code : string;  (** stable slug, e.g. ["empty-step"], ["malformed"] *)
  op_id : int;
  op_label : string;  (** {!Plan.kind_to_string} of the operator *)
  message : string;
}

type t = {
  props : (int, props) Hashtbl.t;  (** operator id → result-set bound *)
  diagnostics : diagnostic list;  (** in plan order, structural first *)
  root_props : props;
}

val analyze :
  ?stats:Cost.statistics_source -> Mass.Store.t -> scope:Flex.t option -> Plan.op -> t
(** Bound the result set of every operator of [plan].  [scope] is the
    document key for per-document statistics (as in {!Cost.estimate});
    [stats] defaults to {!Cost.live_statistics}. *)

val analyze_with : Cost.statistics_source -> scope:Flex.t option -> Plan.op -> t

val statically_empty : t -> bool
(** The root's [card_max] is [Some 0]: the plan provably returns no
    tuples on the analyzed store (a diagnostic; the engine does not skip
    on it). *)

val props_of : t -> Plan.op -> props
(** The operator's bound; [None] also for an operator outside the
    analyzed plan. *)

val errors : t -> diagnostic list
(** [Error]-severity diagnostics only. *)

(** {1 Rewrite admission}

    A rewrite rule must preserve plan semantics, not just improve cost.
    The analyzer condenses the semantic content of a plan into a
    signature with three components: static emptiness, a description of
    the node population the plan can emit, and the fingerprints of all
    position-sensitive predicates together with the step that streams
    their candidates.  Legitimate rules keep all three stable (the node
    description may only narrow); an order-breaking rule — e.g. one
    that re-streams a positional predicate's candidates on a different
    axis — perturbs the fingerprint list and is rejected. *)

type node_desc = {
  kinds : Mass.Record.kind list;  (** possible node kinds, ⊆ over-approximation *)
  name : string option;  (** [Some n] if every emitted node is named [n] *)
}

type signature = {
  sig_empty : bool;
  sig_desc : node_desc;
  sig_positional : string list;  (** sorted fingerprints of position-sensitive predicates *)
}

val signature_of : t -> Plan.op -> signature

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
    can never hold a value.  Every analysis carries them as [Error]
    diagnostics, so the optimizer never admits a malformed rewrite. *)

val structural_diagnostics : Plan.op -> diagnostic list

exception Ill_formed of string
(** Raised by {!assert_well_formed} on a structural [Error]. *)

val assert_well_formed : Plan.op -> unit

(** {1 Rendering} *)

val severity_to_string : severity -> string
val props_to_string : props -> string
(** ["{card≤42}"] or ["{card unbounded}"]. *)

val diagnostic_to_string : diagnostic -> string

val pp_annotated : ?costed:Cost.costed -> t -> Format.formatter -> Plan.op -> unit
(** Plan tree annotated with each operator's bound and, when [costed] is
    given, the COUNT/IN/OUT estimates beside it. *)

val to_json : t -> Plan.op -> Profile.Json.t
(** Self-contained JSON: root and per-operator [card_max], diagnostics,
    the static-emptiness verdict. *)
