(** Small-scope bounded soundness prover.

    The small-scope hypothesis: a buggy rewrite rule, property analyzer
    or cost model almost always fails on {e some} tiny instance — so
    exhaustively checking every XML document and every query plan within
    small bounds is a practical soundness proof for the bounded domain,
    and a far denser net than sampled differential testing.

    The prover enumerates all documents up to configurable bounds
    (element depth, fanout, tag alphabet, optional text values), loads
    each into an in-memory {!Mass.Store}, enumerates XPath location
    paths up to a bounded step count over all 13 axes with
    exist/value/position predicates, and checks three invariant families
    on every (document, plan) pair:

    - {b rule soundness}: every rule in {!Rewrite.all_rules}, applied at
      {e every} site where it fires ({!Rewrite.applications}), must
      produce a plan whose executed node set equals the original's, and
      the rewrite must pass {!Analysis.check_rewrite};
    - {b analysis soundness}: every [bound] the plan walk
      ({!Cost.estimate_with}) claims — a cardinality bound, [0] for
      static emptiness — is validated against the raw {!Exec} stream of
      the operator's sub-plan, and every exact
      {!Xpath.Typecheck} step bound against the executed chain and
      {!Engine.eval};
    - {b cost-model invariants}: {!Cost.estimate_with} never produces
      negative or NaN figures (bounds included), a synopsis [chain_out]
      count claimed
      exact equals the profiled actual raw tuple count, and no
      cost-admitted rewrite whose totals were claimed exact raises the
      actual executed total.

    Two more families sweep at their own committed bounds.  The
    {b binding} family covers parameterised plans
    ({!binding_bounds}): every query with a string literal is prepared
    ({!Engine.prepare} with slots) once per literal of a two-literal
    domain — the first text value and one no document contains — and
    each preparation is bound ({!Engine.bind}) to every literal; the
    bound plan must return the same node set as a fresh preparation of
    the instantiated text, and its footprint must subsume that
    preparation's (the bound plan's own, when the fresh preparation
    chose a different plan).  Binding across the TC = 0 class boundary
    is what exposes a literal-dependent verdict carried over from the
    representative.

    The {b interference} family sweeps (document, plan, {e update})
    triples at {!interference_bounds}:

    - {b interference}: apply each bounded store update (child insert
      over the tag alphabet, text- and attribute-carrying inserts,
      subtree delete, at every element position) to a fresh copy of the
      document and re-run the plan — whenever the result changes, the
      update's {!Mass.Store.write_delta} must intersect the plan's
      {!Footprint}.  A violation is exactly the case where
      footprint-based result-cache invalidation would serve a stale
      answer.  The copy's path synopsis is materialised before the
      update; afterwards it must pass {!Mass.Synopsis.verify} and keep
      its document root node (check [synopsis-delta]): the update
      carried it by its path-count delta, without a rescan.

    On failure the prover shrinks the (document, query) pair — dropping
    document subtrees, truncating plan steps, shrinking the tag
    alphabet — to a minimal counterexample and renders it as a
    replayable S-expression ([vamana prove --replay]).

    The prover is itself proved by mutation testing: {!mutants} is a
    library of deliberately unsound rules/analyzers/statistics sources,
    each of which {!prove} must catch and shrink. *)

type bounds = {
  depth : int;  (** maximum element nesting depth (root element = 1) *)
  fanout : int;  (** maximum children per element *)
  tags : int;  (** tag alphabet size, names [a], [b], ... *)
  texts : int;  (** text-value domain size, values [x], [y], ... (0 = no text, no attributes) *)
  max_nodes : int;  (** per-document node budget (elements + texts + attributes) *)
  steps : int;  (** maximum location-path step count *)
}

val default_bounds : bounds
(** The committed CI configuration: exhaustive and still fast (see
    EXPERIMENTS.md for the measured pair count / wall time). *)

val ci_random_bounds : bounds
(** Bounds of the randomized layer run in CI on top of the exhaustive
    sweep: deeper documents and longer plans than the exhaustive net. *)

val ci_random_cases : int
val ci_seed : int

val binding_bounds : bounds
(** Committed bounds of the (document, query shape, literal pair)
    binding sweep; {!prove} always runs the family at these bounds. *)

val interference_bounds : bounds
(** Committed bounds of the (document, plan, update) interference
    sweep.  The triple domain multiplies documents × plans × updates,
    so it is tighter than the pair sweep — single-step queries still
    cover all 13 axes and the whole predicate menu.  {!prove} always
    runs this family at these bounds, regardless of the pair bounds it
    was given. *)

(** {1 Verdicts} *)

type family = Rule_soundness | Analysis_soundness | Cost_invariants | Interference | Binding

val family_to_string : family -> string

val family_of_string : string -> family option
(** Inverse of {!family_to_string}; [None] for unknown slugs. *)

type counterexample = {
  cx_family : family;
  cx_check : string;  (** stable slug, e.g. ["rule-node-set"], ["analysis-card"] *)
  cx_rule : string option;  (** offending rule, for rule-soundness findings *)
  cx_doc : string;  (** minimal document, XML *)
  cx_query : string;  (** minimal query, XPath *)
  cx_detail : string;  (** expected vs observed *)
  cx_shrink_steps : int;  (** accepted shrink iterations (0 = already minimal or unshrunk) *)
  cx_doc_nodes : int;  (** node count of [cx_doc] *)
  cx_query_steps : int;  (** step count of [cx_query] *)
}

type report = {
  rp_subject : string;
  rp_bounds : bounds;
  rp_docs : int;  (** documents enumerated *)
  rp_plans : int;  (** queries enumerated *)
  rp_pairs : int;  (** (document, plan) pairs checked, exhaustive + random *)
  rp_random : int;  (** randomized pairs among [rp_pairs] *)
  rp_seed : int option;  (** seed of the randomized layer, for replay *)
  rp_sites : int;  (** rule application sites exercised *)
  rp_updates : int;  (** store updates applied by the interference sweep *)
  rp_triples : int;  (** (document, plan form, update) interference triples checked *)
  rp_bindings : int;  (** (document, shape, representative, literal) bindings checked *)
  rp_counterexamples : counterexample list;
  rp_wall : float;  (** seconds *)
}

(** {1 Subjects and mutants} *)

type subject
(** What is being verified: a rule library, the plan walk (its bounds
    can be mutated), a statistics source and a footprint analysis.  {!real_subject} wires in the
    production implementations; mutant subjects replace one piece with
    a deliberately unsound variant. *)

val real_subject : subject
val subject_name : subject -> string

val subject_expected_check : subject -> string option
(** For a mutant: the check slug its counterexamples must carry. *)

val subject_expected_rule : subject -> string option
(** For a rule mutant: the rule name its counterexamples must carry. *)

val mutants : subject list
(** The seeded-unsoundness catalogue (see DESIGN.md §10): every entry
    must be caught and shrunk by {!prove} at {!default_bounds}. *)

val find_mutant : string -> subject option

(** {1 Enumeration}

    Exposed so tests can assert the committed configuration's coverage
    (pair counts) without re-deriving the combinatorics. *)

val enum_documents : bounds -> Xml.Tree.spec list
(** Every document within bounds: one root element (tag [a]), nesting
    depth ≤ [depth], ≤ [fanout] children per element, ≤ [max_nodes]
    nodes, tags/texts from the bounded alphabets, no adjacent text
    nodes (they would merge on reparse and break replay). *)

val enum_queries : bounds -> Xpath.Ast.path list
(** Every absolute location path within bounds: 1..[steps] steps, the
    final step over all 13 axes with the predicate menu, non-final
    steps over the downward axes. *)

(** {1 Proving} *)

val prove :
  ?subject:subject ->
  ?random:int ->
  ?random_bounds:bounds ->
  ?seed:int ->
  ?max_counterexamples:int ->
  bounds ->
  report
(** Exhaustively check every (document, plan) pair within [bounds],
    plus [random] randomized pairs drawn from [random_bounds] (default
    {!ci_random_bounds}) with the given [seed] (default {!ci_seed}),
    then sweep the binding family over every (document, shape) pair
    within {!binding_bounds} and the interference family over every
    (document, plan, update) triple within {!interference_bounds}.  Stops collecting
    after [max_counterexamples] (default 5) distinct failures; each
    collected counterexample is shrunk to a local minimum.  The prover
    builds its own in-memory store; it never touches caller state. *)

val check_pair :
  ?subject:subject -> doc:string -> query:string -> unit -> counterexample list
(** Replay one (document XML, query) pair through every check — the
    engine behind [vamana prove --replay].  Counterexamples are
    reported unshrunk. *)

val shrink_pair :
  ?subject:subject -> doc:string -> query:string -> unit -> counterexample option
(** Like {!check_pair}, but shrink the failure to a local minimum —
    the entry point external harnesses (the differential test suite)
    use to turn a large failing (document, query) pair into a minimal
    reportable one.  [None] when every check passes. *)

(** {1 Rendering and replay} *)

val counterexample_to_sexp : counterexample -> string
(** Replayable S-expression carrying the document, query, subject and
    verdict. *)

val replay_of_sexp : string -> (string * string * string option, string) result
(** Parse a {!counterexample_to_sexp} rendering (or a hand-written
    [(replay (doc "<xml>") (query "/p") (mutant name)?)] form) into
    (document XML, query, mutant name). *)

val report_to_json : report -> Profile.Json.t
(** Exact-float JSON via {!Profile.Json} — the same writer [vamana
    lint --json] uses. *)

val report_to_string : report -> string
(** Human-readable summary, counterexamples included. *)
