(** The plan walk: cost estimation (paper §VI-B and Table I) and proven
    cardinality bounds, in one pass.

    Statistics are taken directly from the MASS indexes — exact counted
    B+-tree probes, no histograms — so estimates stay accurate under
    updates.  This walk is the only code that reads a
    {!statistics_source} while walking a plan.  For each operator it
    derives two numbers.

    The Table I estimate, which the optimizer minimises:

    - [COUNT]: nodes satisfying the node test (name-index count, scoped
      to the queried document);
    - [TC]: occurrences of a literal value (value-index count);
    - [IN]: tuples the operator will receive — [COUNT] for a context-path
      leaf, the context child's [OUT] for inner operators, the candidate
      count for predicate-path leaves;
    - [OUT]: the Table I upper bound — downward axes are bounded by
      [COUNT], upward/lateral axes by [IN], [self] by the table's
      max-like rule; a value-comparable binary predicate caps [OUT] at
      [min IN TC] (the paper's case 5).  A synopsis source may refine it;
    - selectivity δ = IN/OUT, the optimizer's ordering key.

    The proven [bound] ([card≤N]): an upper bound on the operator's
    deduplicated result set, built from [COUNT] and [TC] alone (never
    from the synopsis refinement), so it is the same under every source
    whose counts agree.  [bound = 0] is a proof of static emptiness on
    the counted store; one write can falsify it, so execution never
    reads it.  Alongside it the walk records the three-valued verdict of
    each predicate, from which {!Analysis} builds the lint diagnostics
    without reading statistics again.

    The paper's Figure 7 takes the predicate-path text-step [COUNT] from
    the candidate element count; we use the document-wide node-test count,
    which preserves every ordering the heuristics rely on. *)

type sat = Unsat | Valid | Unknown
(** A predicate's satisfiability over any candidate: never holds, always
    holds, or depends on the candidate. *)

type stats = {
  count : int;
  tc : int option;  (** literal operators only *)
  input : int;
  output : int;
  selectivity : float;  (** IN/OUT; [infinity] when OUT = 0 *)
  bound : int;  (** proven result-set upper bound, from COUNT and TC only *)
  verdicts : sat list;  (** one per plan predicate of the operator, in order *)
}

type costed = (int, stats) Hashtbl.t
(** Operator id → statistics. *)

type statistics_source = {
  node_count : scope:Flex.t option -> principal:Mass.Record.kind -> Xpath.Ast.node_test -> int;
  value_count : scope:Flex.t option -> string -> int;
  chain_out :
    (scope:Flex.t option ->
     (Xpath.Ast.axis * Xpath.Ast.node_test * bool) list ->
     (int * bool) option)
    option;
      (** optional path-synopsis refinement for a whole step chain
          (leaf-side first, each step tagged with whether it carries
          predicates): [Some (n, true)] is the exact raw tuple count of
          the chain's last step, [Some (n, false)] an estimate that only
          tightens the Table I bound, [None] makes no claim.  The
          refinement assumes the document node as evaluation context and
          is consulted for main-chain operators only. *)
}
(** Where the estimator reads COUNT and TC from.  The engine uses
    {!live_statistics} (exact, index-backed, always current); alternative
    sources support experiments — e.g. {!Frozen_stats} models the stale
    data dictionaries the paper argues against. *)

val live_statistics : Mass.Store.t -> statistics_source
(** Exact index-backed COUNT/TC; no synopsis refinement, so estimates
    are the pure Table I model. *)

val synopsis_statistics : Mass.Store.t -> statistics_source
(** {!live_statistics} plus {!Mass.Synopsis} chain refinement: exact
    multi-step IN/OUT where the synopsis walk stays exact, tightened
    bounds elsewhere.  The synopsis is the store's maintained one
    ({!Mass.Synopsis.for_store}): built by one scan on first use per
    store handle, then kept exact by each mutation's path-count delta, so
    an estimate after a write costs no rescan. *)

val estimate :
  ?stats:statistics_source -> Mass.Store.t -> scope:Flex.t option -> Plan.op -> costed
(** Cost a plan (pass the document key as [scope] for per-document
    statistics, [None] for store-wide).  [stats] defaults to
    {!live_statistics}. *)

val estimate_with : statistics_source -> scope:Flex.t option -> Plan.op -> costed

val total_output : costed -> Plan.op -> int
(** Sum of [OUT] over all operators — the plan-cost measure the optimizer
    uses to accept or reject a transformation (monotone under the paper's
    improvement guarantee). *)

val ordered_by_selectivity : costed -> Plan.op -> (Plan.op * float) list
(** The paper's ordered list [L(P)]: step/value operators sorted by
    selectivity, most selective first, δ scaled to [0, 1]. *)
