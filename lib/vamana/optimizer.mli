(** Cost-driven heuristic optimizer (paper §VI).

    Iterates the paper's three phases — clean-up, cost gathering,
    rewriting — until no transformation is admitted.  Each iteration costs
    the plan from live index statistics, orders operators by selectivity,
    and tries the transformation library on the most selective operator
    first.  A transformation is admitted only if the re-estimated plan
    cost (total tuple output) does not increase, which yields the paper's
    guarantee that the optimized plan is never slower than the default
    plan. *)

type trace_entry = {
  rule : string;
  target : string;  (** display form of the operator rewritten *)
  cost_before : int;
  cost_after : int;
}

type iteration_stat = {
  duration : float;  (** seconds spent costing + searching this iteration *)
  considered : int;  (** rewrites that produced a candidate plan *)
  rejected : int;  (** candidates whose re-estimated cost increased *)
  property_rejected : int;
      (** cost-admissible candidates rejected because
          {!Analysis.check_rewrite} found a semantic-property change *)
  accepted : string option;  (** admitted rule, [None] on the fixpoint iteration *)
}

type outcome = {
  plan : Plan.op;
  iterations : int;
  trace : trace_entry list;
  iteration_stats : iteration_stat list;
      (** one entry per search iteration, including the final fixpoint
          pass that admitted nothing — the raw material for per-iteration
          trace spans *)
  cost : Cost.costed;  (** final plan's annotations *)
}

val optimize :
  ?rules:Rewrite.rule list ->
  ?stats:Cost.statistics_source ->
  Mass.Store.t ->
  scope:Flex.t option ->
  Plan.op ->
  outcome
(** [rules] defaults to the full transformation library
    ({!Rewrite.cost_rules}); restricting it supports ablation studies.
    [stats] defaults to live index-backed statistics; a frozen source
    ({!Frozen_stats}) reproduces stale-dictionary behaviour.

    Every cost-admissible candidate is additionally vetted by
    {!Analysis.check_rewrite} against the current plan's semantic
    signature; a violating candidate is skipped, counted in
    [property_rejected] and reported as an [Obs]
    [rule_property_violation] event. *)

val max_iterations : int
(** Safety bound on optimization iterations (the rewrite system
    terminates structurally; this is belt-and-braces). *)
