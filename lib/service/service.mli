(** Long-lived query service over {!Vamana.Engine}: the layer between
    "one query" and "millions of queries".

    A service owns a {!Mass.Store.t} and adds:

    - a {b plan cache} — an LRU of {!Vamana.Engine.prepared} values keyed
      by query {e shape} ({!shape}: normalized text with every string
      literal lifted into a numbered slot) + statistics scope + optimize
      flag + the slots' selectivity classes
      ({!Vamana.Engine.slot_classes}), so a query that differs from a
      cached one only in a literal of the same class skips parse,
      typecheck, compile and optimize: the cached plan is bound to the
      new literals ({!Vamana.Engine.bind});
    - a {b result cache} — an optional LRU of full results keyed by
      shape + slot values + execution context.  Each entry carries the invalidation
      token it was computed under (the scope document's
      {!Mass.Store.doc_epoch} for scoped queries, the store-wide
      {!Mass.Store.epoch} for unscoped ones) and the plan's
      {!Vamana.Footprint} read footprint.  Under the default
      [`Footprint] invalidation a token mismatch triggers an
      interference check: the entry survives — and its token refreshes —
      when every {!Mass.Store.write_delta} recorded since is provably
      disjoint from the footprint; it is evicted when a delta
      intersects, when the footprint is ⊤, or when the delta ring no
      longer covers the entry's window.  [`Epoch] invalidation evicts on
      any token mismatch (the pre-footprint behaviour).  Either way a
      mutation visible to the query between two identical requests
      always yields fresh results;
    - a {b metrics registry} — monotonic counters (queries, cache
      hits/misses/evictions, compiles, errors) and latency histograms for
      the compile / optimize / execute phases and the end-to-end query
      path, dumpable as text or JSON together with the store's
      buffer-pool I/O counters.

    Query normalization drops whitespace outside string literals except
    between two name/number characters, where one space survives (token
    separation: ["a div b"] must not become ["adivb"]); quoted text is
    preserved byte-for-byte.  So ["//person / address"] and
    ["//person/address"] share a cache entry while ["//a[.='x  y']"]
    keeps its literal's spacing.  Number literals stay in the shape:
    [[1]], [[last()]] and [> 300] select different rules and positional
    semantics, so they are part of what a plan is.

    Plans survive store mutations: the optimizer only ever emits
    semantically equivalent plans, so a cached plan stays {e correct}
    across updates — only its cost estimates age.  Results do not
    survive mutations; the epoch check guarantees that. *)

type t

type cache = [ `Hit  (** served from cache *)
             | `Miss  (** not present; computed and inserted *)
             | `Stale  (** present but from an older store epoch; recomputed *)
             | `Bypass  (** cache disabled *) ]

type invalidation =
  [ `Epoch  (** evict on any invalidation-token mismatch *)
  | `Footprint
    (** on a token mismatch, evict only when a write delta since the
        entry's token intersects the plan's read footprint (or the
        footprint is ⊤, or delta coverage was lost) *) ]

val create :
  ?plan_cache_capacity:int ->
  ?result_cache_capacity:int ->
  ?optimize:bool ->
  ?invalidation:invalidation ->
  ?slow_threshold:float ->
  ?flight:Storage.Flight.t ->
  ?sample_every:int ->
  ?drift_threshold:float ->
  Mass.Store.t ->
  t
(** [plan_cache_capacity] defaults to 128; [result_cache_capacity]
    defaults to 512, and [0] disables result caching entirely;
    [optimize] (default [true]) selects VQP-OPT vs VQP plans for every
    query the service prepares.  [slow_threshold] (seconds, default
    0.1; [infinity] disables) feeds the always-on slow-query log, a
    bounded ring of the {!record}s of the last 128 slow queries.  A slow
    run that carried no instrumentation elects its plan's next
    execution for profiling ({!Health.sample_next}), so a plan that
    stays slow logs an operator tree one run later.  [invalidation] (default
    [`Footprint]) selects the result-cache invalidation protocol; the
    [cache_invalidations_footprint]/[epoch]/[top] counters attribute
    every eviction to its reason and [result_cache_spared] counts the
    entries an interference check saved.  [flight] attaches a
    {!Storage.Flight} recorder: every {!query} writes a Begin frame
    before it runs and an End frame converted from its {!record} (the
    caller keeps ownership and closes it).

    [sample_every] (default {!Health.default_sample_every}) turns on the
    always-on plan-health sampler: every Nth real execution of each
    cached plan runs with profiling enabled and feeds the {!Health}
    drift detector ([0] disables sampling); [drift_threshold] (default
    {!Health.default_drift_threshold}) is the EWMA drift score above
    which a plan is marked stale and transparently re-prepared on its
    next request (an {e adaptive replan} — the outcome's [plan_cache]
    reads [`Stale], the [adaptive_replans] counter is bumped and a
    [health/adaptive_replan] event fires). *)

val store : t -> Mass.Store.t

val invalidation : t -> invalidation
(** The result-cache invalidation protocol this service runs. *)

val metrics : t -> Metrics.t

val health : t -> Health.t
(** The plan-health table: per-plan sampled q-error reservoirs, EWMA
    drift scores and replan counts (see {!Health}). *)

val health_of : t -> context:Flex.t -> string -> Health.record option
(** The health record of the plan a query text is served by under the
    store's current statistics: its shape's record for the classes its
    literals fall in now.  [None] before that plan's first execution —
    in particular after a write moved a literal into another class,
    which prepares a fresh plan instead of replanning the old one. *)

val default_slow_threshold : float
(** 0.1 s. *)

type outcome = {
  result : Vamana.Engine.result;
  plan_cache : cache;
      (** never [`Bypass]; [`Stale] marks an adaptive replan — the
          cached plan had drifted past the threshold and was re-prepared
          against fresh statistics for this request *)
  result_cache : cache;
  total_time : float;  (** end-to-end seconds inside the service *)
  attribution : Vamana.Engine.attribution;
      (** this call's attributed resource use over the whole service
          window (prepare + execute + cache bookkeeping) — near-zero on
          a result-cache hit, unlike the cached [result]'s own
          [attribution], which reports the populating run *)
}

val query : ?profile:bool -> t -> context:Flex.t -> string -> (outcome, string) Result.t
(** Serve one query rooted at [context].  On a result-cache hit the
    returned {!Vamana.Engine.result} is the cached value (its phase times
    are the times of the run that populated the cache; [total_time] is
    this call's).  Errors are not cached.  With [profile] the result
    cache is bypassed on the read side so the query really executes and
    the result carries a fresh {!Vamana.Profile.report}; the
    [profiled_queries] counter tracks these. *)

val query_doc : ?profile:bool -> t -> Mass.Store.doc -> string -> (outcome, string) Result.t

val normalize : string -> string
(** The whitespace normalization under {!shape} (exposed for tests):
    outside single-/double-quoted literals, whitespace is dropped except
    for a single separating space between two name/number characters. *)

val shape : string -> string * string array
(** The plan-cache shape of a query text: {!normalize}, with each
    complete string literal replaced by the slot marker [$1], [$2], …
    in source order, paired with the literals' text (quotes stripped,
    bytes unchanged).  ["//person[@id='person7']/name"] has shape
    ["//person[@id=$1]/name"] and slots [[|"person7"|]].  Not lifted: a
    [processing-instruction('t')] target (a node-test name) and an
    unterminated literal (kept as written, so the query fails with the
    parser's own error).  A text with a [$] outside literals is not
    lifted at all ([(normalize src, [||])]).  [vamana health] and
    [vamana report] show queries by this shape. *)

(** {1 Per-query records} *)

(** What one {!query} call did, built once when the call finishes.
    Every observability surface reads this value: the slow-query log
    keeps records, the flight recorder's End frame is converted from
    it, and the [service/query], [service/slow_query] and
    [service/query_error] bus events carry one attribute set built
    from it (query, epoch, total_ms, plan_cache, result_cache, results,
    pages_read, wal_bytes, fsyncs, sampled, profiled, drift, plus
    [error] on a failed call; the qid comes from the emission
    context). *)
type record = {
  r_qid : int;  (** query id (also the [qid] of every bus event the call emitted) *)
  r_source : string;  (** query text as submitted *)
  r_epoch : int;  (** store epoch when the call finished *)
  r_at : float;  (** wall-clock Unix seconds when the call finished *)
  r_error : string option;  (** [None] when the query was answered *)
  r_plan_cache : cache;
  r_result_cache : cache;
  r_total_time : float;  (** end-to-end seconds inside the service *)
  r_results : int;  (** result count ([0] on error) *)
  r_attribution : Vamana.Engine.attribution;
  r_sampled : bool;  (** the health sampler profiled this execution *)
  r_drift : float;
      (** the plan's EWMA cost-drift score after this call; [0.] when
          nothing executed (result-cache hit, error) — a slow query that
          is {e also} drifting is the replan candidate to look at first *)
  r_profile : Vamana.Profile.report option;
      (** the operator tree of this call's own execution, when it was
          profiled (sampled or requested); [None] on result-cache hits *)
}

val slow_queries : t -> record list
(** Records of answered calls with [r_total_time >= slow_threshold],
    oldest first, at most the last 128; each also bumps the
    [slow_queries] counter and emits a [service/slow_query] event on the
    {!Obs} bus. *)

val plan_cache_length : t -> int
val result_cache_length : t -> int

val flush : t -> unit
(** Drop both caches (metrics are kept; bumps the [flushes] counter). *)

val snapshot_text : t -> string
(** Metrics snapshot including the store's aggregate page-I/O counters. *)

val snapshot_json : t -> string
