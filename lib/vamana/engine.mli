(** VAMANA engine facade: compile → (optionally) optimize → execute.

    Results are FLEX keys in document order without duplicates, plus the
    plans, cost annotations, optimizer trace, timings and buffer-pool I/O
    deltas — everything the benchmark harness reports. *)

type attribution = {
  attr_qid : int;  (** the query id every event emitted below carried *)
  attr_io : Storage.Stats.t;
      (** buffer-pool I/O over the attributed window — for {!query} the
          whole prepare+execute window (optimizer probes included), for
          a bare {!execute_prepared} the execute window only *)
  attr_wal_bytes : int;  (** WAL bytes appended during the window (0 on [Mem]) *)
  attr_fsyncs : int;  (** disk fsyncs during the window (0 on [Mem]) *)
}
(** Per-query resource attribution.  Execution runs inside an
    {!Obs.with_context} scope carrying [("qid", Int attr_qid)], so bus
    events fired by any layer during this query (evictions,
    [wal_append], [wal_fsync], ...) carry the same id — the deltas here
    and the event stream tell one story. *)

type result = {
  keys : Flex.t list;  (** document order, duplicate-free *)
  default_plan : Plan.op;
  executed_plan : Plan.op;  (** = [default_plan] when optimization is off *)
  optimizer : Optimizer.outcome option;
  compile_time : float;  (** seconds *)
  optimize_time : float;
  execute_time : float;
  io : Storage.Stats.t;  (** I/O performed by execution only *)
  spans : Profile.span list;
      (** trace spans: [parse], [compile], one [optimize] span per
          optimizer iteration (with accepted/considered/rejected rule
          counts), and [execute] — always collected, they cost a handful
          of allocations per query *)
  profile : Profile.report option;
      (** per-operator actuals joined with estimates; [Some] only when
          the query ran with [~profile:true] *)
  attribution : attribution;  (** this query's attributed resource use *)
}

type prepared = {
  source : string;  (** the query text the plans came from *)
  slots : string array;
      (** the value bound to each literal slot, in slot order; [[||]]
          for a query prepared without slots *)
  default_plans : Plan.op list;  (** one per union branch *)
  executed_plans : Plan.op list;  (** = [default_plans] when optimization is off *)
  outcomes : Optimizer.outcome list option;
      (** the optimizer run that chose the plans — for a {!bind}ed plan,
          the run made for the slots it was prepared with *)
  tables : Cost.costed list;
      (** one {!Cost.estimate} walk per executed plan, for [slots] under
          [prep_scope], from the counts the store had then: Table I
          estimates, bounds and predicate verdicts — a report for
          diagnostics ({!Analysis}); {!execute_prepared} does not read
          it *)
  prep_report : Xpath.Typecheck.report;
      (** source-level static check against the path synopsis: XPath 1.0
          type/coercion diagnostics with source spans, per-step schema
          cardinalities, and the schema-emptiness verdict.  Derived at
          [prep_epoch]; {!execute_prepared} only acts on the emptiness
          proof while the store still reports that epoch and the
          execution context is the checked document node. *)
  prep_footprint : Footprint.t;
      (** conservative read footprint over all union branches — what the
          result-cache intersects against store write deltas to decide
          whether an update can invalidate a cached result.  Purely
          structural (no statistics), so it never goes stale; its value
          atoms are the bound literals'. *)
  prep_scope : Flex.t option;
  prep_epoch : int;  (** {!Mass.Store.epoch} at preparation time *)
  prep_compile_time : float;  (** seconds *)
  prep_optimize_time : float;
  prep_spans : Profile.span list;  (** parse/compile/optimize spans *)
}
(** A compiled (and optionally optimized) query, detached from any
    execution context — the unit a plan cache stores.  Plans are immutable
    and scope-dependent only through the statistics the optimizer saw, so
    a [prepared] value stays {e semantically} valid across store updates
    (the optimizer guarantees any plan it emits computes the same result
    set); only its cost estimates and its [tables] can go stale.  The
    one statistics-derived verdict execution acts on is the typecheck's
    emptiness proof, and only at [prep_epoch]. *)

val prepare :
  ?optimize:bool ->
  ?slots:string array ->
  Mass.Store.t ->
  scope:Flex.t option ->
  string ->
  (prepared, string) Result.t
(** Parse, statically check, compile and (by default) optimize a location
    path — or a union of location paths — without executing it.  [scope]
    bounds the statistics the optimizer consults ([None] = whole store);
    {!scope_of_context} derives it from an execution context.

    The static check ({!Xpath.Typecheck}) runs against the store's path
    synopsis before plan construction; its report lands in
    [prep_report].  The optimizer consults the synopsis too
    ({!Cost.synopsis_statistics}), replacing per-step Table I products
    with exact multi-step chain counts where the walk stays exact.  A
    schema-empty query skips the optimizer search entirely.

    [slots] (default none) declares the text's string literals to be
    parameters with these values, in slot order: the plans are costed
    and optimized for these values, the static check treats every
    string literal as a string of unknown value (so [prep_report]
    holds for any binding), and {!bind} can later substitute other
    values. *)

val bind : Mass.Store.t -> prepared -> source:string -> string array -> prepared
(** [bind store p ~source values] is [p] with each slot's value
    replaced by [values.(i)] wherever it landed in the plans ({!Plan}
    [Literal] operands, [Value_step] values, generic fallbacks), and
    [source] as its text.  The plan choice, the optimizer outcomes and
    the typecheck report (shape-level: see [slots] in {!prepare}) are
    kept; what depends on the literal is re-derived for the binding:
    the tables (a TC = 0 emptiness proof holds for one value only) and
    the read footprint (its value atoms).  A profiled execution of a
    bound plan costs it afresh for its own literals.  Binding [p]'s own
    values only swaps [source].

    @raise Invalid_argument when [values] does not repeat values
    exactly where [p.slots] does (see {!slot_classes}). *)

val slot_classes : Mass.Store.t -> scope:Flex.t option -> string array -> int array
(** The selectivity class of each slot value under [scope]: [0] when
    the value's exact count TC ({!Mass.Store.text_value_count}, one
    counted B+-tree probe) is 0, otherwise [1 + ⌊log2 TC⌋]; a value
    repeating an earlier slot [j]'s value gets [-1 - j] instead.  Two
    bindings with equal class vectors may share one prepared plan. *)

val execute_prepared : ?profile:bool -> Mass.Store.t -> context:Flex.t -> prepared -> result
(** Run a prepared query rooted at [context].  The returned
    [compile_time]/[optimize_time] are the preparation times recorded in
    the [prepared] value (zero cost was paid on this call).  [profile]
    (default [false]) instruments every operator and fills the result's
    [profile] report; for a union, the report tree covers the first
    branch.  The unprofiled path allocates no profiling structures.

    Execution reads no {!Analysis} verdict: every plan runs through
    {!Exec.run}.  The one skip is the typecheck's synopsis emptiness
    proof ([prep_report]), taken while the store still reports
    [prep_epoch] and [context] is the checked document node: the query
    returns [] without instantiating the executor — zero page reads —
    and emits an [Obs] [static_empty_skip] event. *)

val scope_of_context : Flex.t -> Flex.t option
(** Statistics scope of an execution context: the context's document root
    component, or [None] for the store root. *)

val disk_window : Mass.Store.t -> Storage.Disk.io option -> int * int
(** [disk_window store before] is the [(wal_bytes, fsyncs)] the store's
    disk recorded since the [before] snapshot ({!Storage.Disk.copy_io}
    of {!Mass.Store.disk_io}); [(0, 0)] for in-memory stores. *)

val query :
  ?optimize:bool ->
  ?profile:bool ->
  Mass.Store.t ->
  context:Flex.t ->
  string ->
  (result, string) Result.t
(** Run an XPath location path — or a union of location paths — rooted at
    [context] (normally a document key from {!Mass.Store.documents}).
    [optimize] defaults to [true] (the paper's VQP-OPT; pass [false] for
    VQP); [profile] (default [false]) collects the per-operator execution
    profile.  Union branches compile and optimize independently; for a
    union, the plan/optimizer fields report the first branch.  Equivalent
    to {!prepare} followed by {!execute_prepared}. *)

val query_doc :
  ?optimize:bool ->
  ?profile:bool ->
  Mass.Store.t ->
  Mass.Store.doc ->
  string ->
  (result, string) Result.t

val query_store :
  ?optimize:bool ->
  Mass.Store.t ->
  string ->
  ((Mass.Store.doc * result) list, string) Result.t
(** Run the query against every document in the store (the paper's
    whole-database scope); per-document plans are optimized with
    per-document statistics.  On failure the error names the document
    whose query failed and how many documents had already succeeded. *)

val eval :
  Mass.Store.t -> context:Flex.t -> string -> (Flex.t Xpath.Eval.value, string) Result.t
(** Evaluate an arbitrary XPath expression (not necessarily a path)
    through the generic evaluator — e.g. [count(//person)]. *)

val materialize : Mass.Store.t -> Flex.t list -> Mass.Record.t list
(** Fetch the records for a result (data access, charged to the pool). *)

val explain : ?optimize:bool -> Mass.Store.t -> Mass.Store.doc -> string -> (string, string) Result.t
(** Cost-annotated plan rendering (paper Figures 6–9 style), including
    the optimizer trace, the per-operator cardinality bounds and the
    analyzer's diagnostics.  A union of paths is explained branch by
    branch, each under a [Branch i:] header. *)

val explain_analyze :
  ?optimize:bool ->
  ?json:bool ->
  Mass.Store.t ->
  Mass.Store.doc ->
  string ->
  (string, string) Result.t
(** EXPLAIN ANALYZE: execute the query with profiling on and render the
    annotated plan tree — per-operator estimated vs actual cardinality,
    q-error, exclusive timings, page I/O — plus the
    parse/compile/optimize/execute trace spans, as text or (with [json])
    a single JSON document. *)
