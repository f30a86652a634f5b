(** Plan-health monitoring: always-on sampled profiling, cost-model
    drift detection, and the adaptive re-optimization state machine.

    The service keeps one {!record} per plan-cache key — one per query
    shape and selectivity class, not per literal (the records outlive
    cache evictions — health is about the {e query}, not the cached
    artifact).  Every execution of a cached plan passes through
    {!note_execution}, an allocation-free countdown that elects every
    Nth execution for profiling.  Sampled runs feed {!observe}: the
    per-operator actuals from the {!Vamana.Profile.report} are compared
    against the plan's compile-time {!Vamana.Cost.costed} estimates
    (the report's q-errors) and against a fresh estimate under the
    current synopsis statistics (the [estimate_q] the service passes
    in), and folded into an EWMA {e drift score}

    {[ drift <- (1 - alpha) * drift + alpha * log2 (max 1 q) ]}

    where [q] is the worst of the sample's per-operator q-error and the
    stale-vs-fresh estimate ratio.  A drift score of 1.0 therefore
    means the cost model is off by a {e sustained} factor of two.  When
    the score crosses the configured threshold the record is marked
    stale and a [health/plan_drift] event names the offending operator;
    the service treats the next plan-cache hit for a stale record as a
    miss, re-prepares against fresh statistics, and calls
    {!note_replan}, which resets the score, counts the replan, emits
    [health/adaptive_replan], and schedules an immediate sample so the
    recovery is verified by the very next execution. *)

type t

type sample = {
  s_at : float;  (** wall-clock Unix seconds at the sampled run *)
  s_epoch : int;  (** store mutation epoch of the sampled run *)
  s_latency : float;  (** execute seconds *)
  s_results : int;
  s_root_q : float;  (** plan-cardinality q-error at the root *)
  s_max_q : float;  (** worst per-operator q-error *)
  s_estimate_q : float;
      (** compile-time vs current-statistics whole-plan estimate ratio *)
  s_worst_op : string;  (** label of the worst-q-error operator *)
  s_pages : int;  (** attributed logical page reads *)
  s_drift : float;  (** EWMA drift score {e after} this sample *)
}

type record = {
  hr_query : string;
      (** the [query] label given to {!record}: for the service, the
          shape with its slot classes, e.g.
          [//person[@id=$1]/name {$1:tc=1}] *)
  hr_scope : string;  (** rendered statistics scope ("" = store-wide) *)
  hr_optimized : bool;
  mutable hr_executions : int;  (** real executions (result-cache hits excluded) *)
  mutable hr_sampled : int;
  mutable hr_countdown : int;
  mutable hr_drift : float;  (** current EWMA drift score *)
  mutable hr_stale : bool;  (** drift crossed the threshold; replan pending *)
  mutable hr_replans : int;
  mutable hr_cooldown : int;
      (** samples left before the record may go stale again — set to
          [min 64 (2^replans)] by {!note_replan}, so a plan whose replan
          did not cure the drift (an estimation error no statistics
          refresh can fix) is re-planned with exponentially decreasing
          frequency instead of on every sample *)
  mutable hr_last_epoch : int;  (** epoch of the last sample; [-1] before any *)
  mutable hr_last_at : float;
  hr_samples : sample option array;  (** bounded reservoir, ring-indexed *)
  mutable hr_next : int;
}

val default_sample_every : int
(** 16: one profiled run per 16 executions of each plan. *)

val default_drift_threshold : float
(** 1.0 — a sustained 2x estimate-vs-actual error. *)

val capacity : int
(** 512: the most records a table keeps; creating one more drops the
    least recently used. *)

val create : ?sample_every:int -> ?drift_threshold:float -> unit -> t
(** [sample_every <= 0] disables sampling entirely (executions are still
    counted).  The EWMA [alpha] is 0.5 and each record keeps its last 32
    samples. *)

val record : t -> key:string -> query:string -> scope:string -> optimized:bool -> record
(** Find or create the health record for a plan key (the service renders
    its plan-cache key — query shape, scope, optimize flag, slot classes
    — to [key], and the shape with its classes to [query]).  Creating a
    record beyond {!capacity} evicts the least recently used one. *)

val find : t -> string -> record option
(** The record for a plan key, if one exists (marks it recently used). *)

val records : t -> record list
(** All records, sorted by query text. *)

val note_execution : t -> record -> bool
(** Count one real execution; [true] when this execution is elected for
    profiling.  The first execution of every record is always sampled
    (the baseline); afterwards every [sample_every]-th.  Allocates
    nothing — integer countdown only — so the unsampled path costs two
    loads and a store (verified by test). *)

val observe :
  t ->
  record ->
  epoch:int ->
  latency:float ->
  pages:int ->
  results:int ->
  ?estimate_q:float ->
  Vamana.Profile.report ->
  bool
(** Fold one sampled run into the record; [estimate_q] (default 1.0) is
    the whole-plan compile-time vs current-statistics estimate ratio.
    Returns [true] when this sample pushed the drift score over the
    threshold (the record is now stale; a [health/plan_drift] event was
    emitted if the bus is active). *)

val stale : record -> bool

val sample_next : record -> unit
(** Elect the record's next execution for profiling, wherever the
    countdown stood.  {!note_replan} calls it to verify a replan; the
    service calls it when a slow run carried no profile, so the next
    run of that plan brings an operator tree. *)

val clamp_q : float -> float
(** A q-error with infinities (an estimate of 0 against a nonzero
    count, or vice versa) clamped to 256 (8 doublings), so drift
    arithmetic stays finite but the signal stays loud. *)

val note_replan : t -> record -> epoch:int -> unit
(** The service re-prepared a stale plan: count it, reset drift and
    staleness, schedule an immediate sample, start the replan-backoff
    cooldown, emit [health/adaptive_replan]. *)

val samples : record -> sample list
(** Reservoir contents, oldest first. *)

val last_sample : record -> sample option
(** Most recent sample, if any — what the service's footprint drift-skip
    reuses when no write since [hr_last_epoch] can have touched the
    plan. *)

val worst_operator : Vamana.Profile.report -> string * float
(** Label and q-error of the worst-q-error operator in the report
    (["?"], [1.0] when no operator carries one). *)

val record_json : record -> Vamana.Profile.Json.t
(** One record as JSON: query, scope, executions, samples, drift,
    stale, replans, last-sampled epoch, and the reservoir (q-error
    trend oldest first). *)

val to_json : t -> Vamana.Profile.Json.t
(** [{"plans": [...]}] over {!records}. *)

val openmetrics_families : t -> (string * float * int * int) list
(** Per-plan [(query, drift score, replans, samples)] tuples in the
    shape {!Metrics.to_openmetrics} renders as the
    [vamana_plan_drift_score] / [vamana_plan_replans] /
    [vamana_plan_samples] families. *)
