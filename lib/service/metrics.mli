(** Metrics registry for the query service: named monotonic counters and
    named latency histograms ({!Storage.Stats.Histogram}), with text and
    JSON snapshot rendering.

    Names are created on first use; readers see every name touched so
    far.  Snapshots can fold in a {!Storage.Stats.t} of buffer-pool I/O
    counters so one dump covers the whole service. *)

type t

val create : unit -> t

(** {1 Counters} *)

val inc : ?by:int -> t -> string -> unit
(** Add [by] (default 1) to the named counter, creating it at 0 first. *)

val counter : t -> string -> int
(** Current value; [0] for a name never incremented. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

(** {1 Histograms} *)

val observe : t -> string -> float -> unit
(** Record a latency (seconds) in the named histogram, creating it on
    first use. *)

val histogram : t -> string -> Storage.Stats.Histogram.h option

val histograms : t -> (string * Storage.Stats.Histogram.h) list
(** All histograms, sorted by name. *)

(** {1 Derived} *)

val ratio : t -> hits:string -> misses:string -> float option
(** [hits / (hits + misses)] from two counters; [None] when both are 0. *)

(** {1 Snapshots} *)

val render_text : ?io:Storage.Stats.t -> t -> string
(** Human-readable snapshot: counters, cache hit rates, histogram
    summary lines, and (when given) the I/O counters. *)

val render_json : ?io:Storage.Stats.t -> t -> string
(** The same snapshot as a single JSON object:
    [{"counters": {...}, "histograms": {name: {count, mean_ms, min_ms,
    max_ms, p50_ms, p95_ms, p99_ms}}, "io": {...}}], rendered by
    {!Obs.Json}. *)

val to_openmetrics :
  ?io:Storage.Stats.t ->
  ?pools:(string * Storage.Stats.t) list ->
  ?disk:Storage.Disk.io ->
  ?plan_health:(string * float * int * int) list ->
  t ->
  string
(** The snapshot in OpenMetrics / Prometheus text exposition format,
    scrape-ready: every registry counter becomes a [vamana_<name>]
    counter family ([_total] sample) — except the
    [cache_invalidations_<reason>] counters, which fold into the single
    labeled family
    [vamana_cache_invalidations_total{reason="footprint"|"epoch"|"top"}]
    — cache hit rates become gauges,
    histograms become [vamana_<name>_seconds] with cumulative
    [le]-labelled buckets plus [_sum]/[_count].  [io] adds the
    aggregate buffer-pool counters ([vamana_page_*]), [pools] the same
    per index (label [index="..."]), [disk] the WAL/data-file counters
    ([vamana_wal_*], [vamana_fsyncs], ...).  [plan_health] entries
    [(query, drift, replans, samples)] (see
    {!Health.openmetrics_families}) render as
    [vamana_plan_drift_score{plan="..."}] gauges plus
    [vamana_plan_replans] / [vamana_plan_samples] counters; the three
    [# TYPE] declarations are emitted even when the list is empty.
    Terminated by [# EOF]. *)

val reset : t -> unit
(** Forget every counter and histogram (test support). *)
