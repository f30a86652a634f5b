(** I/O statistics counters for the simulated paged storage.

    The reproduction runs on a simulated disk (everything is resident in
    process memory), so wall-clock time alone would understate the I/O
    behaviour the paper's figures depend on.  These counters make page
    traffic observable: a {e logical read} is one pager access — a level
    of a B+-tree descent or a cursor crossing to a sibling leaf; steps
    within the leaf a cursor has pinned are free — and a
    {e physical read} is an access to a page not currently resident in
    the buffer pool. *)

type t = {
  mutable logical_reads : int;
  mutable physical_reads : int;
  mutable page_writes : int;  (** dirty pages written back on eviction/flush *)
  mutable evictions : int;
  mutable allocations : int;
  mutable write_back_bytes : int;
      (** encoded bytes written back to the disk layer (file backend;
          [0] on the simulated in-memory disk) *)
  mutable fsyncs : int;  (** fsync calls issued on behalf of this pool *)
}

val create : unit -> t
val reset : t -> unit
val copy : t -> t

val diff : t -> t -> t
(** [diff later earlier] — counter deltas between two snapshots. *)

val hit_ratio : t -> float
(** Buffer-pool hit ratio in [0,1]; [1.0] when there were no reads. *)

val pp : Format.formatter -> t -> unit

(** Fixed-bucket latency histograms (seconds) for the service layer's
    phase timings: 1-2.5-5 log-scale bounds from 1 µs to 10 s plus an
    overflow bucket, with exact count/sum/min/max alongside, so
    percentiles are bucket-resolution estimates but means are exact. *)
module Histogram : sig
  type h

  val create : unit -> h
  val observe : h -> float -> unit
  val count : h -> int
  val sum : h -> float
  val mean : h -> float
  val min_value : h -> float
  val max_value : h -> float

  val percentile : h -> float -> float
  (** [percentile h p] for [p] in [0,100]: linear interpolation within
      the bucket holding the p-th percentile observation, clamped to the
      observed min/max; [0.0] when empty. *)

  val buckets : h -> (float * int) list
  (** [(upper_bound, count)] per bucket, non-cumulative; the final bucket
      has bound [infinity]. *)

  val merge : into:h -> h -> unit

  val pp : Format.formatter -> h -> unit
  (** One-line summary: count, mean/min/max, p50/p95/p99 (milliseconds). *)
end
