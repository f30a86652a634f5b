(** Telemetry event bus: the always-on observability spine.

    One process-wide bus carries structured events — log records, counter
    bumps and timing spans — from every layer (storage buffer pools, the
    optimizer, the engine, the query service) to whatever subscribers are
    attached: a bounded ring buffer (drained by [vamana events]), a JSONL
    sink, or arbitrary callbacks.

    The design constraint is the hot path.  With no subscriber attached
    {!active} is a single load-and-branch, and instrumentation sites are
    written as

    {[ if Obs.active () then Obs.emit ~category:"storage" "eviction" [...] ]}

    so an unobserved process pays one predictable branch per site — no
    event record, no attribute list, no timestamp syscall.  Events are
    only materialized while someone is listening.

    Per-category sampling thins high-frequency categories (page-level
    storage events under a scan) without touching low-frequency ones
    (slow queries): a sample rate of [n] keeps every [n]-th event of that
    category, counting the skipped ones so drains can report what was
    thinned. *)

module Json = Json
(** The shared JSON value type and its writer/parser. *)

type severity = Debug | Info | Warn | Error

(** Attribute values are JSON values, so span metadata and event
    attributes share one type and one writer. *)
type value = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

type event = {
  seq : int;  (** process-wide emission sequence number, from 0 *)
  ts : float;
      (** monotonic {e seconds} since the bus first woke up — the one
          timestamp unit, used verbatim by {!to_json_string} ([ts]
          field) and {!to_text} *)
  severity : severity;
  category : string;  (** e.g. ["storage"], ["optimizer"], ["query"], ["service"] *)
  name : string;  (** event name within the category *)
  attrs : (string * value) list;
}

val severity_to_string : severity -> string
val severity_of_string : string -> severity option

(** {1 Clock} *)

val clock : unit -> float
(** Seconds on the monotonic clock (CLOCK_MONOTONIC; unaffected by
    system-clock adjustments) from an arbitrary origin.  Every duration
    in the code base is a difference of two readings; wall-clock time is
    reserved for timestamps. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result with the elapsed
    {!clock} seconds. *)

(** {1 Hot-path gate} *)

val active : unit -> bool
(** [true] iff at least one subscriber (ring or sink) is attached.  This
    is the single branch instrumentation sites pay when nobody listens;
    guard every [emit] with it so attribute lists are never built in
    vain. *)

val emit :
  ?severity:severity -> category:string -> string -> (string * value) list -> unit
(** Emit an event to every subscriber (after the category's sampling
    decision).  A no-op when {!active} is [false].  [severity] defaults
    to [Info]. *)

val time_span :
  ?severity:severity ->
  category:string ->
  string ->
  (string * value) list ->
  (unit -> 'a) ->
  'a
(** [time_span ~category name attrs f] runs [f] and, if the bus is
    active, emits the event with a [dur_ms] attribute appended.  When
    inactive it costs the one branch and runs [f] directly.  If [f]
    raises, the span is still emitted — at [Error] severity with an
    [error] attribute holding the exception text — and the exception is
    re-raised with its backtrace intact, so failed work shows up in
    traces instead of vanishing. *)

(** {1 Emission context}

    Dynamically scoped attributes attached to every event emitted
    within the scope — how a query id minted at the service layer
    reaches storage events fired five layers down without threading it
    through every signature. *)

val with_context : (string * value) list -> (unit -> 'a) -> 'a
(** [with_context attrs f] appends [attrs] to the attributes of every
    event emitted during [f] (nests: inner contexts stack on outer
    ones).  The previous context is restored when [f] returns or
    raises. *)

val context : unit -> (string * value) list
(** The attributes the current scope would append (outermost first). *)

val fresh_query_id : unit -> int
(** Mint a process-unique query id (1, 2, ...).  Independent of the
    bus's active state — flight-recorder records need ids even when
    nobody is tracing.  Restarts from 1 after {!reset}. *)

(** {1 Sampling} *)

val set_sample_rate : string -> int -> unit
(** Keep one event in [n] for the category (default 1 = keep all).
    @raise Invalid_argument if [n < 1]. *)

val sample_rate : string -> int

val sampled_out : unit -> int
(** Events suppressed by sampling since the last {!reset}. *)

(** {1 Ring buffer} *)

val attach_ring : ?capacity:int -> unit -> unit
(** Start collecting events into the process ring buffer (default
    capacity {!default_ring_capacity}).  Re-attaching resizes and clears
    the ring. *)

val detach_ring : unit -> unit
val default_ring_capacity : int

val drain : unit -> event list
(** Remove and return the ring's contents, oldest first. *)

val ring_length : unit -> int

val dropped : unit -> int
(** Events overwritten because the ring was full, since attach/reset. *)

(** {1 Sinks} *)

type sink

val attach_sink : (event -> unit) -> sink
(** Subscribe a callback to every (post-sampling) event.  Exceptions
    raised by the callback propagate to the emitter — sinks are trusted
    plumbing, not user code. *)

val detach_sink : sink -> unit

val attach_jsonl : out_channel -> sink
(** A sink writing each event as one JSON line (see {!to_json_string})
    to the channel, flushing per event so [--follow] output is live. *)

(** {1 JSON} *)

val to_json_string : event -> string
(** The event as a one-line JSON object, rendered by {!Json.to_string}:
    [{"seq": 0, "ts": 0.00125, "severity": "info", "category": "storage",
      "name": "eviction", "attrs": {...}}].  [ts] is the event's
    monotonic seconds, unchanged. *)

val to_text : event -> string
(** One-line human rendering for [vamana events] without [--json];
    leads with the timestamp in seconds. *)

(** {1 Chrome trace_event export} *)

module Trace : sig
  val to_chrome : ?process_name:string -> event list -> string
  (** Render events as a Chrome [trace_event] JSON document (the
      [{"traceEvents":[...]}] object form) loadable in Perfetto or
      chrome://tracing.  Each category becomes one named thread
      (tid); events carrying a [dur_ms] attribute become [B]/[E]
      span pairs (the bus stamps spans at their {e end}, so the [B]
      timestamp is [ts - dur]); other events become thread-scoped
      instants.  Span nesting is repaired so B/E pairs are always
      balanced and properly nested per tid, and timestamps (in
      microseconds, as the format requires) are monotone per tid.
      [process_name] defaults to ["vamana"]. *)
end

(** {1 Lifecycle} *)

val reset : unit -> unit
(** Detach everything, clear the ring, sampling tables and counters
    (test support; also gives [vamana events] a clean slate). *)
