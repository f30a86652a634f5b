(** EXPLAIN ANALYZE support: per-operator execution profiling, trace
    spans, and estimate-vs-actual (q-error) reporting.

    A {!ctx} is handed to {!Exec.build} to instrument a pipeline: every
    iterator gets a {!slot} recording tuples produced, [next]/[reset]
    calls, cursor openings, state transitions, wall time {e exclusive of
    children}, and buffer-pool read deltas.  The uninstrumented path pays
    nothing — iterators built without a context carry no profile
    structures at all.

    After execution, {!make} joins the actuals against the cost
    estimator's {!Cost.costed} table to produce an annotated plan tree
    with per-operator q-error (max(est/act, act/est)), renderable as text
    or JSON. *)

(** The shared JSON value type ({!Obs.Json}), re-exported under its
    historical name. *)
module Json = Obs.Json

(** {1 Collection} *)

type slot = {
  op_id : int;
  label : string;  (** display form of the operator *)
  mutable tuples : int;  (** tuples produced ([Some] results of [next]) *)
  mutable next_calls : int;
  mutable resets : int;  (** re-rootings (Algorithm 2 dynamic context) *)
  mutable cursor_opens : int;  (** MASS cursors opened *)
  mutable started : int;  (** INITIAL → FETCHING transitions *)
  mutable exhausted : int;  (** transitions into OUT_OF_TUPLES *)
  mutable self_time : float;  (** wall seconds, exclusive of children *)
  mutable self_reads : int;  (** logical page reads, exclusive of children *)
  mutable self_phys : int;  (** physical page reads, exclusive of children *)
}

type ctx

val create : Mass.Store.t -> ctx
(** A collection context over the store whose buffer-pool counters the
    per-operator I/O deltas are read from. *)

val slot : ctx -> op_id:int -> label:string -> slot
(** The slot for a plan operator, created on first request (one slot per
    operator id; rebuilding an iterator reuses its slot). *)

val frame : ctx -> slot -> (unit -> 'a option) -> 'a option
(** Run one [next] call under the slot: counts the call and the produced
    tuple, and attributes elapsed wall time and page reads to the slot
    {e minus} whatever nested frames (child iterators) consumed. *)

val slots : ctx -> slot list
(** All slots, in operator-id order. *)

(** {1 Trace spans} *)

type span = {
  name : string;  (** [parse], [compile], [optimize], [execute] *)
  dur : float;  (** seconds *)
  meta : (string * Json.t) list;
}

val span : ?meta:(string * Json.t) list -> string -> float -> span

(** {1 Reports} *)

type node = {
  id : int;
  label : string;
  est : Cost.stats option;  (** estimator's view, when costed *)
  act : slot option;  (** collected actuals, when the operator ran *)
  q_error : float option;
      (** max(est OUT / actual, actual / est OUT); [1.0] when both are 0,
          [infinity] when exactly one is 0; [None] without an estimate *)
  preds : (string * node) list;  (** predicate sub-plans, labelled *)
  context : node option;
}

type report = {
  plan : node;
  spans : span list;
  total_time : float;  (** execution wall seconds *)
  root_q_error : float;  (** plan-cardinality q-error at the root *)
  max_q_error : float;  (** worst per-operator q-error; [1.0] if no data *)
}

val q_error : est:int -> act:int -> float

val make :
  ctx -> cost:Cost.costed -> ?spans:span list -> total_time:float -> Plan.op -> report
(** Join collected actuals with the cost table over the plan tree. *)

val render_text : report -> string
(** Annotated plan tree (paper Figure 6/7 style plus actuals), followed
    by the span list. *)

val render_json : report -> Json.t

val render_json_string : report -> string
