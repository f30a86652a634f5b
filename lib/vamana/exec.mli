(** Pipelined, iterative plan execution (paper §VII, Algorithms 1 and 2).

    Every operator is a demand-driven iterator in one of the paper's three
    states — INITIAL, FETCHING, OUT_OF_TUPLES.  Tuples are FLEX keys; only
    predicates and result materialization touch node records.  Leaf
    operators on the context path stream from MASS cursors rooted at the
    initial context; predicate sub-plans are re-rooted at each candidate
    tuple ({e dynamic setting of context}, §V-B). *)

type iterator

val state : iterator -> [ `Initial | `Fetching | `Out_of_tuples ]

val next : iterator -> Flex.t option
(** Pull the next tuple. *)

val reset : iterator -> Flex.t -> unit
(** Re-root the iterator's leaf context and return it to INITIAL. *)

val build : ?profile:Profile.ctx -> Mass.Store.t -> context:Flex.t -> Plan.op -> iterator
(** Instantiate a plan over a store with the given initial context
    (normally a document key).  When [profile] is given every operator
    (context chain and predicate sub-plans alike) records its actuals —
    tuples, [next]/[reset] calls, cursor openings, state transitions,
    exclusive wall time and page-read deltas — into the context; without
    it, iterators carry no profiling structures and the hot path is
    unchanged. *)

val run : ?profile:Profile.ctx -> Mass.Store.t -> context:Flex.t -> Plan.op -> Flex.t list
(** Execute to exhaustion; result in document order, duplicate-free (the
    node-{e set} semantics of XPath). *)

val run_raw : ?profile:Profile.ctx -> Mass.Store.t -> context:Flex.t -> Plan.op -> Flex.t list
(** Execute without the final sort/deduplication — the raw tuple stream,
    exposing duplicate work that rewrites like the paper's Q2
    duplicate-elimination remove. *)
