(** Counted B+-tree over buffer-pool-managed pages.

    The tree is the index primitive under MASS.  Two properties matter for
    the paper's cost model and index-only plans:

    - {b Counted interior nodes}: every routing entry carries the number of
      entries in its child subtree, so {!rank} and {!count_range} run in
      O(log n) touching only one root-to-leaf path each — counts are
      computed "on the index level without going to data" (paper §IV-B).
    - {b Seek-able cursors}: {!seek} positions by an arbitrary monotone
      probe, which lets axis cursors jump past whole subtrees (child and
      sibling axes) instead of scanning.

    - {b Leaf fingers}: the tree remembers the leaves its last few root
      descents reached, each with the two separators that bound it on its
      root path.  A {!seek}, {!seek_key} or {!find} whose target lies
      within a finger's bounds reads that one leaf instead of descending
      from the root: a hit costs 1 logical read, a miss [height].  Nested
      loops whose lookups stay in document order mostly hit.  {!insert}
      and {!delete} retire every finger.

    Keys are unique; {!insert} is an upsert.  Deletion removes entries and
    maintains exact counts but does not rebalance (empty leaves remain
    chained and are skipped by cursors) — the classic lazy-deletion
    trade-off, adequate because the workload is read-mostly. *)

module type KEY = sig
  type t

  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

(** A monotone probe [f] classifies keys: [f k < 0] for keys before the
    target position and [f k >= 0] at or after it.  [f] must be
    non-decreasing along the key order. *)

module Make (K : KEY) : sig
  type 'v t

  type 'v node
  (** The pager payload: a leaf or counted interior node.  Abstract —
      only {!node_codec} gives the durable layer a view of it. *)

  val node_codec :
    enc_key:(Buffer.t -> K.t -> unit) ->
    dec_key:(Storage.Binio.reader -> K.t) ->
    enc_val:(Buffer.t -> 'v -> unit) ->
    dec_val:(Storage.Binio.reader -> 'v) ->
    'v node Storage.Pager.codec
  (** Build a page serializer from key/value serializers, for running the
      tree on the {!Storage.Pager.File} backend.  The wire format is the
      node structure verbatim (tag, leaf chain links, entries or
      separators+children+counts); integrity is the disk layer's job. *)

  val create :
    ?label:string ->
    ?order:int ->
    ?pool_pages:int ->
    ?backend:'v node Storage.Pager.backend ->
    unit ->
    'v t
  (** [order] is the maximum number of entries per node (default 64);
      [pool_pages] sizes the buffer pool; [label] names the underlying
      pager in telemetry events and introspection output; [backend]
      (default in-memory) selects where pages live.
      @raise Invalid_argument if [order < 4]. *)

  val open_existing :
    ?label:string ->
    ?order:int ->
    ?pool_pages:int ->
    backend:'v node Storage.Pager.backend ->
    root:int ->
    unit ->
    'v t
  (** Reattach to a tree previously persisted through a {!File} backend:
      [root] is the page id {!root_id} reported when it was last flushed.
      [order] must match the order the tree was built with. *)

  val root_id : 'v t -> int
  (** Current root page id (changes when the root splits — persist it on
      every commit). *)

  val flush : 'v t -> unit
  (** Write all dirty pages through to the backend. *)

  val length : 'v t -> int
  (** Total number of entries, O(1). *)

  val height : 'v t -> int
  (** Levels from root to leaf (1 for a single-leaf tree). *)

  val insert : 'v t -> K.t -> 'v -> unit
  (** Upsert: replaces the value if the key is present. *)

  val find : 'v t -> K.t -> 'v option
  (** One logical read when a finger holds [k]'s leaf, else [height]; the
      descent's leaf becomes a finger.  Allocates only the option. *)

  val mem : 'v t -> K.t -> bool

  val delete : 'v t -> K.t -> bool
  (** Remove a key; returns whether it was present. *)

  val min_binding : 'v t -> (K.t * 'v) option
  val max_binding : 'v t -> (K.t * 'v) option

  (** {1 Probing} *)

  val rank : 'v t -> (K.t -> int) -> int
  (** [rank t f] — number of keys strictly before the probe position
      (keys with [f k < 0]).  O(log n). *)

  val count_range : 'v t -> lo:(K.t -> int) -> hi:(K.t -> int) -> int
  (** Entries at or after [lo] and strictly before [hi]:
      [rank t hi - rank t lo].  O(log n), no data access. *)

  (** {1 Cursors}

      A cursor is a position between entries.  Cursors are invalidated by
      any update to the tree.  A cursor pins the image of the leaf it sits
      on: a step within that leaf reads no page, and crossing to a sibling
      leaf is one pager read.  Positioning reads one page on a finger hit
      and [height] pages otherwise; {!rank} and {!count_range} always
      descend from the root. *)

  type 'v cursor

  val seek : 'v t -> (K.t -> int) -> 'v cursor
  (** Position just before the first key [k] with [f k >= 0].  Reads only
      the target leaf when a finger's bounds enclose the target ([f lo < 0]
      for its left separator, [f hi >= 0] for its right one), else
      descends from the root, reading [height] pages, and keeps the leaf
      as a finger.  The position is the one a root descent gives.
      Allocates only the cursor. *)

  val seek_key : 'v t -> K.t -> 'v cursor
  (** Position just before [k] (or where it would be); {!seek} with the
      probe [fun k' -> K.compare k' k]. *)

  val seek_min : 'v t -> 'v cursor

  val seek_max : 'v t -> 'v cursor
  (** Position after the last entry; always a root descent. *)

  val step : 'v cursor -> bool
  (** Advance past the entry just after the cursor; [false] at the end.
      Allocates nothing. *)

  val step_back : 'v cursor -> bool
  (** Retreat before the entry just before the cursor; [false] at the
      start.  Allocates nothing. *)

  val key : 'v cursor -> K.t
  val value : 'v cursor -> 'v
  (** The entry the last {!step} or {!step_back} passed over.
      @raise Invalid_argument if that call returned [false] or none was
      made since the cursor was positioned. *)

  val next : 'v cursor -> (K.t * 'v) option
  (** Entry just after the cursor, advancing past it: {!step} then
      {!key} and {!value}. *)

  val prev : 'v cursor -> (K.t * 'v) option
  (** Entry just before the cursor, retreating before it. *)

  val peek : 'v cursor -> (K.t * 'v) option
  (** Like {!next} without advancing. *)

  (** {1 Whole-tree iteration} *)

  val iter : (K.t -> 'v -> unit) -> 'v t -> unit
  val fold : ('a -> K.t -> 'v -> 'a) -> 'a -> 'v t -> 'a
  val to_list : 'v t -> (K.t * 'v) list

  (** {1 Introspection} *)

  val stats : 'v t -> Storage.Stats.t
  val page_count : 'v t -> int

  val resident_count : 'v t -> int
  (** Pages currently resident in the buffer pool. *)

  val pool_pages : 'v t -> int
  (** Configured buffer-pool capacity in pages. *)

  val check_invariants : 'v t -> unit
  (** Validate structural invariants (sortedness, partition bounds, exact
      counts, uniform depth, leaf chaining).  @raise Failure on violation.
      Test support. *)
end
