(** DataGuide-style path synopsis over a MASS store.

    One node per distinct root-to-tag path with the exact number of
    records on that path, labels spelled as {!Store.tag_of} spells them
    (element name, ["@name"], ["#text"], ["#comment"], ["#pi"],
    ["#document"]).  Derived from the store in a single document-order
    scan; {!for_store} caches per store and rebuilds when the store
    epoch moves, like the engine's plan caches.

    All axis/cardinality reasoning over the synopsis lives in
    {!Xpath.Typecheck}; {!schema} is the bridge. *)

type node = {
  syn_tag : string;
  syn_parent : node option;
  mutable syn_count : int;
  mutable syn_children : node list;  (** sorted by tag *)
}

type t

val build : Store.t -> t
(** Single-scan derivation at the store's current epoch. *)

val for_store : Store.t -> t
(** Cached {!build}, invalidated when {!Store.epoch} moves.  The cache
    holds its stores weakly: a store its owner dropped is collected with
    its synopsis. *)

val epoch : t -> int
(** Store epoch the synopsis was derived at. *)

val paths : t -> int
(** Number of distinct root-to-tag paths (synopsis nodes). *)

val records : t -> int
(** Total records summarized, document records included. *)

val roots : t -> scope:Flex.t option -> node list
(** Document-root synopsis nodes: all documents, or the one whose
    document key equals [scope]. *)

val schema : t -> scope:Flex.t option -> node Xpath.Typecheck.schema

val chain_estimate :
  t -> scope:Flex.t option -> (Xpath.Ast.axis * Xpath.Ast.node_test * bool) list ->
  (int * bool) option
(** {!Xpath.Typecheck.chain_estimate} over {!schema}.  [None] when
    [scope] does not name a whole document the synopsis knows — then no
    claim is made and callers fall back to Table I alone. *)

val fold : t -> init:'a -> f:('a -> path:string list -> count:int -> 'a) -> 'a
(** Pre-order over every path of every document; [path] starts at
    ["#document"]. *)

val verify : Store.t -> t -> (unit, string) result
(** Consistency check: the synopsis must match a fresh store scan
    node-for-node, and its per-kind totals must equal the store's
    per-document record counters.  [Error] carries the first
    discrepancy. *)
