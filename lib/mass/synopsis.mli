(** DataGuide-style path synopsis over a MASS store.

    One node per distinct root-to-tag path with the exact number of
    records on that path, labels spelled as {!Store.tag_of} spells them
    (element name, ["@name"], ["#text"], ["#comment"], ["#pi"],
    ["#document"]).  The tree is the store's own
    ({!Store.path_synopsis}): one document-order scan builds it the first
    time a store handle is asked for it, and from then on every content
    mutation applies its path-count delta in place, so writes never
    cause a rescan.  A [t] is a view of that tree stamped with the store
    epoch it was taken at.

    All axis/cardinality reasoning over the synopsis lives in
    {!Xpath.Typecheck}; {!schema} is the bridge. *)

type node = Store.path_node

type t

val for_store : Store.t -> t
(** The store's maintained synopsis, stamped with the current
    {!Store.epoch}: the same view until the epoch moves.  The first call
    on a store handle scans every document; later calls cost nothing.
    The synopsis lives and dies with its store. *)

val epoch : t -> int
(** Store epoch the view was taken at. *)

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
(** Consistency check: the view must be at the store's current epoch
    (an older view is stale), match a fresh store scan node-for-node, and
    its per-kind totals must equal the store's per-document record
    counters.  [Error] carries the first discrepancy. *)
