(** FLEX — Fast Lexicographical Keys.

    Structural encoding of XML nodes as used by the MASS storage structure
    (Deschler & Rundensteiner, CIKM 2003).  A key is a sequence of
    {e components}; each component is a non-empty string over ['a'..'z']
    that never ends in ['a'].  The no-trailing-['a'] invariant guarantees
    that a strictly-between component always exists, so nodes can be
    inserted between any two siblings without relabeling the document.

    Lexicographic comparison of keys (component-wise, with a proper prefix
    ordered before its extensions) coincides with document pre-order, and
    the descendants of a node are exactly the keys having its key as a
    proper prefix.  Both properties are what make index-only XPath plans
    possible: every axis becomes a contiguous range or a simple key
    transformation.

    {b Representation.}  A key is one immutable byte string: its components
    joined by byte [0x01], which sorts below every component character, so
    plain byte order is document order.  The document key is [""].  This
    string is also the key's on-disk form ({!encode} is the identity).

    {b Costs.}  [compare] and [equal] are [String.compare] and
    [String.equal]: O(common prefix), no allocation.  So are
    {!bound_compare_key} probes.  [is_ancestor a k] is O(length of [a]),
    [is_parent p k] O(length of [k]).
    [depth], [prefix], [parent] and [last_component] scan the key:
    O(length); the last three, like [child], allocate their result. *)

type t
(** A FLEX key.  The empty key denotes the document node, the ancestor of
    every node in its document. *)

val document : t
(** The key of the document node (empty component sequence). *)

val of_components : string list -> t
(** [of_components cs] builds a key from components.
    @raise Invalid_argument if any component is invalid. *)

val depth : t -> int
(** Number of components.  [depth document = 0]; children of the document
    node have depth 1. *)

val is_valid_component : string -> bool
(** A valid component is non-empty, uses only ['a'..'z'], and does not end
    in ['a']. *)

val child : t -> string -> t
(** [child k c] appends component [c] to [k].
    @raise Invalid_argument if [c] is invalid. *)

val parent : t -> t option
(** Key of the parent node; [None] for the document node. *)

val last_component : t -> string option
(** The final component; [None] for the document node. *)

val prefix : t -> int -> t
(** [prefix k d] is the ancestor of [k] at depth [d].
    @raise Invalid_argument if [d < 0] or [d > depth k]. *)

val compare : t -> t -> int
(** Total order equal to document pre-order. *)

val equal : t -> t -> bool

val is_ancestor : t -> t -> bool
(** [is_ancestor a k] — [a] is a {e proper} ancestor of [k]. *)

val is_ancestor_or_self : t -> t -> bool

val is_parent : t -> t -> bool
(** [is_parent p k] — [p] is the parent of [k]: an ancestor with no
    component boundary after its own key. *)

val common_ancestor : t -> t -> t
(** Longest common prefix of two keys. *)

(** {1 Component generation} *)

val between : string option -> string option -> string
(** [between lo hi] is a fresh valid component strictly between [lo] and
    [hi] ([None] meaning unbounded).  Used for ordered insertion between
    existing siblings.
    @raise Invalid_argument if [lo >= hi]. *)

val sequence : int -> string list
(** [sequence n] generates [n] valid components in strictly increasing
    order, all of the same (minimal) width.  Used for bulk loading where
    the sibling count is known. *)

val first_child_component : string
(** Default component for the first child inserted under a node. *)

(** {1 Range bounds}

    Bounds position B-tree seeks either just before a key or just after an
    entire subtree, which lets axis cursors skip whole subtrees in one
    seek. *)

type bound =
  | Min  (** before every key *)
  | Before of t  (** the position of [t] itself *)
  | After_key of t  (** just past [t], before its descendants *)
  | After_subtree of t  (** just past [t] and all its descendants *)
  | Max  (** after every key *)

val bound_compare_key : bound -> t -> int
(** [bound_compare_key b k] is [-1] if a cursor seeked to [b] yields [k]
    or a later key, and [1] if [b] lies after [k]; never [0], since bounds
    fall between keys.  Each bound compares as a plain key would: [Before t]
    as [t], [After_key t] as [t ^ "\x00"], and [After_subtree t] as
    [t ^ "\x02"], past every descendant of [t] (past every key when [t] is
    the document).  One pass, no allocation. *)

val key_in_range : lo:bound -> hi:bound -> t -> bool
(** [key_in_range ~lo ~hi k] — [k] lies at or after [lo] and strictly
    before [hi]. *)

val subtree_range : t -> bound * bound
(** Half-open range covering a node and all its descendants. *)

val descendants_range : t -> bound * bound
(** Half-open range covering the proper descendants of a node. *)

(** {1 Serialization} *)

val to_string : t -> string
(** Dotted display form, e.g. ["b.d.y.c"]; the document node prints as
    ["/"] . *)

val of_string : string -> t
(** Inverse of {!to_string}.
    @raise Invalid_argument on malformed input. *)

val encode : t -> string
(** Order-preserving byte encoding: [String.compare (encode a) (encode b)]
    equals [compare a b].  Components are joined with byte [0x01], which
    sorts below every component character.  This is the key itself, so
    encoding is free. *)

val decode : string -> t
(** Inverse of {!encode}: validates in one pass, without allocating.
    @raise Invalid_argument on an empty component, a leading, trailing or
    doubled [0x01], a byte outside ['a'..'z'], or a component ending in
    ['a']. *)

val pp : Format.formatter -> t -> unit
