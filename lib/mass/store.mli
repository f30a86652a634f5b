(** MASS — Multi-Axis Storage Structure.

    An XML repository built from three counted B+-trees:

    - the {b clustered document index}: FLEX key → node record, in
      document order, so every contiguous document region (a subtree, the
      nodes following a subtree, …) is one index range;
    - the {b name index}: (tag, FLEX key) → (), where [tag] is the element
      name, ["@name"] for attributes, ["#text"], ["#comment"] or ["#pi"]
      for the other kinds — any node-test count, global or subtree-scoped,
      is one O(log n) counted-range probe;
    - the {b value index}: (string value, FLEX key) → () over text nodes
      and attribute values — the paper's text counts [TC] and the
      [value::'v'] physical location step.

    The store holds any number of documents; each document's records live
    under a distinct top-level FLEX component, so per-document scoping is
    subtree scoping (paper §I: costs "over the entire database … or
    specific to a particular XML document or even a specific point within
    one document"). *)

type t

type doc = {
  doc_id : int;
  doc_name : string;
  doc_key : Flex.t;  (** key of the per-document Document record *)
  mutable element_count : int;
  mutable text_count : int;
  mutable attribute_count : int;
  mutable comment_count : int;
  mutable pi_count : int;
}

type backend =
  | Mem  (** the simulated in-memory disk (historical default) *)
  | File of { dir : string }
      (** durable storage: one {!Storage.Disk} store in [dir] shared by
          all three indexes — a single data file of checksummed 4 KiB
          frames, one write-ahead log, one checkpoint manifest *)

val create : ?pool_pages:int -> ?order:int -> ?backend:backend -> unit -> t
(** [pool_pages] sizes each index's buffer pool; [order] is the B+-tree
    node capacity.  [backend] defaults to {!Mem} unless the environment
    variable [VAMANA_BACKEND] is set to ["file"], in which case every
    default-backend store runs on real files in a fresh per-process temp
    directory (removed at exit) — the switch that re-runs the whole test
    suite against the durable path.  A {!File} backend initializes a
    {e fresh} store in [dir]; use {!open_file} to reopen an existing one. *)

val open_file : ?pool_pages:int -> dir:string -> unit -> t
(** Reopen a file-backed store: runs crash recovery (WAL replay to the
    last committed epoch), rebuilds the document catalog and reattaches
    the three indexes to their persisted pages.  [order] comes from the
    stored metadata.
    @raise Storage.Disk.Corrupt on a missing or damaged store. *)

val close : t -> unit
(** Clean shutdown of a file-backed store: flush, checkpoint, close the
    descriptors.  A no-op on {!Mem} and on a handle whose disk is
    already closed (after {!simulate_crash} or a failed load). *)

val commit : t -> unit
(** Force a durability point now (flush dirty pages, WAL-append metadata
    and a commit marker, fsync).  Mutations do this automatically unless
    {!set_autocommit} turned it off.  A no-op on {!Mem}. *)

val checkpoint : t -> unit
(** Commit and fold the WAL into a fresh manifest (truncating the log).
    A no-op on {!Mem}. *)

val set_autocommit : t -> bool -> unit
(** Default [true]: every epoch bump commits.  [false] trades durability
    of the tail for update throughput; {!commit} remains available. *)

val data_dir : t -> string option
(** The file backend's directory, [None] on {!Mem}. *)

val disk_io : t -> Storage.Disk.io option
(** Live WAL/data-file counters of the file backend. *)

val disk_wal_bytes : t -> int option
(** Current WAL length of the file backend. *)

val last_recovery : t -> Storage.Disk.recovery option
(** What {!open_file} had to replay/discard, if anything. *)

val simulate_crash : t -> unit
(** Test support: drop the store on the floor — close the descriptors
    without flushing, committing or checkpointing, leaving the files
    exactly as a SIGKILL would.  The handle must not be used afterwards. *)

val load : t -> name:string -> Xml.Tree.t -> doc
(** Bulk-load a parsed document.  Records are keyed depth-first with
    components from {!Flex.sequence}, attributes before child nodes
    (matching XPath document order).  On the file backend the load is
    one bulk ingest made durable atomically at the end; if it raises,
    the on-disk store is rolled back to its pre-load state and this
    handle is closed (further operations fail loudly) — reopen the
    directory with {!open_file}. *)

val load_string : t -> name:string -> string -> doc
(** Parse with {!Xml.Parser.parse} and load. *)

val remove_document : t -> doc -> unit
(** Delete every record and index entry of a document.  Subsequent counts
    are immediately accurate — the paper's update-robustness argument. *)

val documents : t -> doc list
val find_document : t -> string -> doc option

val tag_of : Record.t -> string
(** Name-index tag of a record: the element name, ["@name"] for
    attributes, ["#text"], ["#comment"], ["#pi"], ["#document"].  ['@']
    and ['#'] cannot start XML names, so the non-element tags never
    collide with element names.  The path synopsis reuses this spelling
    for its per-path labels. *)

val epoch : t -> int
(** Monotonic content-mutation counter: bumped by {!load},
    {!insert_element}, {!delete_subtree} and {!remove_document}.  Two
    equal epochs bracket an interval in which store contents did not
    change — the invalidation token for result caches layered above the
    store (a cached answer tagged with the epoch it was computed at is
    valid exactly while the store still reports that epoch). *)

val doc_epoch : t -> doc -> int
(** Per-document invalidation token: the global {!epoch} value at this
    document's last content mutation through this handle, [0] if it has
    not been mutated since the handle was opened.  Mutations to {e
    other} documents leave it unchanged, so a cache scoped to one
    document can survive writes elsewhere in the store (the global
    epoch cannot distinguish them).  Process-local — reopening a file
    backend resets all tokens to 0, which is safe because any cache
    comparing them dies with the process too. *)

(** {1 Write-footprint deltas}

    Every content mutation ({!load}, {!insert_element}, {!delete_subtree},
    {!remove_document}) records a conservative description of what it
    touched: the name-index tags and value-index keys of the records it
    added or removed, and the string-value {e cones} — the element tags
    (plus ["#document"]) whose XPath string-value changed because a text
    node appeared or vanished below them.  FLEX keys are immutable and
    node values never mutate in place, so these atom classes are a
    complete account of what a mutation can change about any query's
    answer; a result cache that proves its read footprint disjoint from
    every delta since the result was computed may keep serving it.

    Deltas live in a bounded process-local ring (like {!doc_epoch}
    tokens): when old entries fall off, {!write_deltas} reports the loss
    instead of silently under-approximating. *)

type write_delta = {
  wd_epoch : int;  (** global {!epoch} value after the mutation *)
  wd_doc : int option;  (** [doc_id] of the touched document, when known *)
  wd_top : bool;
      (** ⊤: the mutation touched more distinct atoms than the recording
          cap; treat it as potentially touching everything (the atom
          lists are empty in this case) *)
  wd_tags : string list;  (** name-index tags ({!tag_of} spelling), sorted, distinct *)
  wd_values : string list;  (** value-index keys, sorted, distinct *)
  wd_cones : string list;
      (** element tags and ["#document"] whose string-value changed *)
}

val write_deltas : t -> since:int -> write_delta list option
(** All deltas with [wd_epoch > since], newest first.  [None] when the
    bounded ring no longer covers the interval (a delta newer than
    [since] was dropped, or [since] predates this handle) — the caller
    must then fall back to epoch invalidation. *)

val last_write_delta : t -> write_delta option
(** The most recent mutation's delta, if any mutation happened through
    this handle. *)

val root_element_key : doc -> t -> Flex.t option
(** Key of the document's root element. *)

(** {1 Record access (data touch, charged to the buffer pool)} *)

val get : t -> Flex.t -> Record.t option
val get_exn : t -> Flex.t -> Record.t
val string_value : t -> Flex.t -> string
(** XPath string-value of the node at the key (concatenated descendant
    text for elements/documents). *)

(** {1 Counting (index-only, no record access)} *)

val count_test :
  t -> ?scope:Flex.t -> principal:Record.kind -> Xpath.Ast.node_test -> int
(** Exact count of nodes satisfying a node test, optionally scoped to the
    subtree of [scope].  [Wildcard]/[Node_test] scoped counts fall back to
    the subtree size (a sound upper bound that still avoids data access);
    their global counts are exact via per-store counters. *)

val text_value_count : t -> ?scope:Flex.t -> string -> int
(** The paper's TC: occurrences of a literal as a full text-node or
    attribute value. *)

val test_present : t -> ?scope:Flex.t -> principal:Record.kind -> Xpath.Ast.node_test -> bool
(** [count_test > 0].  A [false] answer is a proof of absence — counts
    are exact or sound upper bounds — which the static analyzer turns
    into plan pruning (a step on an absent tag is provably empty). *)

val value_present : t -> ?scope:Flex.t -> string -> bool
(** [text_value_count > 0]; same proof-of-absence reading for values. *)

val subtree_size : t -> Flex.t -> int
(** Number of records (all kinds) in a subtree, the node included. *)

val total_records : t -> int

val preorder_rank : t -> Flex.t -> int
(** Store-wide document-order position of a key (index-only probe). *)

val document_rank : t -> Flex.t -> int
(** Document-order position within the key's own document; the document
    record ranks 0, matching {!Xml.Tree} preorder ids. *)

(** {1 Cursors}

    A cursor yields FLEX keys on demand ([None] when exhausted).  Keys
    flow through query pipelines; records are only materialized via
    {!get} when a predicate or output needs them. *)

type cursor = unit -> Flex.t option

val axis_cursor : t -> Xpath.Ast.axis -> Xpath.Ast.node_test -> Flex.t -> cursor
(** All 13 axes.  Forward axes yield document order; reverse axes yield
    reverse document order (XPath proximity order). *)

val test_cursor :
  ?scope:Flex.t -> t -> principal:Record.kind -> Xpath.Ast.node_test -> cursor
(** All keys satisfying a node test within a scope, in document order —
    the posting-list primitive (index-only for named tests; clustered
    scan with kind filtering for wildcard/node tests). *)

val value_cursor : ?scope:Flex.t -> t -> string -> cursor
(** Keys of text/attribute nodes whose value equals the literal — the
    [value::'v'] location step. *)

val value_range_cursor : ?scope:Flex.t -> t -> lo:string option -> hi:string option -> cursor
(** Keys of text/attribute nodes whose value is within a lexicographic
    range (inclusive bounds); supports string range predicates. *)

val fold_document : t -> doc -> ('a -> Flex.t -> Record.t -> 'a) -> 'a -> 'a
(** Sequential scan over every record of a document in document order
    (attributes included).  Charges the page reads of a full clustered
    scan — the access path of the scan-based baseline engine. *)

val iter_document : t -> doc -> (Flex.t -> Record.t -> unit) -> unit

(** {1 Path synopsis}

    The DataGuide path-count tree behind {!Synopsis}: one node per
    distinct root-to-tag path of a document, labelled with {!tag_of}
    spellings, with the exact number of records on that path.  A store
    handle owns at most one tree.  The first {!path_synopsis} call builds
    it by one document-order scan; from then on {!load},
    {!insert_element}, {!delete_subtree} and {!remove_document} apply
    their own (tag path, count) delta to it in place, so it never needs
    a rescan.  The types are private: only the store changes the tree. *)

type path_node = private {
  syn_tag : string;
  syn_parent : path_node option;
  mutable syn_count : int;
  mutable syn_children : path_node list;  (** sorted by tag *)
}

type path_synopsis = private {
  ps_epoch : int;  (** {!epoch} at which this view was taken *)
  ps_docs : (Flex.t * path_node) list;  (** document key → ["#document"] node *)
}

val path_synopsis : t -> path_synopsis
(** A view of the maintained tree stamped with the current epoch — the
    same value until the epoch moves.  Views share the live nodes: a
    view taken before a mutation sees the new counts but keeps its old
    epoch, by which {!Synopsis.verify} reports it stale. *)

val scan_path_synopsis : t -> path_synopsis
(** A fresh tree from one scan of every document; the maintained one is
    left alone.  The reference {!Synopsis.verify} compares against. *)

(** {1 Dynamic updates}

    Ordered insertion between siblings via {!Flex.between} — exercising
    FLEX's defining property and the paper's claim that statistics remain
    exact under updates. *)

val insert_element :
  t -> parent:Flex.t -> ?after:Flex.t -> string -> (string * string) list -> string option ->
  Flex.t
(** [insert_element t ~parent ?after name attrs text] inserts a new
    element (with optional attributes and a text child) under [parent],
    after sibling [after] (or as first child).  Returns the new key.
    @raise Invalid_argument if [parent] is unknown or [after] is not a
    child of [parent]. *)

val delete_subtree : t -> Flex.t -> int
(** Remove a node and its subtree from all indexes; returns the number of
    records removed. *)

val name_statistics : t -> (string * int) list
(** Every name-index tag with its entry count (element names verbatim,
    attributes as ["@name"], other kinds as ["#text"] etc.), sorted.
    One full index sweep — the raw material of a static data dictionary. *)

val value_statistics : t -> (string * int) list
(** Every indexed text/attribute value with its occurrence count. *)

(** {1 Subtree reconstruction} *)

val to_tree : t -> Flex.t -> Xml.Tree.t option
(** Rebuild the XML subtree rooted at a key (one clustered scan).
    Returns a document whose root element is the node; [None] for keys of
    non-element, non-document kinds or unknown keys. *)

val to_xml : ?indent:int -> t -> Flex.t -> string option
(** Serialize the node: full subtree markup for elements/documents, the
    string value for attribute/text/comment/PI nodes. *)

val validate : t -> unit
(** Cross-check the clustered index, name index, value index and the
    per-document counters against each other.
    @raise Failure describing the first inconsistency.  Test support. *)

(** {1 Persistence}

    Versioned binary snapshots of the whole store (all documents, records
    in document order).  The indexes are rebuilt on load from the sorted
    record stream. *)

exception Corrupt_snapshot of string

val save_file : t -> string -> unit

val load_file : ?pool_pages:int -> ?order:int -> ?backend:backend -> string -> t
(** @raise Corrupt_snapshot on malformed input;
    @raise Sys_error on I/O failure.  With a {!File} backend the rebuild
    runs through the bulk-ingest path (no WAL traffic, one closing
    checkpoint); if it fails, the target directory is left holding a
    valid empty store. *)

(** {1 Statistics} *)

type statistics = {
  record_count : int;
  document_count : int;
  doc_index_pages : int;
  name_index_pages : int;
  value_index_pages : int;
  doc_index_height : int;
  tuples_per_page : float;
  io : Storage.Stats.t;  (** aggregated across the three indexes *)
}

val statistics : t -> statistics
val io_stats : t -> Storage.Stats.t
(** Aggregate snapshot of the three pagers' counters. *)

val reset_io_stats : t -> unit

val io_by_index : t -> (string * Storage.Stats.t) list
(** The {e live} counter records of each index pager
    ([doc_index]/[name_index]/[value_index]) — snapshot with
    {!Storage.Stats.copy} and {!Storage.Stats.diff} around a query to
    attribute page traffic to an individual index. *)

type pool_info = {
  pool_index : string;
  pool_capacity : int;  (** configured pool size, pages *)
  pool_resident : int;
  pool_pages_total : int;  (** live pages, resident or not *)
  pool_io : Storage.Stats.t;  (** snapshot, not live *)
}

val pool_by_index : t -> pool_info list
(** Buffer-pool occupancy and traffic per index — the [vamana stats]
    breakdown. *)

val document_of_key : t -> Flex.t -> doc option
(** The document whose top-level FLEX component prefixes the key. *)

(** {1 Structure introspection} *)

type structure = {
  s_max_depth : int;  (** deepest record, document record = 0 *)
  s_depths : (int * int) list;  (** depth → record count, ascending *)
  s_fanouts : (int * int) list;
      (** direct sub-record count (attributes included) → number of
          element/document records with that fanout, ascending *)
  s_max_fanout : int;
  s_mean_fanout : float;
}

val structure_statistics : t -> doc -> structure
(** Depth and fanout distributions of one document: a single clustered
    scan (charged to the pool like any scan). *)
