(** Buffer-pool-managed page store.

    Pages hold arbitrary payloads (B-tree nodes, node-record slabs).  All
    payloads live in a backing table (the simulated disk); the pool tracks
    which pages are {e resident}.  Accessing a non-resident page counts a
    physical read and may evict the least-recently-used resident page
    (writing it back first if dirty).  This yields realistic relative I/O
    costs for index probes versus scans without an actual disk.

    One {e logical read} is one pager access ({!read} or {!write}): for
    the B+-tree, a level of a descent or a crossing from one leaf to its
    sibling.  Steps within a leaf a cursor has pinned do not reach the
    pager and are not counted.

    The page table is an array indexed by page id, so an access is an
    array load; refreshing the LRU position of the most recently used
    page is skipped, as it is already in place. *)

type id = int
(** Page identifier, dense from 0. *)

type 'a t

type 'a codec = { encode : 'a -> string; decode : string -> 'a }
(** Payload serializer for the file backend.  [decode (encode p)] must be
    equivalent to [p]; the disk layer guards the bytes in between with
    checksums, so [decode] may assume well-formed input. *)

type 'a backend =
  | Mem
      (** The simulated disk: payloads stay in the process, eviction only
          flips residency bits.  The historical default. *)
  | File of { disk : Disk.t; pool : Disk.pool; codec : 'a codec }
      (** Real files: a dirty page is encoded and written through to the
          {!Disk} pool on eviction/flush, and its in-memory payload is
          dropped when non-resident, so a pool smaller than the data makes
          physical reads cost actual file I/O. *)

val create : ?label:string -> ?pool_pages:int -> ?backend:'a backend -> unit -> 'a t
(** [create ~label ~pool_pages ()] — a pager whose buffer pool holds at
    most [pool_pages] resident pages (default 1024 ≈ 4 MiB of 4 KiB
    pages).  [label] (default ["pager"]) names the pool in telemetry
    events and introspection output.  [backend] defaults to {!Mem}.
    @raise Invalid_argument if [pool_pages < 1]. *)

val attach : ?label:string -> ?pool_pages:int -> backend:'a backend -> unit -> 'a t
(** Reopen a pager over existing pages of a {!File} backend: every page id
    the disk pool holds becomes a non-resident clean entry, and allocation
    continues after the highest existing id.
    @raise Invalid_argument on a {!Mem} backend. *)

val backend : 'a t -> 'a backend
val label : 'a t -> string

val pool_pages : 'a t -> int
(** The configured pool capacity in pages. *)

val default_page_bytes : int
(** Nominal page size used to translate pool sizes to bytes: 4096. *)

val alloc : 'a t -> 'a -> id
(** Allocate a new page with the given payload; the page enters the pool
    resident and dirty. *)

val read : 'a t -> id -> 'a
(** Fetch a page's payload, updating LRU/statistics.  Allocates nothing
    on the {!Mem} backend.
    @raise Invalid_argument on an unknown, freed or negative id. *)

val write : 'a t -> id -> 'a -> unit
(** Replace a page's payload, marking it dirty (counts as a logical
    access). @raise Invalid_argument on an unknown id. *)

val free : 'a t -> id -> unit
(** Release a page. @raise Invalid_argument on an unknown id. *)

val flush : 'a t -> unit
(** Write back all dirty resident pages (counts page writes). *)

val page_count : 'a t -> int
(** Number of live (allocated, not freed) pages; linear in the highest
    id, for introspection. *)

val resident_count : 'a t -> int
val stats : 'a t -> Stats.t
(** The pager's live counters (mutated in place by operations). *)
