(** Read-footprint analysis: static query–update interference.

    An abstract interpretation over compiled plans computing a
    conservative {e read footprint} — everything a plan's result can
    depend on, expressed in the same vocabulary {!Mass.Store} uses to
    describe mutations:

    - {b tags}: name-index tags ({!Mass.Store.tag_of} spelling) whose
      posting lists the plan reads — element names, ["@attr"] for
      attributes, ["#text"], ["#comment"], ["#pi"], ["#document"];
    - {b kinds}: record kinds read through a wildcard or [node()] test,
      where no finite tag set covers the read;
    - {b values}: value-index keys probed by [value::'v'] steps;
    - {b cones}: element tags (or ["#document"], or the wildcard ["*"])
      whose XPath {e string-value} — concatenated descendant text — the
      plan compares or converts, so a text insertion anywhere below such
      an element interferes even though the element record itself never
      changes.

    The soundness contract (proved on the bounded domain by the
    {!Smallcheck} interference family): if {!intersects} is [false] for
    every {!Mass.Store.write_delta} recorded since a cached result was
    computed, the result is provably still the answer the engine would
    compute now.  The analysis errs upward only: unknown constructs
    (variables, unrecognized functions) collapse the footprint to ⊤,
    never to a smaller set.

    Footprints are context-free: they cover the plan's reads under {e
    any} context node, so one footprint serves every cached (plan,
    context) entry. *)

type t

val empty : t
(** Reads nothing: no update can interfere. *)

val top : t
(** ⊤ — may read anything; every update interferes. *)

val is_top : t -> bool
val is_empty : t -> bool

val union : t -> t -> t

val subsumes : t -> t -> bool
(** [subsumes a b]: every atom of [b] is an atom of [a] (⊤ subsumes
    everything), so every write delta intersecting [b] intersects [a]. *)

val of_plan : Plan.op -> t
(** Footprint of one compiled plan: every context-chain step, predicate
    sub-plan and generic-expression fallback contributes its atoms. *)

val of_plans : Plan.op list -> t
(** Union over a prepared query's union branches. *)

val intersects : t -> Mass.Store.write_delta -> bool
(** [true] when the update described by the delta {e may} change this
    plan's result (⊤ on either side intersects everything).  [false] is
    a proof of non-interference. *)

val atoms : t -> string list
(** Sorted human-readable atom listing, e.g. [["cone:*"; "kind:element";
    "tag:person"; "value:x"]]; [["top"]] for ⊤. *)

val to_string : t -> string
(** One-line rendering of {!atoms}, ["⊤"] for top, ["∅"] for empty. *)

val to_json : t -> Profile.Json.t
(** [{"top": bool, "tags": […], "kinds": […], "values": […],
    "cones": […]}] — the shape [vamana footprint --json] and
    [lint --json] embed. *)
