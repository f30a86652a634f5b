(** Minimal self-contained JSON values with exact round-trip
    serialization (floats re-parse to the same value).  This is the one
    JSON writer of the code base: bus event lines, Chrome traces,
    metrics snapshots, profiles, health tables and the benchmark files
    all build a {!t} and render it here — no external JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite values serialize as [null] *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** One-line rendering (no raw newlines: control characters in strings
    are escaped); object fields keep their given order. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document (the full language: escapes,
    [\uXXXX] decoded to UTF-8, exponents). *)

val equal : t -> t -> bool

val member : string -> t -> t option
(** First field of that name, for [Obj]; [None] otherwise. *)
