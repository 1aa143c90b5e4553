(** Named monotonic event counters.

    A counter is a mutable integer with a stable, dot-separated name
    (e.g. ["sim.stall_cycles"]).  The unit is part of the naming
    convention — names ending in [_cycles] count simulated CPU cycles,
    [_ns] simulated nanoseconds, everything else plain events — and every
    name is catalogued in [docs/OBSERVABILITY.md].

    The record is concrete so that a hot path can bump [value] in place.
    Under the dev profile's [-opaque], [add]/[incr] are real cross-module
    calls (one field mutation each); the cache simulator's per-access
    path updates the field directly instead. *)

type t = { name : string; mutable value : int }

(** [make name] is a fresh counter at zero. *)
val make : string -> t

val name : t -> string
val value : t -> int

(** [add t n] adds [n] (which may be negative only when undoing a
    provisional charge; normal sources only ever add). *)
val add : t -> int -> unit

val incr : t -> unit

(** Reset to zero (e.g. between measurement batches). *)
val reset : t -> unit

(** [(name, value)] pair, the shape consumed by registry snapshots. *)
val kv : t -> string * int
