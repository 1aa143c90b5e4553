(** Two-level data-cache simulator with software prefetch.

    Timing model: a demand miss to memory completes at
    [max (now + T1) (last_completion + Tnext)], so a batch of prefetches
    issued back-to-back for a w-line node costs [T1 + (w-1)*Tnext] once
    the node is accessed — the pB+-Tree cost model (paper, Section 3.1.1).
    The pipeline is kept as a {!Timeline} of [Tnext]-long slots, so a
    client the multi-client driver replays at an earlier time uses the
    gaps between other clients' bursts; on a monotone clock the slots
    chain back to back and the formula above is exact.

    L1 is set-associative with LRU replacement; L2 is direct-mapped.
    Stores are modeled like loads.  Software prefetches occupy one of a
    bounded number of miss handlers; issuing one when all handlers are
    busy stalls until the oldest retires. *)

type t

val create : Config.t -> Clock.t -> Stats.t -> t

(** Drop all cached lines and in-flight prefetches. *)
val flush : t -> unit

(** Demand access (load or store) to a byte address: advances the clock by
    any stall and updates the statistics. *)
val access : t -> int -> unit

(** Software prefetch of the line holding the given address; non-blocking
    unless all miss handlers are busy.  No-op on cached or in-flight
    lines. *)
val prefetch : t -> int -> unit

(** Access / prefetch every line overlapping [addr, addr+len). *)
val access_range : t -> int -> int -> unit

val prefetch_range : t -> int -> int -> unit

(** Drop cached or in-flight copies of a byte range (used when a buffer
    frame is reassigned: DMA'd contents must not produce stale hits). *)
val invalidate_range : t -> int -> int -> unit

(** Number of cache lines overlapping [addr, addr+len). *)
val lines_in : t -> int -> int -> int
