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
    busy stalls until the oldest retires.

    In-flight prefetches are a ring of [miss_handlers] slots in issue
    order, and the ring never holds more.  A demand access or an
    invalidation of an in-flight line ends its prefetch, but the slot
    keeps its handler until its completion time.  When a slot retires,
    its line is installed if the line has been prefetched again since
    (retire by line, not by slot).

    A charged access allocates nothing and hashes nothing.  One that
    hits L1 while no prefetch is due to retire, or a prefetch of a line
    already cached, changes only an LRU stamp and the hit count, and
    takes an inline fast path.  The L1 set count and the L2 line count
    must be powers of two, so a line's set is a mask. *)

type t

(** [create cfg clock stats] is an empty cache.  Raises
    [Invalid_argument] if [cfg.miss_handlers < 1] or if the L1 set count
    ([l1_size / (line_size * l1_assoc)]) or the L2 line count
    ([l2_size / line_size]) is not a power of two. *)
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

(** Access every line overlapping [addr, addr+len). *)
val access_range : t -> int -> int -> unit

(** [touch t ~busy addr len] charges [busy] busy cycles, then accesses
    every line overlapping [addr, addr+len): one charged load or store
    of the simulated machine in a single call. *)
val touch : t -> busy:int -> int -> int -> unit

(** [touch_pairs t ~busy a b n] is [n] repetitions of
    [touch t ~busy a 1; touch t ~busy b 1], with the same effect on the
    clock, the statistics and the cache: the charged key and value loads
    of [n] consecutive entries of a node whose keys stay in [a]'s line
    and values in [b]'s.  A run of pairs that all hit L1 while no
    prefetch falls due costs O(1). *)
val touch_pairs : t -> busy:int -> int -> int -> int -> unit

(** [prefetch_range t ~busy_per_line addr len] charges [busy_per_line]
    busy cycles per line overlapping [addr, addr+len), all before the
    first issue, then prefetches each of them. *)
val prefetch_range : t -> busy_per_line:int -> int -> int -> unit

(** Drop cached or in-flight copies of a byte range (used when a buffer
    frame is reassigned: DMA'd contents must not produce stale hits). *)
val invalidate_range : t -> int -> int -> unit
