(** Typed access to simulated memory regions.

    A region is a byte buffer (normally one buffer-pool frame) plus the
    base address it occupies in the simulated physical address space.
    The charged accessors drive the cache simulator and the busy-cycle
    cost model; the [peek_*] variants bypass both and exist for invariant
    checkers, test oracles and debug printers.

    Every charged write also widens the region's written {!Span}, so a
    write-ahead log can diff only the bytes an operation wrote.

    All multi-byte values are little-endian. *)

(** The bytes of a page written since its owner last cleared the span:
    [[lo, hi)], empty when [lo >= hi].  [lo < 0] means the bytes also
    changed outside [Mem] (zero-fill, corruption, repair, redo), so the
    whole page must be treated as written until the next {!Span.clear}.
    Widening is O(1) and allocates nothing. *)
module Span : sig
  type t = private { mutable lo : int; mutable hi : int }

  (** An empty span. *)
  val create : unit -> t

  val clear : t -> unit

  (** Mark the whole page written (a change that bypassed [Mem]). *)
  val mark_all : t -> unit

  val is_all : t -> bool
end

type region = { bytes : Bytes.t; base : int; span : Span.t }

(** A region with a span of its own, which nothing reads. *)
val make : bytes:Bytes.t -> base:int -> region

(** A region whose charged writes widen [span]: the buffer pool passes
    the page's span, which outlives the frame. *)
val make_tracked : span:Span.t -> bytes:Bytes.t -> base:int -> region

val length : region -> int

(** {1 Charged access} *)

val read_u8 : Sim.t -> region -> int -> int
val read_u16 : Sim.t -> region -> int -> int
val read_i32 : Sim.t -> region -> int -> int
val write_u8 : Sim.t -> region -> int -> int -> unit
val write_u16 : Sim.t -> region -> int -> int -> unit
val write_i32 : Sim.t -> region -> int -> int -> unit

(** Bulk copy between (possibly identical) regions; touches every source
    and destination line and charges copy throughput, so array-shift
    data movement costs what the paper says it costs. *)
val blit : Sim.t -> region -> int -> region -> int -> int -> unit

val fill_zero : Sim.t -> region -> int -> int -> unit

(** [move_in sim r ~off ~len s ~at] stores a [len]-byte record at [off]
    in one move: one busy cycle per [move_bytes_per_cycle] bytes plus
    one, and every line of [[off, off + len)].  Of the record, it lays
    down host string [s] at [at]; the caller writes the rest with
    charged writes of its own. *)
val move_in : Sim.t -> region -> off:int -> len:int -> string -> at:int -> unit

(** Software prefetch of [len] bytes at [off]: one busy cycle per prefetch
    instruction issued, lines enter the miss pipeline. *)
val prefetch : Sim.t -> region -> off:int -> len:int -> unit

(** {1 Charged entry walk} *)

(** [walk_pairs sim r ~keys ~values ~n ~hi i f] walks a node's [n]
    entries forward: parallel arrays of 4-byte keys at byte offset [keys]
    and 4-byte values at [values].  From entry [i] ([0 <= i]), it calls
    [f k v] on each entry while its key [k] is at most [hi], and returns
    the first index it did not consume: the entry whose key lies above
    [hi], or [n].  Each consumed entry costs what [read_i32] of its key
    and then of its value costs, in the same order; the key above [hi]
    is not read.  A range scan seeks its start key before the walk, so
    no lower bound is tested here.

    Entries are charged one cache-line window at a time, all of a
    window's loads after its callbacks, so [f] must do no charged work
    (and a window whose callback raises is not charged).  Raises
    [Invalid_argument] if the simulated clock moved across a window's
    callbacks. *)
val walk_pairs :
  Sim.t ->
  region ->
  keys:int ->
  values:int ->
  n:int ->
  hi:int ->
  int ->
  (int -> int -> unit) ->
  int

(** [write_pairs sim r ~keys ~values src pos n] stores the [n] pairs
    [src.(pos)] .. [src.(pos + n - 1)] as entries [0 .. n - 1] of a
    node: each key at byte offset [keys + 4 i], each value at
    [values + 4 i].  It leaves the bytes, the span, the clock, the cache
    and the statistics as [write_i32] of each key and then its value
    would, charging one cache-line window at a time as {!walk_pairs}
    does.
    @raise Invalid_argument, storing and charging nothing, if a pair
    lies outside [src] or an entry outside [r]. *)
val write_pairs :
  Sim.t -> region -> keys:int -> values:int -> (int * int) array -> int -> int -> unit

(** {1 Uncharged reads (checkers and oracles only)} *)

val peek_u8 : region -> int -> int
val peek_u16 : region -> int -> int
val peek_i32 : region -> int -> int
