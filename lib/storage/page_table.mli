(** A buffer-pool shard's page table: page id -> frame.

    An int-keyed hash table that allocates nothing after [create]: open
    addressing with linear probing over two flat int arrays, and
    backward-shift deletion.  Each lookup is a multiply, a shift and a
    short probe, with no call into [Stdlib.Hashtbl]'s functor.  The table is never iterated, so its
    layout reaches no simulated number. *)

type t

(** [create n] is an empty table of at least [n] slots (and at least
    8), of which at most half may be used: a shard of [f] frames, each
    holding at most one page, sizes it [2 * f]. *)
val create : int -> t

(** The frame of a page, or [-1] if the page has none. *)
val find : t -> int -> int

val mem : t -> int -> bool

(** [replace t page frame] maps [page] to [frame], replacing any
    previous frame.
    @raise Invalid_argument if [page] is [min_int], [frame] is negative,
    or a new mapping would use more than half the slots. *)
val replace : t -> int -> int -> unit

(** [remove t page] drops [page]'s mapping; a no-op if it has none. *)
val remove : t -> int -> unit

val length : t -> int

(** {2 Layout, for tests} *)

(** Number of slots, a power of two. *)
val capacity : t -> int

(** The slot where [page]'s probe starts, in [0, capacity t). *)
val home : t -> int -> int
