(** Slotted nodes for variable-length keys (the paper defers
    variable-length keys to its full version; this is the classic
    slotted-page organisation applied at node granularity so the
    fpB+-Tree in-page scheme carries over).

    A node occupies [size] bytes at byte offset [off] of a region:
    a 12-byte header (entry count, heap top, next/prev links, flags,
    leftmost child), then a slot array of 2-byte entry offsets in key
    order, with the entry heap growing downward from the end of the
    node.  An entry is [u8 klen | key bytes | 4-byte pointer].

    All charged accessors run on the simulated machine — they touch the
    cache lines they read and charge compare/copy work; the [peek_*]
    variants are uncharged and exist for checkers. *)

open Fpb_simmem

(** Header size in bytes (before the slot array). *)
val header : int

(** Longest representable key ([klen] is one byte). *)
val max_key_len : int

(** {1 Header field offsets} (for {!v}/{!setv}/{!peek}) *)

val o_n : int  (** u16 entry count *)

val o_next : int  (** u16 forward chain link, user-defined units *)

val o_prev : int  (** u16 backward chain link, user-defined units *)

val o_leftmost : int
(** u16 extra "child 0" pointer of nonleaf nodes (the classic
    n-keys/(n+1)-children convention), user-defined units *)

(** A node: a [size]-byte window at byte [off] of region [r]. *)
type node = { r : Mem.region; off : int; size : int }

(** [v sim nd field] is the charged read of header [field] (one of the
    [o_*] offsets above). *)
val v : Sim.t -> node -> int -> int

val setv : Sim.t -> node -> int -> int -> unit

(** Uncharged header read (checkers). *)
val peek : node -> int -> int

(** Format [nd] as an empty node. *)
val init : Sim.t -> node -> leaf:bool -> unit

val count : Sim.t -> node -> int
val is_leaf : Sim.t -> node -> bool

(** On-node footprint of an entry holding [key]: length byte + key +
    pointer. *)
val entry_bytes : string -> int

(** Charged read of the key in slot [i]. *)
val key_at : Sim.t -> node -> int -> string

val ptr_at : Sim.t -> node -> int -> int
val set_ptr_at : Sim.t -> node -> int -> int -> unit

(** First slot whose key is [>= key] ([`Lower]) or [> key] ([`Upper]);
    charged binary search over the slot array. *)
val find : Sim.t -> node -> key:string -> [ `Lower | `Upper ] -> int

(** [insert_at sim nd ~i key ptr] inserts at slot [i]; [false] if the
    node lacks space.
    @raise Invalid_argument if [key] exceeds {!max_key_len}. *)
val insert_at : Sim.t -> node -> i:int -> string -> int -> bool

(** All (key, ptr) entries in slot order (charged). *)
val entries : Sim.t -> node -> (string * int) list

(** Rebuild the node from scratch with the given entries (compacts the
    heap).  Preserves links/flags/leftmost.
    @raise Failure if the entries do not fit. *)
val rebuild : Sim.t -> node -> (string * int) list -> unit

(** {1 Uncharged entry access (checkers)} *)

val peek_key : node -> int -> string
val peek_ptr : node -> int -> int
