(** Global simulated clock shared by the CPU/cache model and the disk
    model.  Unit: nanoseconds (equivalently CPU cycles at 1 GHz). *)

(** [now] reads as a field, without a call; every write goes through
    the functions below, so {!set}'s replay invariant stays enforced. *)
type t = private {
  mutable now : int;
  mutable replaying : bool;  (** between {!set} and {!join} *)
  mutable floor_at : int;  (** the last {!set} value *)
}

val create : unit -> t
val now : t -> int

(** Advance by a relative amount of time (>= 0). *)
val advance : t -> int -> unit

(** Move the clock forward to an absolute time, e.g. an I/O completion.
    Never moves backwards. *)
val advance_to : t -> int -> unit

(** Set the clock to an absolute time, possibly rewinding it.  Reserved
    for the multi-client scheduler, which replays each logical client at
    its own local time and never dispatches earlier than its previous
    dispatch: during a replay (until {!join}), a [set] below the previous
    one raises [Invalid_argument], since timelines have already dropped
    spans below it.  Shared resources kept as busy-interval timelines
    ({!Timeline}) let a rewound client use the gaps between other
    clients' spans.  That is exact for the memory pipeline's fixed-length
    slots; a shard-latch hold's length is unknown when it starts, so a
    hold may run into one already executed (counted in
    [pool.shard.overlaps]), which understates waiting.  Resources kept as
    a single free-at watermark (disks, the WAL log force, the CPU-cache
    miss handlers) make it queue behind everything already executed on
    them, which overstates waiting. *)
val set : t -> int -> unit

(** [join t when_] ends a replay started by {!set}: every logical client
    has finished by [when_], which becomes [now], and the clock is
    monotone again from there. *)
val join : t -> int -> unit

(** The lowest time any future [now] can take: the last {!set} value
    during a replay, [now] otherwise.  Timelines drop spans that end at
    or before it. *)
val floor : t -> int

val reset : t -> unit
