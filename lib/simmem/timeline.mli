(** Busy intervals of one shared resource (a latch, the memory pipeline),
    in absolute simulated time.

    The multi-client driver replays each logical client at its own local
    time, so a client can reach a resource "earlier" than requests the
    host already executed for other clients.  A single free-at watermark
    would make it wait behind all of them; a timeline keeps the disjoint
    spans [\[start, end)] during which the resource is busy and lets the
    client use any gap.

    Spans are kept sorted, disjoint and non-adjacent (touching spans
    merge).  Requests at or after the last span's start cost O(1);
    others cost a binary search plus a shift.
    Nothing allocates except when the arrays double. *)

type t

(** [create ~floor] is an empty timeline.  [floor ()] must be a time no
    future request can start before ({!Clock.floor} for a latch): spans
    ending at or before it may be dropped whenever the timeline needs
    room.  It is called only then, never on a hot path. *)
val create : floor:(unit -> int) -> t

(** Forget every span. *)
val clear : t -> unit

(** Number of spans currently kept, including spans already below the
    floor that have not been dropped yet. *)
val length : t -> int

(** [free_from t at] is the earliest time [>= at] that lies in no span:
    [at] itself, or the end of the span containing it. *)
val free_from : t -> int -> int

(** [fit t ~at ~len] is the earliest [s >= at] such that
    [\[s, s + len)] overlaps no span.  [len <= 0] behaves as
    [free_from t at]. *)
val fit : t -> at:int -> len:int -> int

(** [add t s e] marks [\[s, e)] busy, merging it with every span it
    overlaps or touches, and returns whether it overlapped one (a span
    that only touches it does not count).  Empty spans ([e <= s]) are
    ignored. *)
val add : t -> int -> int -> bool
