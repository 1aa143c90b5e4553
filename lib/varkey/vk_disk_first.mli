(** Disk-first fpB+-Tree for variable-length keys (the extension the paper
    defers to its full version): in-page trees of slotted nodes, every
    node prefetched in full before it is searched.  Keys are byte strings
    of 1..48 bytes, ordered lexicographically; values are 4-byte tuple
    IDs.  Uses the classic n-keys/(n+1)-children convention with promotion
    at both node and page granularity. *)

type cfg = {
  page_size : int;
  page_lines : int;
  w : int;  (** nonleaf in-page node lines *)
  x : int;  (** leaf in-page node lines *)
  avg_key_len : int;
}

type t

val name : string

(** [create ~avg_key_len pool] — node widths are tuned for the expected
    key length (default 20 bytes). *)
val create : ?avg_key_len:int -> Fpb_storage.Buffer_pool.t -> t

val cfg : t -> cfg

val search : t -> string -> int option
val insert : t -> string -> int -> [ `Inserted | `Updated ]

(** Build from sorted unique keys by repeated insertion. *)
val bulkload : t -> (string * int) array -> unit

val height : t -> int
val page_count : t -> int

(** {1 Uncharged introspection (tests)} *)

val check : t -> unit
val iter : t -> (string -> int -> unit) -> unit
