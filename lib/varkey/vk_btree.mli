(** Baseline disk-optimized B+-Tree for variable-length keys: each page is
    one big slotted node searched by binary search through the slot
    indirection — the cache-hostile comparator for {!Vk_disk_first}. *)

type t

val name : string
val create : Fpb_storage.Buffer_pool.t -> t
val search : t -> string -> int option
val insert : t -> string -> int -> [ `Inserted | `Updated ]

(** Build from sorted unique keys by repeated insertion. *)
val bulkload : t -> (string * int) array -> unit

val height : t -> int
val page_count : t -> int

(** {1 Uncharged introspection (tests)} *)

val check : t -> unit
val iter : t -> (string -> int -> unit) -> unit
