(** Cache-first fpB+-Tree (paper, Section 3.2): a cache-optimized B+-Tree
    of uniform w-line nodes placed intelligently into disk pages —
    leaf-only pages for range-scan I/O, aggressive parent–child
    co-location for search I/O, overflow pages for the leaf parents that
    do not fit.  Nonleaf pointers are full pointers (page ID + in-page
    offset); following a pointer within the current page skips the buffer
    manager.  An external jump-pointer array of leaf page IDs drives
    range-scan I/O prefetching.

    The paper recommends this variant when most of the index is
    memory-resident (slightly better cache behaviour, worse I/O). *)

type cfg = {
  page_size : int;
  page_lines : int;
  w : int;  (** node size in lines *)
  fl : int;  (** leaf node capacity *)
  fn : int;  (** nonleaf node capacity *)
  slots : int;  (** node slots per page *)
}

type t

val name : string
val create : Fpb_storage.Buffer_pool.t -> t

(** Empty tree with a forced node width (the Figure 11 width sweep). *)
val create_custom : Fpb_storage.Buffer_pool.t -> w:int -> t

val cfg : t -> cfg

(** {1 Operations (see {!Fpb_btree_common.Index_sig.S})} *)

val bulkload : t -> (int * int) array -> fill:float -> unit
val search : t -> int -> int option

(** Batched lookup through {!Fpb_btree_common.Wave} over [(page, node)]
    frontiers; semantics and accounting as in
    {!Fpb_btree_common.Index_sig.S}. *)
val search_batch : t -> int array -> int option array

val insert : t -> int -> int -> [ `Inserted | `Updated ]
val delete : t -> int -> bool

val range_scan :
  t -> ?prefetch:bool -> start_key:int -> end_key:int -> (int -> int -> unit) -> int

(** Node levels (the cache-first tree is a tree of nodes, not pages). *)
val height : t -> int

(** All pages owned, including overflow, pool and jump-pointer pages. *)
val page_count : t -> int

(** Pages excluding the external jump-pointer array. *)
val index_page_count : t -> int

(** Durable handle metadata (root pointer, levels, page counts, overflow
    and per-level allocation pages, jump-pointer head) captured by WAL
    commits, and its inverse for crash recovery. *)
val meta : t -> int list

val restore_meta : t -> int list -> unit

(** {1 Telemetry (uncharged host-side bookkeeping)} *)

val level_acc : t -> Fpb_btree_common.Level_acc.t

(** {1 Uncharged introspection (tests)} *)

val check : t -> unit

val iter : t -> (int -> int -> unit) -> unit
