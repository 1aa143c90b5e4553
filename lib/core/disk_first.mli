(** Disk-first fpB+-Tree (paper, Section 3.1): a disk-optimized B+-Tree
    whose pages are organised internally as small cache-optimized trees
    ("in-page trees") with pB+-Tree-style node prefetching.

    - In-page nonleaf nodes are [w] cache lines with 2-byte in-page child
      offsets; in-page leaf nodes are [x] lines with 4-byte page/tuple IDs;
      (w, x) come from {!Fpb_btree_common.Tuning} (Table 2).
    - Insertion follows Section 3.1.2: in-page node split if lines are
      free, else in-page reorganisation, else page split.
    - Range scans use internal jump-pointer arrays at both granularities:
      leaf-parent pages' in-page leaf chains for leaf-page I/O prefetch,
      and per-page leaf-node prefetch at cache granularity, with the
      "don't overshoot the end key" fix.

    This is the variant the paper recommends by default, for its minimal
    I/O impact. *)

type cfg = {
  page_size : int;
  page_lines : int;
  w : int;  (** nonleaf node lines *)
  x : int;  (** leaf node lines *)
  fn : int;  (** nonleaf node capacity *)
  fl : int;  (** leaf node capacity *)
  max_fanout : int;  (** tuned page fan-out *)
  max_leaves : int;  (** most in-page leaf nodes a page can hold *)
}

type t

val name : string

(** Empty tree over the pool, node sizes tuned for its page size. *)
val create : Fpb_storage.Buffer_pool.t -> t

(** Empty tree with forced node widths (the Figure 11 width sweep). *)
val create_custom : Fpb_storage.Buffer_pool.t -> w:int -> x:int -> t

val cfg : t -> cfg

(** Pages of leaves prefetched ahead during range scans (default 16). *)
val set_io_prefetch_distance : t -> int -> unit

(** Ablation knobs: cache-granularity leaf-node prefetch within scanned
    pages (default on); bounding a scan's I/O prefetch at the end
    page (default on — off reproduces overshooting). *)
val set_cache_prefetch_leaves : t -> bool -> unit

val set_bound_scan_end : t -> bool -> unit

(** {1 Operations (see {!Fpb_btree_common.Index_sig.S})} *)

val bulkload : t -> (int * int) array -> fill:float -> unit
val search : t -> int -> int option

(** Batched lookup through {!Fpb_btree_common.Wave}; semantics and
    accounting as in {!Fpb_btree_common.Index_sig.S}. *)
val search_batch : t -> int array -> int option array

val insert : t -> int -> int -> [ `Inserted | `Updated ]
val delete : t -> int -> bool

val range_scan :
  t -> ?prefetch:bool -> start_key:int -> end_key:int -> (int -> int -> unit) -> int

val height : t -> int
val page_count : t -> int

(** Durable handle metadata ([root; levels; n_pages]) captured by WAL
    commits, and its inverse for crash recovery. *)
val meta : t -> int list

val restore_meta : t -> int list -> unit

(** {1 Telemetry (uncharged host-side bookkeeping)} *)

val level_acc : t -> Fpb_btree_common.Level_acc.t

(** {1 Uncharged introspection (tests)} *)

val check : t -> unit

val iter : t -> (int -> int -> unit) -> unit
