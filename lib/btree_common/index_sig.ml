(* The common interface implemented by every disk-resident index structure
   in this repository.  Keys are unique integers (see [Key]); values are
   tuple IDs.  [bulkload] expects strictly increasing keys.  All charged
   operations run on the simulated machine; [check] and [iter] are
   uncharged and exist for tests. *)

module type S = sig
  type t

  val name : string

  (* An empty index backed by the given buffer pool, tuned for its page
     size. *)
  val create : Fpb_storage.Buffer_pool.t -> t

  (* Bulk-build from strictly-increasing (key, tuple id) pairs, filling
     nodes to [fill] (0 < fill <= 1). *)
  val bulkload : t -> (int * int) array -> fill:float -> unit

  val search : t -> int -> int option

  (* Batched lookup: semantically [Array.map (search t) keys] (result
     slot [i] answers [keys.(i)]; keys may repeat and may be absent),
     executed as sorted level-wise waves that visit each tree node once
     per wave however many probes route through it, prefetching the next
     level's frontier while searching the current one (docs/BATCHING.md).

     Accounting convention: a node shared by k probes of one wave counts
     ONE page access — one [level_accesses] bump, one [node_access]
     trace event, one buffer-pool pin — plus k-1 probe-routings
     reported under [batch.dup_probes] (with the node itself counted in
     [batch.shared_nodes]).  [level_accesses] therefore counts physical
     page accesses under both disciplines and stays comparable between
     them; divide throughput differences by [batch.dup_probes] to see
     how much of the win is sharing.  Under buffer-pool frame exhaustion
     ([Buffer_pool.Overloaded]) the batch splits and retries smaller,
     down to singleton [search] — only a singleton that still cannot
     pin a page surfaces [Overloaded], exactly as [search] would. *)
  val search_batch : t -> int array -> int option array

  val insert : t -> int -> int -> [ `Inserted | `Updated ]

  (* Lazy deletion: removes the entry if present, never merges nodes. *)
  val delete : t -> int -> bool

  (* In-order scan of keys in [start_key, end_key]; returns the number of
     entries visited.  [prefetch] enables jump-pointer-array prefetching
     where the structure supports it (default true).  The callback must
     do no charged work: the scan charges a cache line's worth of entry
     loads at once, after their callbacks, and raises
     [Invalid_argument] if simulated time moved across them. *)
  val range_scan :
    t -> ?prefetch:bool -> start_key:int -> end_key:int -> (int -> int -> unit) -> int

  (* Page levels in the tree (1 = root is a leaf page). *)
  val height : t -> int

  (* Pages owned by the index, including any auxiliary structures. *)
  val page_count : t -> int

  (* The index's per-level node-access accounting and trace sink:
     uncharged host-side bookkeeping for the telemetry layer. *)
  val level_acc : t -> Level_acc.t

  (* Durable handle metadata: the mutable OCaml-side state (root page,
     height, page counts, auxiliary-structure heads) that page contents
     alone cannot rebuild.  [meta] is captured by every WAL commit;
     [restore_meta] resets a handle to metadata returned by crash
     recovery.  Uncharged.  [restore_meta t (meta t)] is the identity. *)
  val meta : t -> int list
  val restore_meta : t -> int list -> unit

  (* Validate structural invariants; raises [Failure] with a description on
     violation.  Uncharged. *)
  val check : t -> unit

  (* In-order uncharged iteration over all entries (test oracle). *)
  val iter : t -> (int -> int -> unit) -> unit
end

type instance = Instance : (module S with type t = 'a) * 'a -> instance

let search (Instance ((module M), t)) k = M.search t k
let search_batch (Instance ((module M), t)) ks = M.search_batch t ks
let insert (Instance ((module M), t)) k v = M.insert t k v
let delete (Instance ((module M), t)) k = M.delete t k
let bulkload (Instance ((module M), t)) pairs ~fill = M.bulkload t pairs ~fill

let range_scan (Instance ((module M), t)) ?prefetch ~start_key ~end_key f =
  M.range_scan t ?prefetch ~start_key ~end_key f

(* Page accesses per tree level since the last reset, slot 0 = root. *)
let level_accesses (Instance ((module M), t)) =
  Level_acc.counts (M.level_acc t) ~levels:(M.height t)

let reset_level_accesses (Instance ((module M), t)) =
  Level_acc.reset (M.level_acc t)

(* Attach (or with [None] detach) a trace sink; node visits during
   descents emit [node_access] events into it. *)
let set_trace (Instance ((module M), t)) tr =
  Level_acc.set_trace (M.level_acc t) tr

let height (Instance ((module M), t)) = M.height t
let page_count (Instance ((module M), t)) = M.page_count t
let meta (Instance ((module M), t)) = M.meta t
let restore_meta (Instance ((module M), t)) m = M.restore_meta t m
let check (Instance ((module M), t)) = M.check t

(* amcheck-style verification: [check] as data — [Ok pages_owned] on
   success, [Error description] on the first violation — so scrub/chaos
   harnesses can keep going and count.  Uncharged. *)
let check_invariants (Instance ((module M), t)) =
  match M.check t with
  | () -> Ok (M.page_count t)
  | exception Failure msg -> Error msg

let iter (Instance ((module M), t)) f = M.iter t f
let name (Instance ((module M), _)) = M.name
