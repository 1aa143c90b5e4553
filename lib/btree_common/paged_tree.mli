(** Generic B+-Tree over "array pages": pages holding a sorted key array
    and a parallel pointer array at format-chosen offsets.  The format
    decides how a page is searched (plain binary search for the
    disk-optimized baseline; micro-index + sub-array search for
    micro-indexing) and what bookkeeping follows an update.  Both
    formats share the descent, the in-page insert and split, range scans
    with jump-pointer prefetching and the per-page invariants; the page
    level (sibling splice, bulkload levels, split propagation, leaf walk,
    leaf-chain check) is {!Page_chain}'s.

    Sibling links are kept at every level (as the paper's DB2
    implementation does); the leaf-parent level doubles as the internal
    jump-pointer array for range-scan I/O prefetching (Section 2.2). *)

open Fpb_simmem

(** What a page format must supply to instantiate the tree. *)
module type PAGE_FORMAT = sig
  val name : string

  type cfg

  val cfg_of_page_size : int -> cfg
  val fanout : cfg -> int

  (** Byte offset of key slot 0 / pointer slot 0.  Slot [i] lives [4i]
      bytes further. *)
  val key_base : cfg -> int

  val ptr_base : cfg -> int

  (** Position of [key] in the page's sorted key array using the
      format's search strategy (including any prefetching): [`Lower] =
      first slot with a key >= [key]; [`Upper] = first slot with a key
      > [key]. *)
  val find_slot :
    Sim.t -> cfg -> Mem.region -> n:int -> key:int -> [ `Lower | `Upper ] -> int

  (** Entries [from, n) just changed (shift, split, bulk fill); update
      any derived in-page structures. *)
  val entries_updated : Sim.t -> cfg -> Mem.region -> n:int -> from:int -> unit
end

module Make (F : PAGE_FORMAT) : Index_sig.S
