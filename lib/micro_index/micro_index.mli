(** Micro-indexing (Lomet [16]; paper, Figure 4): a disk-optimized
    B+-Tree page whose key array is divided into cache-line-aligned
    sub-arrays, with a small in-page micro-index holding the first key of
    every sub-array.  A search prefetches and searches the micro-index to
    pick a sub-array, then prefetches and binary-searches only that
    sub-array — good search locality.  Updates still shift the big
    arrays (and refresh the micro-index), which is why the paper finds
    its update performance as poor as the plain B+-Tree's.

    Tree mechanics come from {!Fpb_btree_common.Paged_tree}; this module
    only supplies the page layout and the two-phase search.  Sub-array
    size and fan-out come from {!Fpb_btree_common.Tuning} (Table 2). *)

(** The full common index interface ({!Fpb_btree_common.Index_sig.S},
    which also states [search_batch]'s accounting convention). *)
include Fpb_btree_common.Index_sig.S

