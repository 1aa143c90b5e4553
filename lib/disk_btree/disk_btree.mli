(** Traditional disk-optimized B+-Tree (paper, Figure 3(a)): every node is
    one page holding a large sorted key array and a parallel pointer
    array, searched by plain binary search.  This is the cache-hostile
    baseline the paper starts from — a search touches O(log2 fanout)
    cache lines of the key array, almost all of them misses.

    Tree mechanics (descent, splits, bulkload, jump-pointer range scans)
    come from {!Fpb_btree_common.Paged_tree}; this module only supplies
    the page layout and its binary search. *)

(** The full common index interface ({!Fpb_btree_common.Index_sig.S},
    which also states [search_batch]'s accounting convention). *)
include Fpb_btree_common.Index_sig.S

