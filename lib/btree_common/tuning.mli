(** Optimal node-size selection (paper, Section 3.1.1 and Table 2): the
    paper's goal G — maximize the page fan-out while keeping the analytic
    search cost within 10% of the optimum.  Configurations are compared by
    cost / ln(fan-out), which is proportional to the total root-to-leaf
    search cost over any number of keys.  With the layout constants of
    {!Layout} this reproduces the paper's Table 2 (two cells deviate by
    < 2% in fan-out; see EXPERIMENTS.md). *)

type disk_first = {
  df_page_size : int;
  df_w : int;  (** nonleaf in-page node size, lines *)
  df_x : int;  (** leaf in-page node size, lines *)
  df_levels : int;  (** in-page tree levels *)
  df_root_fanout : int;  (** restricted root fan-out (Figure 7(a)) *)
  df_nonleaf_cap : int;
  df_leaf_cap : int;
  df_fanout : int;  (** page fan-out *)
  df_cost : int;  (** analytic in-page search cost, cycles *)
  df_ratio : float;  (** figure of merit relative to the optimum *)
}

type cache_first = {
  cf_page_size : int;
  cf_w : int;  (** node size, lines (leaf and nonleaf) *)
  cf_nodes_per_page : int;
  cf_leaf_cap : int;
  cf_nonleaf_cap : int;
  cf_fanout : int;  (** leaf-page fan-out *)
  cf_cost : int;
  cf_ratio : float;
}

type micro_index = {
  mi_page_size : int;
  mi_sub_lines : int;  (** sub-array size, lines *)
  mi_n_sub : int;  (** number of sub-arrays (micro-index entries) *)
  mi_fanout : int;
  mi_cost : int;
  mi_ratio : float;
}

val disk_first :
  ?t1:int -> ?tnext:int -> ?line_size:int -> page_size:int -> unit -> disk_first

val cache_first :
  ?t1:int -> ?tnext:int -> ?line_size:int -> page_size:int -> unit -> cache_first

val micro_index :
  ?t1:int -> ?tnext:int -> ?line_size:int -> page_size:int -> unit -> micro_index
