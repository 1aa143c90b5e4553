(** Prefetching B+-Tree (pB+-Tree, Chen/Gibbons/Mowry SIGMOD 2001): the
    paper's cache-optimized comparator and the model for fpB+-Tree
    in-page trees.  Memory-resident; nodes are several cache lines wide
    and prefetched in full before being searched, so a w-line node costs
    T1 + (w-1)*Tnext instead of one miss per probed line.

    This is the subset Figure 3(b) measures: a tree is bulkloaded once,
    then searched.  It has no updates and no range scan. *)

type t

val name : string

(** [create ~node_lines sim] — node width in cache lines (default 8, the
    tuned value for the paper's memory parameters). *)
val create : ?node_lines:int -> Fpb_simmem.Sim.t -> t

val bulkload : t -> (int * int) array -> fill:float -> unit
val search : t -> int -> int option

(** Node levels. *)
val height : t -> int

val capacity : t -> int

(** Bytes of simulated memory held by the tree's arena. *)
val allocated_bytes : t -> int

(** {1 Uncharged introspection (tests)} *)

val check : t -> unit

val iter : t -> (int -> int -> unit) -> unit
