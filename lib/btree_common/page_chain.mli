(** The page level every paged B+-Tree shares: sibling links in both
    directions at every page level (the paper's DB2 layout), the
    bottom-up bulkload, split propagation up a recorded page path, the
    leaf-page walk and the two-way leaf-chain check.  A tree supplies
    where its two links sit in a page header and callbacks for its own
    page format. *)

open Fpb_simmem
open Fpb_storage

(** Header offsets of a page's two [i32] sibling links, fixed per tree
    by its page layout. *)
type links = { prev : int; next : int }

(** A page's region for [Mem.peek_*] reads; the pin is dropped at once. *)
val peek : Buffer_pool.t -> int -> Mem.region

(** [splice l pool ~page r ~right rr] links [right], just split off
    [page], in as [page]'s right sibling, and points [page]'s old
    successor, if any, back at [right] and marks it dirty.  Marking
    [page] and [right] dirty is left to the caller. *)
val splice :
  links -> Buffer_pool.t -> page:int -> Mem.region -> right:int -> Mem.region -> unit

(** [build l pool ~fanout ~fill ~make pairs] bulkloads non-empty,
    strictly increasing [pairs] one level at a time from the leaves up,
    [max 2 (fanout * fill)] entries a page, and returns the root page and
    the number of page levels.  [make ~leaf entries lo cnt] creates a
    page holding [entries.(lo) .. entries.(lo + cnt - 1)] and returns it
    pinned; the build links it to its left neighbour and unpins it.  A
    nonleaf level's entries are (first key of a child, child page). *)
val build :
  links ->
  Buffer_pool.t ->
  fanout:int ->
  fill:float ->
  make:(leaf:bool -> (int * int) array -> int -> int -> int * Mem.region) ->
  (int * int) array ->
  int * int

(** [propagate ~insert ~grow path sep child] hands a split's separator
    and new right page up [path], nearest parent first: [insert parent
    sep child] returns [Some (sep', right')] when [parent] split in turn,
    and past the root [grow sep child] builds a new root. *)
val propagate :
  insert:(int -> 'k -> int -> ('k * int) option) ->
  grow:('k -> int -> unit) ->
  int list ->
  'k ->
  int ->
  unit

(** [iter_leaves l pool ~root ~down f] calls [f] on each leaf page in
    key order, reached from [root] through [down ~depth page] (the
    leftmost child of the page at [depth], the root's being 1, or [nil]
    at a leaf) and then the next links.  [down] gets a page ID, so a
    tree that knows a leaf by its depth need not read it. *)
val iter_leaves :
  links ->
  Buffer_pool.t ->
  root:int ->
  down:(depth:int -> int -> int) ->
  (Mem.region -> unit) ->
  unit

(** [check l pool pages] fails unless the next links from the first of
    [pages] give exactly [pages] (one chain in order: a tree's leaf
    pages, or a jump-pointer array's chunks) and each prev link names the
    page before it. *)
val check : links -> Buffer_pool.t -> int list -> unit

(** The durable handle [[root; levels; n_pages]] of a tree, and back;
    [restore_meta] raises [Invalid_argument "<name>.restore_meta: bad
    shape"] on any other list. *)
val meta : root:int -> levels:int -> n_pages:int -> int list

val restore_meta : name:string -> int list -> int * int * int
