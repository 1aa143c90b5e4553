(** External jump-pointer array (paper Section 3.3 and [6]): a chunked
    linked list of leaf-page IDs used to prefetch the leaves of a range
    scan.  Chunks are ordinary pages, bulkloaded with gaps so insertions
    rarely split a chunk; every leaf page records its chunk, and chunk
    splits re-point moved pages through [on_assign]. *)

type t

(** Header offsets of a chunk page's links to its neighbour chunks. *)
val links : Fpb_btree_common.Page_chain.links

val create : Fpb_storage.Buffer_pool.t -> t

(** Chunk pages currently allocated. *)
val page_count : t -> int

(** Bulk-build from page IDs in order, filling chunks to [fill];
    [on_assign page ~chunk] records each page's chunk. *)
val build :
  t -> int array -> fill:float -> on_assign:(int -> chunk:int -> unit) -> unit

(** Insert [new_page] immediately after [after_page] within [chunk]
    ([after_page] = nil inserts at the chunk's front); splits the chunk
    when full, re-pointing moved pages via [on_assign]. *)
val insert_after :
  t ->
  chunk:int ->
  after_page:int ->
  new_page:int ->
  on_assign:(int -> chunk:int -> unit) ->
  unit

(** Cursor over the array, for incremental prefetch pumping. *)
type cursor

(** Cursor positioned ON [page] within [chunk]: the next {!next} call
    yields [page] itself. *)
val cursor_at : t -> chunk:int -> page:int -> cursor

val next : cursor -> int option

(** Free every chunk and empty the array (before a bulk rebuild). *)
val reset : t -> unit

(** Durable handle metadata [(head chunk, chunk count)] and its inverse,
    for WAL crash recovery (chunk contents live in pages and are rebuilt
    by redo). *)
val meta : t -> int * int

val restore_meta : t -> head:int -> n_chunks:int -> unit

(** Uncharged: all IDs in order (tests). *)
val peek_all : t -> int list
