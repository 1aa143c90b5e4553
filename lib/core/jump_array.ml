(* External jump-pointer array (paper Section 3.3 and [6]): a chunked linked
   list of leaf-page IDs used to prefetch the leaves of a range scan.
   Chunks are ordinary pages (so reading the array costs buffer-pool and
   disk work like everything else), bulkloaded with gaps so insertions
   rarely split a chunk.  Every leaf page stores the ID of the chunk that
   holds its entry; a chunk split re-points the moved pages through the
   [on_moved] callback.

   Chunk page layout: 0 i32 next chunk; 4 i32 prev chunk; 8 u16 n;
   12.. page IDs (4B each). *)

open Fpb_simmem
open Fpb_storage
open Fpb_btree_common

let c_next = 0
let c_prev = 4
let c_n = 8
let ids_base = 12
let links = { Page_chain.prev = c_prev; next = c_next }

type t = {
  pool : Buffer_pool.t;
  sim : Sim.t;
  capacity : int;  (* ids per chunk *)
  mutable head : int;  (* first chunk page, nil if empty *)
  mutable n_chunks : int;
}

let nil = Page_store.nil

let create pool =
  let sim = Buffer_pool.sim pool in
  let page_size = Page_store.page_size (Buffer_pool.store pool) in
  { pool; sim; capacity = (page_size - ids_base) / 4; head = nil; n_chunks = 0 }

let page_count t = t.n_chunks

let id_off i = ids_base + (4 * i)

let new_chunk t =
  let page, r = Buffer_pool.create_page t.pool in
  t.n_chunks <- t.n_chunks + 1;
  Mem.write_i32 t.sim r c_next nil;
  Mem.write_i32 t.sim r c_prev nil;
  Mem.write_u16 t.sim r c_n 0;
  (page, r)

(* Bulk-build from page IDs in order, filling chunks to [fill] (gaps absorb
   later insertions).  [on_assign page ~chunk] records each page's chunk. *)
let build t pages ~fill ~on_assign =
  if t.head <> nil then invalid_arg "Jump_array.build: not empty";
  let per = max 1 (int_of_float (float_of_int t.capacity *. fill)) in
  let n = Array.length pages in
  let prev = ref nil in
  let pos = ref 0 in
  while !pos < n do
    let cnt = min per (n - !pos) in
    let chunk, r = new_chunk t in
    Mem.write_u16 t.sim r c_n cnt;
    for j = 0 to cnt - 1 do
      Mem.write_i32 t.sim r (id_off j) pages.(!pos + j);
      on_assign pages.(!pos + j) ~chunk
    done;
    Mem.write_i32 t.sim r c_prev !prev;
    if !prev <> nil then
      Buffer_pool.with_page t.pool !prev (fun pr ->
          Mem.write_i32 t.sim pr c_next chunk;
          Buffer_pool.mark_dirty t.pool !prev)
    else t.head <- chunk;
    Buffer_pool.unpin t.pool chunk;
    prev := chunk;
    pos := !pos + cnt
  done;
  if t.head = nil then begin
    (* empty array still gets one chunk so inserts have a home *)
    let chunk, _r = new_chunk t in
    Buffer_pool.unpin t.pool chunk;
    t.head <- chunk
  end

(* Insert [new_page] immediately after [after_page] in chunk [chunk]
   (after_page = nil inserts at the front of the chunk).  Splits the chunk
   when full; [on_assign] is called for every page whose chunk changes and
   for [new_page]. *)
let insert_after t ~chunk ~after_page ~new_page ~on_assign =
  let r = Buffer_pool.get t.pool chunk in
  Buffer_pool.mark_dirty t.pool chunk;
  let n = Mem.read_u16 t.sim r c_n in
  let pos =
    if after_page = nil then 0
    else begin
      let rec find i =
        if i >= n then
          Fmt.kstr failwith "Jump_array: page %d not in chunk %d" after_page chunk
        else if Mem.read_i32 t.sim r (id_off i) = after_page then i + 1
        else find (i + 1)
      in
      find 0
    end
  in
  if n < t.capacity then begin
    Mem.blit t.sim r (id_off pos) r (id_off (pos + 1)) ((n - pos) * 4);
    Mem.write_i32 t.sim r (id_off pos) new_page;
    Mem.write_u16 t.sim r c_n (n + 1);
    on_assign new_page ~chunk;
    Buffer_pool.unpin t.pool chunk
  end
  else begin
    (* split the chunk, then retry in the correct half *)
    let mid = n / 2 in
    let moved = n - mid in
    let right, rr = new_chunk t in
    Mem.blit t.sim r (id_off mid) rr (id_off 0) (moved * 4);
    Mem.write_u16 t.sim rr c_n moved;
    Mem.write_u16 t.sim r c_n mid;
    for j = 0 to moved - 1 do
      on_assign (Mem.read_i32 t.sim rr (id_off j)) ~chunk:right
    done;
    Page_chain.splice links t.pool ~page:chunk r ~right rr;
    Buffer_pool.mark_dirty t.pool right;
    let target, tr, tn, tpos =
      if pos <= mid then (chunk, r, mid, pos) else (right, rr, moved, pos - mid)
    in
    Mem.blit t.sim tr (id_off tpos) tr (id_off (tpos + 1)) ((tn - tpos) * 4);
    Mem.write_i32 t.sim tr (id_off tpos) new_page;
    Mem.write_u16 t.sim tr c_n (tn + 1);
    on_assign new_page ~chunk:target;
    Buffer_pool.unpin t.pool right;
    Buffer_pool.unpin t.pool chunk
  end

(* Cursor over the array, used to pump range-scan prefetches
   incrementally. *)
type cursor = { arr : t; mutable chunk : int; mutable idx : int }

(* Cursor positioned ON [page] within [chunk] (the next [next] call yields
   [page] itself). *)
let cursor_at t ~chunk ~page =
  let r = Buffer_pool.get t.pool chunk in
  let n = Mem.read_u16 t.sim r c_n in
  let rec find i =
    if i >= n then
      Fmt.kstr failwith "Jump_array.cursor_at: page %d not in chunk %d" page chunk
    else if Mem.read_i32 t.sim r (id_off i) = page then i
    else find (i + 1)
  in
  let idx = find 0 in
  Buffer_pool.unpin t.pool chunk;
  { arr = t; chunk; idx }

let rec next cur =
  if cur.chunk = nil then None
  else begin
    let t = cur.arr in
    let r = Buffer_pool.get t.pool cur.chunk in
    let n = Mem.read_u16 t.sim r c_n in
    if cur.idx < n then begin
      let id = Mem.read_i32 t.sim r (id_off cur.idx) in
      cur.idx <- cur.idx + 1;
      Buffer_pool.unpin t.pool cur.chunk;
      Some id
    end
    else begin
      let nxt = Mem.read_i32 t.sim r c_next in
      Buffer_pool.unpin t.pool cur.chunk;
      cur.chunk <- nxt;
      cur.idx <- 0;
      if nxt = nil then None else next cur
    end
  end

(* Free every chunk and empty the array (used before a bulk rebuild). *)
let reset t =
  let cur = ref t.head in
  while !cur <> nil do
    let r = Buffer_pool.get t.pool !cur in
    let next = Mem.read_i32 t.sim r c_next in
    Buffer_pool.unpin t.pool !cur;
    Buffer_pool.free_page t.pool !cur;
    t.n_chunks <- t.n_chunks - 1;
    cur := next
  done;
  t.head <- nil

(* Durable handle metadata: the chunk-list head and count, for WAL crash
   recovery (chunk contents live in pages and are replayed by redo). *)
let meta t = (t.head, t.n_chunks)

let restore_meta t ~head ~n_chunks =
  t.head <- head;
  t.n_chunks <- n_chunks

(* Uncharged: all IDs in order (tests). *)
let peek_all t =
  let out = ref [] in
  let cur = ref t.head in
  while !cur <> nil do
    let r = Page_chain.peek t.pool !cur in
    let n = Mem.peek_u16 r c_n in
    for i = 0 to n - 1 do
      out := Mem.peek_i32 r (id_off i) :: !out
    done;
    cur := Mem.peek_i32 r c_next
  done;
  List.rev !out
