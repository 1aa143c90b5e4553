(* Generic B+-Tree over "array pages": pages holding a sorted key array and
   a parallel pointer array at format-chosen offsets.  The format decides
   how a page is searched (plain binary search for the disk-optimized
   baseline; micro-index + sub-array search for micro-indexing) and what
   bookkeeping follows an update (e.g. refreshing the micro-index).  This
   functor holds what both formats share inside a page: descent, the
   in-page insert and split, the untrusted-minimum fix, range scans with
   jump-pointer prefetching and the per-page invariants.  The page level
   every paged tree shares — sibling splice, bulkload levels, split
   propagation, leaf walk, leaf-chain check — is [Page_chain]'s.

   Nonleaf routing convention: a nonleaf with n entries has keys k_0..k_n-1
   and children c_0..c_n-1, where child c_i holds keys in [k_i, k_i+1) for
   i >= 1 and c_0 holds everything below k_1 (k_0 is not trusted as a lower
   bound, so ever-smaller inserts need no separator maintenance).

   Sibling links are kept at every level (as the paper's DB2 implementation
   does); the leaf-parent level doubles as the internal jump-pointer array
   for range-scan I/O prefetching (Section 2.2), including the
   "don't overshoot the end key" fix. *)

open Fpb_simmem
open Fpb_storage

module type PAGE_FORMAT = sig
  val name : string

  type cfg

  val cfg_of_page_size : int -> cfg
  val fanout : cfg -> int

  (* Byte offset of key slot 0 / pointer slot 0.  Slot i lives 4i bytes
     further. *)
  val key_base : cfg -> int
  val ptr_base : cfg -> int

  (* Position of [key] in the page's sorted key array using the format's
     search strategy (including any prefetching): [`Lower] = first slot with
     a key >= [key]; [`Upper] = first slot with a key > [key]. *)
  val find_slot :
    Sim.t -> cfg -> Mem.region -> n:int -> key:int -> [ `Lower | `Upper ] -> int

  (* Entries [from, n) just changed (shift, split, bulk fill); update any
     derived in-page structures. *)
  val entries_updated : Sim.t -> cfg -> Mem.region -> n:int -> from:int -> unit
end

module Make (F : PAGE_FORMAT) = struct
  type t = {
    pool : Buffer_pool.t;
    sim : Sim.t;
    cfg : F.cfg;
    fanout : int;
    mutable root : int;
    held : Buffer_pool.held;  (* its nonleaf pages' frames *)
    mutable levels : int;  (* 1 = root is a leaf *)
    mutable n_pages : int;
    acc : Level_acc.t;
  }

  let name = F.name

  (* Common page header fields (within the format's reserved header area). *)
  let off_is_leaf = 0
  let off_n = 2
  let off_prev = 4
  let off_next = 8
  let links = { Page_chain.prev = off_prev; next = off_next }
  (* Leaf pages a range scan keeps in flight ahead of itself. *)
  let io_prefetch_distance = 16
  let key_off t i = F.key_base t.cfg + (Key.size * i)
  let ptr_off t i = F.ptr_base t.cfg + (Layout.pid_size * i)
  let nil = Page_store.nil

  let new_page t ~leaf =
    let page, r = Buffer_pool.create_page t.pool in
    t.n_pages <- t.n_pages + 1;
    Mem.write_u8 t.sim r off_is_leaf (if leaf then 1 else 0);
    Mem.write_u16 t.sim r off_n 0;
    Mem.write_i32 t.sim r off_prev nil;
    Mem.write_i32 t.sim r off_next nil;
    (page, r)

  let create pool =
    let sim = Buffer_pool.sim pool in
    let page_size = Page_store.page_size (Buffer_pool.store pool) in
    let cfg = F.cfg_of_page_size page_size in
    let t =
      {
        pool;
        sim;
        cfg;
        fanout = F.fanout cfg;
        root = nil;
        held = Buffer_pool.held ();
        levels = 1;
        n_pages = 0;
        acc = Level_acc.create sim;
      }
    in
    let root, _r = new_page t ~leaf:true in
    Buffer_pool.unpin pool root;
    t.root <- root;
    t

  (* --- Uncharged instrumentation ------------------------------------------ *)

  let level_acc t = t.acc

  (* --- Search ------------------------------------------------------------ *)

  let route t r ~n key =
    let i = F.find_slot t.sim t.cfg r ~n ~key `Upper in
    max 0 (i - 1)

  let descend t key ~visit =
    let rec go page depth =
      let stall0 = Level_acc.stall_now t.acc in
      let r =
        Buffer_pool.pin t.pool t.held page ~leaf:(depth = t.levels) ~off:0
          ~len:0
      in
      Sim.busy_node t.sim;
      if Mem.read_u8 t.sim r off_is_leaf = 1 then begin
        Level_acc.note t.acc ~page ~depth ~stall0;
        (page, r)
      end
      else begin
        let n = Mem.read_u16 t.sim r off_n in
        let i = route t r ~n key in
        let child = Mem.read_i32 t.sim r (ptr_off t i) in
        Level_acc.note t.acc ~page ~depth ~stall0;
        visit page r n i;
        Buffer_pool.unpin t.pool page;
        go child (depth + 1)
      end
    in
    go t.root 1

  let leaf_lookup t r ~n key =
    let i = F.find_slot t.sim t.cfg r ~n ~key `Lower in
    if i < n && Mem.read_i32 t.sim r (key_off t i) = key then
      Some (Mem.read_i32 t.sim r (ptr_off t i))
    else None

  let search t key =
    Sim.busy_op t.sim;
    let page, r = descend t key ~visit:(fun _ _ _ _ -> ()) in
    let result = leaf_lookup t r ~n:(Mem.read_u16 t.sim r off_n) key in
    Buffer_pool.unpin t.pool page;
    result

  (* Batched search: the shared walker over whole pages.  Before each
     frontier page is entered, the next one's header and key array
     ([F.key_base] covers any in-page micro structure laid out before
     the keys) are already being prefetched. *)
  let search_batch t keys =
    let area = F.key_base t.cfg + (Key.size * t.fanout) in
    Wave.search_batch t.acc t.pool ~root:(t.root, 0) ~levels:t.levels
      ~held:t.held keys
      {
        Wave.lookahead =
          (fun r _ -> Mem.prefetch t.sim r ~off:0 ~len:(min (Mem.length r) area));
        enter =
          (fun r _ ~next:_ ->
            Sim.busy_node t.sim;
            Mem.read_u16 t.sim r off_n);
        route =
          (fun r _ ~n key -> (Mem.read_i32 t.sim r (ptr_off t (route t r ~n key)), 0));
        lookup = (fun r _ ~n key -> leaf_lookup t r ~n key);
        search = search t;
      }

  (* --- Insertion ---------------------------------------------------------- *)

  let insert_at t r ~n ~i key ptr =
    let len = (n - i) * 4 in
    Mem.blit t.sim r (key_off t i) r (key_off t (i + 1)) len;
    Mem.blit t.sim r (ptr_off t i) r (ptr_off t (i + 1)) len;
    Mem.write_i32 t.sim r (key_off t i) key;
    Mem.write_i32 t.sim r (ptr_off t i) ptr;
    Mem.write_u16 t.sim r off_n (n + 1);
    F.entries_updated t.sim t.cfg r ~n:(n + 1) ~from:i

  let split_page t page r ~leaf =
    let n = t.fanout in
    let mid = n / 2 in
    let moved = n - mid in
    let right, rr = new_page t ~leaf in
    Mem.blit t.sim r (key_off t mid) rr (key_off t 0) (moved * 4);
    Mem.blit t.sim r (ptr_off t mid) rr (ptr_off t 0) (moved * 4);
    Mem.write_u16 t.sim rr off_n moved;
    Mem.write_u16 t.sim r off_n mid;
    F.entries_updated t.sim t.cfg rr ~n:moved ~from:0;
    F.entries_updated t.sim t.cfg r ~n:mid ~from:mid;
    Page_chain.splice links t.pool ~page r ~right rr;
    let sep = Mem.read_i32 t.sim rr (key_off t 0) in
    Buffer_pool.mark_dirty t.pool page;
    Buffer_pool.mark_dirty t.pool right;
    (right, rr, sep)

  (* Put [(key, ptr)] at slot [i] of pinned [page], which holds [n]
     entries, and unpin it.  A full page splits first; then the new right
     page's separator and ID come back for the parent. *)
  let place t page r ~leaf ~n ~i key ptr =
    if n < t.fanout then begin
      insert_at t r ~n ~i key ptr;
      Buffer_pool.mark_dirty t.pool page;
      Buffer_pool.unpin t.pool page;
      None
    end
    else begin
      let right, rr, sep = split_page t page r ~leaf in
      let mid = t.fanout / 2 in
      (if i <= mid then insert_at t r ~n:mid ~i key ptr
       else insert_at t rr ~n:(t.fanout - mid) ~i:(i - mid) key ptr);
      Buffer_pool.unpin t.pool page;
      Buffer_pool.unpin t.pool right;
      Some (sep, right)
    end

  let insert_into_parent t parent sep child =
    let r = Buffer_pool.get t.pool parent in
    let n = Mem.read_u16 t.sim r off_n in
    let i = F.find_slot t.sim t.cfg r ~n ~key:sep `Upper in
    (* If child 0's subtree split at or below its recorded key 0 (which
       is not a trusted bound), lower key 0 so the array stays sorted and
       strictly distinct, and insert the new separator at slot 1; child 0
       keeps covering everything below [sep]. *)
    let i =
      if i = 0 || (i = 1 && Mem.read_i32 t.sim r (key_off t 0) = sep) then begin
        Mem.write_i32 t.sim r (key_off t 0) (sep - 1);
        F.entries_updated t.sim t.cfg r ~n ~from:0;
        1
      end
      else i
    in
    place t parent r ~leaf:false ~n ~i sep child

  (* A new root over the old one and its new right sibling [child]. *)
  let grow_root t sep child =
    let old_root = t.root in
    let new_root, r = new_page t ~leaf:false in
    let old_min =
      Buffer_pool.with_page t.pool old_root (fun orr ->
          Mem.read_i32 t.sim orr (key_off t 0))
    in
    Mem.write_i32 t.sim r (key_off t 0) old_min;
    Mem.write_i32 t.sim r (ptr_off t 0) old_root;
    Mem.write_i32 t.sim r (key_off t 1) sep;
    Mem.write_i32 t.sim r (ptr_off t 1) child;
    Mem.write_u16 t.sim r off_n 2;
    F.entries_updated t.sim t.cfg r ~n:2 ~from:0;
    Buffer_pool.unpin t.pool new_root;
    t.root <- new_root;
    t.levels <- t.levels + 1

  let insert t key tid =
    if not (Key.valid key) then invalid_arg (F.name ^ ".insert: key out of range");
    Sim.busy_op t.sim;
    let path = ref [] in
    let page, r = descend t key ~visit:(fun p _ _ _ -> path := p :: !path) in
    let n = Mem.read_u16 t.sim r off_n in
    let i = F.find_slot t.sim t.cfg r ~n ~key `Lower in
    if i < n && Mem.read_i32 t.sim r (key_off t i) = key then begin
      Mem.write_i32 t.sim r (ptr_off t i) tid;
      Buffer_pool.mark_dirty t.pool page;
      Buffer_pool.unpin t.pool page;
      `Updated
    end
    else begin
      (match place t page r ~leaf:true ~n ~i key tid with
      | None -> ()
      | Some (sep, right) ->
          Page_chain.propagate ~insert:(insert_into_parent t) ~grow:(grow_root t)
            !path sep right);
      `Inserted
    end

  (* --- Deletion ----------------------------------------------------------- *)

  let delete t key =
    Sim.busy_op t.sim;
    let page, r = descend t key ~visit:(fun _ _ _ _ -> ()) in
    let n = Mem.read_u16 t.sim r off_n in
    let i = F.find_slot t.sim t.cfg r ~n ~key `Lower in
    let found = i < n && Mem.read_i32 t.sim r (key_off t i) = key in
    if found then begin
      let len = (n - i - 1) * 4 in
      Mem.blit t.sim r (key_off t (i + 1)) r (key_off t i) len;
      Mem.blit t.sim r (ptr_off t (i + 1)) r (ptr_off t i) len;
      Mem.write_u16 t.sim r off_n (n - 1);
      F.entries_updated t.sim t.cfg r ~n:(n - 1) ~from:i;
      Buffer_pool.mark_dirty t.pool page
    end;
    Buffer_pool.unpin t.pool page;
    found

  (* --- Bulkload ----------------------------------------------------------- *)

  let bulkload t pairs ~fill =
    if fill <= 0. || fill > 1. then invalid_arg (F.name ^ ".bulkload: fill");
    if t.n_pages > 1 then invalid_arg (F.name ^ ".bulkload: tree not empty");
    if Array.length pairs > 0 then begin
      Buffer_pool.free_page t.pool t.root;
      t.n_pages <- t.n_pages - 1;
      let root, levels =
        Page_chain.build links t.pool ~fanout:t.fanout ~fill pairs
          ~make:(fun ~leaf entries lo cnt ->
            let page, r = new_page t ~leaf in
            Mem.write_pairs t.sim r ~keys:(key_off t 0) ~values:(ptr_off t 0) entries
              lo cnt;
            Mem.write_u16 t.sim r off_n cnt;
            F.entries_updated t.sim t.cfg r ~n:cnt ~from:0;
            (page, r))
      in
      t.root <- root;
      t.levels <- levels
    end

  (* --- Range scan ---------------------------------------------------------- *)

  (* Jump-pointer cursor over the leaf-parent level: the page and slot of
     the next tree-leaf page ID. *)
  type jp_cursor = { mutable jp_page : int; mutable jp_idx : int }

  let rec jp_next t cur =
    if cur.jp_page = nil then None
    else begin
      let r = Buffer_pool.get t.pool cur.jp_page in
      let n = Mem.read_u16 t.sim r off_n in
      if cur.jp_idx < n then begin
        let pid = Mem.read_i32 t.sim r (ptr_off t cur.jp_idx) in
        cur.jp_idx <- cur.jp_idx + 1;
        Buffer_pool.unpin t.pool cur.jp_page;
        Some pid
      end
      else begin
        let next = Mem.read_i32 t.sim r off_next in
        Buffer_pool.unpin t.pool cur.jp_page;
        cur.jp_page <- next;
        cur.jp_idx <- 0;
        if next = nil then None else jp_next t cur
      end
    end

  (* One node per page, so the node is always 0; the descent leaves the
     leaf pinned and the cursor one entry past its leaf-parent slot. *)
  let range_scan t ?(prefetch = false) ~start_key ~end_key f =
    Scan.range_scan t.acc t.pool ~levels:t.levels ~distance:io_prefetch_distance
      ~prefetch ~start_key ~end_key
      {
        Scan.descend =
          (fun key ~cursor:_ ->
            let cur = { jp_page = nil; jp_idx = 0 } in
            let page, r =
              descend t key ~visit:(fun p _ _ i ->
                  cur.jp_page <- p;
                  cur.jp_idx <- i + 1)
            in
            (page, Some (r, 0), cur));
        step = jp_next t;
        first = (fun _ ~seek:_ _ -> 0);
        next = (fun _ ~page:_ _ -> 0);
        sibling = (fun r -> Mem.read_i32 t.sim r off_next);
        node =
          {
            Scan.count = (fun r _ -> Mem.read_u16 t.sim r off_n);
            slot = (fun r _ ~n key -> F.find_slot t.sim t.cfg r ~n ~key `Lower);
            keys = (fun _ -> key_off t 0);
            values = (fun _ -> ptr_off t 0);
          };
        prefetch_page = ignore;
        bump_nodes = false;
      }
      f

  (* --- Introspection (uncharged; tests only) ------------------------------- *)

  let height t = t.levels
  let page_count t = t.n_pages
  let meta t = Page_chain.meta ~root:t.root ~levels:t.levels ~n_pages:t.n_pages

  let restore_meta t m =
    let root, levels, n_pages = Page_chain.restore_meta ~name m in
    t.root <- root;
    t.levels <- levels;
    t.n_pages <- n_pages

  let iter t f =
    Page_chain.iter_leaves links t.pool ~root:t.root
      ~down:(fun ~depth:_ page ->
        let r = Page_chain.peek t.pool page in
        if Mem.peek_u8 r off_is_leaf = 1 then nil else Mem.peek_i32 r (ptr_off t 0))
      (fun r ->
        for i = 0 to Mem.peek_u16 r off_n - 1 do
          f (Mem.peek_i32 r (key_off t i)) (Mem.peek_i32 r (ptr_off t i))
        done)

  let fail fmt = Fmt.kstr failwith fmt

  let check t =
    let leaves_seen = ref [] in
    let rec check_page page ~lo ~hi ~depth =
      let r = Page_chain.peek t.pool page in
      let leaf = Mem.peek_u8 r off_is_leaf = 1 in
      let n = Mem.peek_u16 r off_n in
      if leaf <> (depth = t.levels) then fail "page %d: leaf at wrong depth" page;
      if n > t.fanout then fail "page %d: overfull (%d > %d)" page n t.fanout;
      if n = 0 && page <> t.root then fail "page %d: empty non-root" page;
      for i = 0 to n - 1 do
        let k = Mem.peek_i32 r (key_off t i) in
        if i > 0 && Mem.peek_i32 r (key_off t (i - 1)) >= k then
          fail "page %d: keys not strictly increasing at %d" page i;
        (match lo with
        | Some b when k < b -> fail "page %d: key %d below bound %d" page k b
        | _ -> ());
        match hi with
        | Some b when k >= b -> fail "page %d: key %d above bound %d" page k b
        | _ -> ()
      done;
      if leaf then leaves_seen := page :: !leaves_seen
      else
        for i = 0 to n - 1 do
          let child = Mem.peek_i32 r (ptr_off t i) in
          let clo = if i = 0 then lo else Some (Mem.peek_i32 r (key_off t i)) in
          let chi =
            if i = n - 1 then hi else Some (Mem.peek_i32 r (key_off t (i + 1)))
          in
          check_page child ~lo:clo ~hi:chi ~depth:(depth + 1)
        done
    in
    check_page t.root ~lo:None ~hi:None ~depth:1;
    Page_chain.check links t.pool (List.rev !leaves_seen)
end
