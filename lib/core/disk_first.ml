(* Disk-first fpB+-Tree (paper, Section 3.1): a disk-optimized B+-Tree whose
   page contents are organised as a small cache-optimized tree (an "in-page
   tree") instead of one large sorted array.

   - In-page nonleaf nodes are [w] cache lines and store 2-byte in-page
     offsets (a child node's starting line number) instead of full pointers.
   - In-page leaf nodes are [x] cache lines and store 4-byte pointers: child
     page IDs in nonleaf pages, tuple IDs in leaf pages.
   - (w, x) come from the tuner (Section 3.1.1 / Table 2).
   - Every node access prefetches the whole node first (pB+-Tree style).

   In-page space management: nodes are carved line-granular from the page
   with a bump watermark; in-page reorganisations and page splits rebuild
   pages compactly, which is when space is reclaimed.  Insertion follows
   Section 3.1.2: split the in-page leaf node if lines are free; otherwise
   reorganise the in-page tree if the page still has at least one empty
   slot per in-page leaf node; otherwise split the page.

   Page layout:
     line 0 (64B header):
       0  u8  kind (0 = leaf page, 1 = nonleaf page)
       1  u8  in-page levels
       2  u16 root node line
       4  i32 prev page     8 i32 next page   (sibling links, every level)
       12 u16 total entries in page
       14 u16 next free line (bump watermark)
       16 u16 first in-page leaf node line
       18 u16 number of in-page leaf nodes
       20 u16 last in-page leaf node line
     lines 1..: in-page nodes.

   In-page nonleaf node (w lines): 0 u16 n; 2 u16 flags(1);
     4.. keys (4B x fn); then child line numbers (2B x fn).
   In-page leaf node (x lines): 0 u16 n; 2 u16 flags(0);
     4 u16 next leaf line; 6 u16 prev leaf line;
     8.. keys (4B x fl); then pointers (4B x fl).

   The backward links (prev page, prev leaf line, last leaf line) are the
   paper's DB2 "links in both directions": every update keeps them, scans
   run forward only, and [check] verifies them. *)

open Fpb_simmem
open Fpb_storage
open Fpb_btree_common

type cfg = {
  page_size : int;
  page_lines : int;
  w : int;  (* nonleaf node lines *)
  x : int;  (* leaf node lines *)
  fn : int;  (* nonleaf node capacity *)
  fl : int;  (* leaf node capacity *)
  max_fanout : int;  (* tuned page fan-out (max entries per page) *)
  max_leaves : int;  (* most in-page leaf nodes a page can hold structurally *)
}

type t = {
  pool : Buffer_pool.t;
  sim : Sim.t;
  cfg : cfg;
  mutable root : int;
  held : Buffer_pool.held;  (* its nonleaf pages' frames *)
  mutable levels : int;  (* page levels; 1 = root is a leaf page *)
  mutable n_pages : int;
  mutable io_prefetch_distance : int;
  mutable cache_prefetch_leaves : bool;  (* prefetch leaf nodes per page in scans *)
  mutable bound_scan_end : bool;  (* stop I/O prefetch at the end page *)
  acc : Level_acc.t;
}

let name = "disk-first fpB+tree"
let nil = Page_store.nil
let line_bytes = 64

(* Header field offsets. *)
let h_kind = 0
let h_ip_levels = 1
let h_root = 2
let h_prev = 4
let h_next = 8
let h_total = 12
let h_free = 14
let h_first_leaf = 16
let h_n_leaves = 18
let h_last_leaf = 20
let links = { Page_chain.prev = h_prev; next = h_next }

(* In-page node field offsets (from the node's first byte). *)
let n_count = 0
let n_next = 4  (* leaf nodes only *)
let n_prev = 6
let nonleaf_keys = 4
let leaf_keys = 8

(* Number of in-page nonleaf nodes needed above [m] leaf nodes. *)
let nonleaves_above ~fn m =
  let rec go cnt acc =
    if cnt <= 1 then acc
    else
      let parents = (cnt + fn - 1) / fn in
      go parents (acc + parents)
  in
  go m 0

let cfg_of_widths ~page_size ~w ~x ~max_fanout =
  let line_size = line_bytes in
  let fn = Layout.df_nonleaf_capacity ~line_size w in
  let fl = Layout.df_leaf_capacity ~line_size x in
  let page_lines = page_size / line_bytes in
  let fits m = (m * x) + (nonleaves_above ~fn m * w) + 1 <= page_lines in
  let rec grow m = if fits (m + 1) then grow (m + 1) else m in
  let max_leaves = grow 1 in
  let max_fanout =
    match max_fanout with Some f -> f | None -> max_leaves * fl
  in
  { page_size; page_lines; w; x; fn; fl; max_fanout; max_leaves }

let make_cfg page_size =
  let sel = Tuning.disk_first ~page_size () in
  cfg_of_widths ~page_size ~w:sel.Tuning.df_w ~x:sel.df_x
    ~max_fanout:(Some sel.df_fanout)

(* --- Node accessors ------------------------------------------------------- *)

let node_off line = line * line_bytes

let nonleaf_key_off _c line i = node_off line + nonleaf_keys + (Key.size * i)
let nonleaf_child_off c line i =
  node_off line + nonleaf_keys + (Key.size * c.fn) + (2 * i)

let leaf_key_off _c line i = node_off line + leaf_keys + (Key.size * i)
let leaf_ptr_off c line i =
  node_off line + leaf_keys + (Key.size * c.fl) + (4 * i)

let prefetch_node t r line ~lines =
  Mem.prefetch t.sim r ~off:(node_off line) ~len:(lines * line_bytes)

let read_n t r line = Mem.read_u16 t.sim r (node_off line + n_count)
let write_n t r line v = Mem.write_u16 t.sim r (node_off line + n_count) v

(* --- In-page tree construction ------------------------------------------- *)

(* Allocate [lines] lines from the page watermark; returns the line number
   or raises [Exit] if the page is out of lines (callers check first). *)
let alloc_lines t r lines =
  let free = Mem.read_u16 t.sim r h_free in
  if free + lines > t.cfg.page_lines then raise Exit;
  Mem.write_u16 t.sim r h_free (free + lines);
  free

(* Rebuild the in-page tree of [r] from scratch with [entries], spreading
   them over [n_leaves] in-page leaf nodes.  Resets the watermark. *)
let build_in_page t r entries ~n_leaves =
  let c = t.cfg in
  let n = Array.length entries in
  let n_leaves = max 1 (min n_leaves c.max_leaves) in
  (* never spread over more leaves than entries: empty leaves would need
     sentinel separators, which collide in their in-page parent *)
  let n_leaves = if n > 0 then min n_leaves n else 1 in
  let n_leaves = max n_leaves ((n + c.fl - 1) / c.fl) in
  assert (n_leaves <= c.max_leaves);
  Mem.write_u16 t.sim r h_free 1;
  (* leaves, evenly filled, chained *)
  let base = n / n_leaves and extra = n mod n_leaves in
  let leaves = Array.make n_leaves (0, 0) in
  let pos = ref 0 in
  let prev = ref 0 in
  for li = 0 to n_leaves - 1 do
    let cnt = base + (if li < extra then 1 else 0) in
    let line = alloc_lines t r c.x in
    Mem.write_u16 t.sim r (node_off line + n_count) cnt;
    Mem.write_u16 t.sim r (node_off line + 2) 0;
    Mem.write_u16 t.sim r (node_off line + n_next) 0;
    Mem.write_u16 t.sim r (node_off line + n_prev) !prev;
    if !prev <> 0 then Mem.write_u16 t.sim r (node_off !prev + n_next) line;
    Mem.write_pairs t.sim r ~keys:(leaf_key_off c line 0)
      ~values:(leaf_ptr_off c line 0) entries !pos cnt;
    let min_key = if cnt > 0 then fst entries.(!pos) else Key.sentinel in
    leaves.(li) <- (min_key, line);
    pos := !pos + cnt;
    prev := line
  done;
  Mem.write_u16 t.sim r h_first_leaf (snd leaves.(0));
  Mem.write_u16 t.sim r h_last_leaf (snd leaves.(n_leaves - 1));
  Mem.write_u16 t.sim r h_n_leaves n_leaves;
  Mem.write_u16 t.sim r h_total n;
  (* nonleaf levels, packed *)
  let level = ref leaves in
  let ip_levels = ref 1 in
  while Array.length !level > 1 do
    let cnt = Array.length !level in
    let parents = (cnt + c.fn - 1) / c.fn in
    let up = Array.make parents (0, 0) in
    for p = 0 to parents - 1 do
      let lo = p * c.fn in
      let k = min c.fn (cnt - lo) in
      let line = alloc_lines t r c.w in
      Mem.write_u16 t.sim r (node_off line + n_count) k;
      Mem.write_u16 t.sim r (node_off line + 2) 1;
      for j = 0 to k - 1 do
        let mk, child = !level.(lo + j) in
        Mem.write_i32 t.sim r (nonleaf_key_off c line j) mk;
        Mem.write_u16 t.sim r (nonleaf_child_off c line j) child
      done;
      up.(p) <- (fst !level.(lo), line)
    done;
    level := up;
    incr ip_levels
  done;
  Mem.write_u16 t.sim r h_root (snd !level.(0));
  Mem.write_u8 t.sim r h_ip_levels !ip_levels

let new_page t ~kind =
  let page, r = Buffer_pool.create_page t.pool in
  t.n_pages <- t.n_pages + 1;
  Mem.write_u8 t.sim r h_kind kind;
  Mem.write_i32 t.sim r h_prev nil;
  Mem.write_i32 t.sim r h_next nil;
  Mem.write_u16 t.sim r h_free 1;
  (page, r)

(* Fresh empty page: a single empty in-page leaf node as root. *)
let init_empty t r = build_in_page t r [||] ~n_leaves:1

let create_with_cfg pool cfg =
  let sim = Buffer_pool.sim pool in
  let t =
    {
      pool;
      sim;
      cfg;
      root = nil;
      held = Buffer_pool.held ();
      levels = 1;
      n_pages = 0;
      io_prefetch_distance = 16;
      cache_prefetch_leaves = true;
      bound_scan_end = true;
      acc = Level_acc.create sim;
    }
  in
  let root, r = new_page t ~kind:0 in
  init_empty t r;
  Buffer_pool.unpin pool root;
  t.root <- root;
  t

let create pool =
  let page_size = Page_store.page_size (Buffer_pool.store pool) in
  create_with_cfg pool (make_cfg page_size)

(* Non-tuned node widths, for the Figure 11 width sweep. *)
let create_custom pool ~w ~x =
  let page_size = Page_store.page_size (Buffer_pool.store pool) in
  create_with_cfg pool (cfg_of_widths ~page_size ~w ~x ~max_fanout:None)

let set_io_prefetch_distance t d = t.io_prefetch_distance <- max 1 d

(* Ablation knobs (see bench `ablation`): disable the cache-granularity
   leaf-node prefetch within scanned pages, or the Section 2.2 fix that
   bounds I/O prefetching at the end page (overshooting). *)
let set_cache_prefetch_leaves t b = t.cache_prefetch_leaves <- b
let set_bound_scan_end t b = t.bound_scan_end <- b

(* --- Uncharged instrumentation --------------------------------------------- *)

let level_acc t = t.acc

(* --- In-page search ------------------------------------------------------- *)

(* Descend the in-page tree to the leaf node for [key].  [visit] sees each
   nonleaf (line, n, slot taken). *)
let ip_find_leaf t r key ~visit =
  let c = t.cfg in
  let levels = Mem.read_u8 t.sim r h_ip_levels in
  let line = ref (Mem.read_u16 t.sim r h_root) in
  for _ = 1 to levels - 1 do
    prefetch_node t r !line ~lines:c.w;
    Sim.busy_node t.sim;
    let n = read_n t r !line in
    let i =
      Array_search.upper_bound t.sim r ~off:(nonleaf_key_off c !line 0) ~n ~key
    in
    let slot = if i > 0 then i - 1 else 0 in
    visit !line n slot;
    line := Mem.read_u16 t.sim r (nonleaf_child_off c !line slot)
  done;
  prefetch_node t r !line ~lines:c.x;
  Sim.busy_node t.sim;
  !line

(* Position of [key] in the in-page leaf node [line]. *)
let ip_leaf_slot t r line ~n ~key mode =
  let c = t.cfg in
  match mode with
  | `Lower -> Array_search.lower_bound t.sim r ~off:(leaf_key_off c line 0) ~n ~key
  | `Upper -> Array_search.upper_bound t.sim r ~off:(leaf_key_off c line 0) ~n ~key

(* Route at page granularity: the in-page leaf node and slot of the last
   entry <= [key] (or of the first entry if key precedes everything). *)
let ip_route_slot t r key =
  let line = ip_find_leaf t r key ~visit:(fun _ _ _ -> ()) in
  let n = read_n t r line in
  let i = ip_leaf_slot t r line ~n ~key `Upper in
  (line, if i > 0 then i - 1 else 0)

(* The child page that [ip_route_slot] picks. *)
let ip_route t r key =
  let line, slot = ip_route_slot t r key in
  Mem.read_i32 t.sim r (leaf_ptr_off t.cfg line slot)

(* --- Search --------------------------------------------------------------- *)

(* Pin a descent's page at [depth] ([Buffer_pool.pin]'s policy). *)
let pin_at t page depth =
  Buffer_pool.pin t.pool t.held page ~leaf:(depth = t.levels) ~off:0 ~len:0

(* Look [key] up in leaf page [r] through its in-page tree. *)
let page_lookup t r key =
  let line = ip_find_leaf t r key ~visit:(fun _ _ _ -> ()) in
  let n = read_n t r line in
  let i = ip_leaf_slot t r line ~n ~key `Lower in
  if i < n && Mem.read_i32 t.sim r (leaf_key_off t.cfg line i) = key then
    Some (Mem.read_i32 t.sim r (leaf_ptr_off t.cfg line i))
  else None

let search t key =
  Sim.busy_op t.sim;
  let rec go page depth =
    let stall0 = Level_acc.stall_now t.acc in
    let r = pin_at t page depth in
    if depth = t.levels then begin
      let result = page_lookup t r key in
      Level_acc.note t.acc ~page ~depth ~stall0;
      Buffer_pool.unpin t.pool page;
      result
    end
    else begin
      let child = ip_route t r key in
      Level_acc.note t.acc ~page ~depth ~stall0;
      Buffer_pool.unpin t.pool page;
      go child (depth + 1)
    end
  in
  go t.root 1

(* Batched search: the shared walker over whole pages.  The in-page tree
   prefetches its own node path per probe ([ip_find_leaf]); across probes
   the next frontier page's header line is warmed before each page is
   entered. *)
let search_batch t keys =
  Wave.search_batch t.acc t.pool ~root:(t.root, 0) ~levels:t.levels
    ~held:t.held keys
    {
      Wave.lookahead = (fun r _ -> Mem.prefetch t.sim r ~off:0 ~len:line_bytes);
      enter = (fun _ _ ~next:_ -> 0);
      route = (fun r _ ~n:_ key -> (ip_route t r key, 0));
      lookup = (fun r _ ~n:_ key -> page_lookup t r key);
      search = search t;
    }

(* --- Entry collection (charged; used by reorganise / page split) ---------- *)

let collect_entries t r =
  let c = t.cfg in
  let total = Mem.read_u16 t.sim r h_total in
  let out = Array.make total (0, 0) in
  let pos = ref 0 in
  let line = ref (Mem.read_u16 t.sim r h_first_leaf) in
  while !line <> 0 do
    prefetch_node t r !line ~lines:c.x;
    let n = read_n t r !line in
    for j = 0 to n - 1 do
      out.(!pos) <-
        (Mem.read_i32 t.sim r (leaf_key_off c !line j),
         Mem.read_i32 t.sim r (leaf_ptr_off c !line j));
      incr pos
    done;
    line := Mem.read_u16 t.sim r (node_off !line + n_next)
  done;
  assert (!pos = total);
  out

(* --- In-page insertion ----------------------------------------------------
   Returns [`Done] (entry absorbed), [`Updated] (duplicate key overwritten)
   or [`Page_full] (the caller must reorganise or split the page). *)

let ip_insert_into_leaf t r line ~n ~i key ptr =
  let c = t.cfg in
  let len = (n - i) * 4 in
  Mem.blit t.sim r (leaf_key_off c line i) r (leaf_key_off c line (i + 1)) len;
  Mem.blit t.sim r (leaf_ptr_off c line i) r (leaf_ptr_off c line (i + 1)) len;
  Mem.write_i32 t.sim r (leaf_key_off c line i) key;
  Mem.write_i32 t.sim r (leaf_ptr_off c line i) ptr;
  write_n t r line (n + 1)

let ip_insert_into_nonleaf t r line ~n ~i key child =
  let c = t.cfg in
  Mem.blit t.sim r (nonleaf_key_off c line i) r
    (nonleaf_key_off c line (i + 1))
    ((n - i) * 4);
  Mem.blit t.sim r (nonleaf_child_off c line i) r
    (nonleaf_child_off c line (i + 1))
    ((n - i) * 2);
  Mem.write_i32 t.sim r (nonleaf_key_off c line i) key;
  Mem.write_u16 t.sim r (nonleaf_child_off c line i) child;
  write_n t r line (n + 1)

(* Insert (sep, new_line) into the chain of in-page nonleaf parents;
   allocates nodes as needed (raises [Exit] when out of lines — caller
   rolls back by rebuilding the page anyway). *)
let rec ip_insert_parent t r path sep new_line =
  let c = t.cfg in
  match path with
  | [] ->
      (* grow the in-page tree: new root over old root and new_line *)
      let old_root = Mem.read_u16 t.sim r h_root in
      let line = alloc_lines t r c.w in
      let old_min =
        (* old root's min key: nonleaf key 0 or leaf key 0 *)
        if Mem.read_u8 t.sim r h_ip_levels >= 2 then
          Mem.read_i32 t.sim r (nonleaf_key_off c old_root 0)
        else
          Mem.read_i32 t.sim r (leaf_key_off c old_root 0)
      in
      Mem.write_u16 t.sim r (node_off line + n_count) 2;
      Mem.write_u16 t.sim r (node_off line + 2) 1;
      Mem.write_i32 t.sim r (nonleaf_key_off c line 0) old_min;
      Mem.write_u16 t.sim r (nonleaf_child_off c line 0) old_root;
      Mem.write_i32 t.sim r (nonleaf_key_off c line 1) sep;
      Mem.write_u16 t.sim r (nonleaf_child_off c line 1) new_line;
      Mem.write_u16 t.sim r h_root line;
      Mem.write_u8 t.sim r h_ip_levels (Mem.read_u8 t.sim r h_ip_levels + 1)
  | parent :: rest ->
      let n = read_n t r parent in
      let i =
        Array_search.upper_bound t.sim r
          ~off:(nonleaf_key_off c parent 0)
          ~n ~key:sep
      in
      let i =
        if
          i = 0
          || (i = 1 && Mem.read_i32 t.sim r (nonleaf_key_off c parent 0) = sep)
        then begin
          (* child 0 split at or below its untrusted key 0 *)
          Mem.write_i32 t.sim r (nonleaf_key_off c parent 0) (sep - 1);
          1
        end
        else i
      in
      if n < c.fn then ip_insert_into_nonleaf t r parent ~n ~i sep new_line
      else begin
        (* split the nonleaf node *)
        let right = alloc_lines t r c.w in
        let mid = n / 2 in
        let moved = n - mid in
        Mem.write_u16 t.sim r (node_off right + n_count) moved;
        Mem.write_u16 t.sim r (node_off right + 2) 1;
        Mem.blit t.sim r (nonleaf_key_off c parent mid) r
          (nonleaf_key_off c right 0) (moved * 4);
        Mem.blit t.sim r (nonleaf_child_off c parent mid) r
          (nonleaf_child_off c right 0) (moved * 2);
        write_n t r parent mid;
        let node_sep = Mem.read_i32 t.sim r (nonleaf_key_off c right 0) in
        (if i <= mid then ip_insert_into_nonleaf t r parent ~n:mid ~i sep new_line
         else
           ip_insert_into_nonleaf t r right ~n:moved ~i:(i - mid) sep new_line);
        ip_insert_parent t r rest node_sep right
      end

let ip_insert t r key ptr =
  let c = t.cfg in
  let path = ref [] in
  let line = ip_find_leaf t r key ~visit:(fun l _ _ -> path := l :: !path) in
  let n = read_n t r line in
  let i = ip_leaf_slot t r line ~n ~key `Lower in
  if i < n && Mem.read_i32 t.sim r (leaf_key_off c line i) = key then begin
    Mem.write_i32 t.sim r (leaf_ptr_off c line i) ptr;
    `Updated
  end
  else if n < c.fl then begin
    ip_insert_into_leaf t r line ~n ~i key ptr;
    Mem.write_u16 t.sim r h_total (Mem.read_u16 t.sim r h_total + 1);
    `Done
  end
  else begin
    (* split the in-page leaf node, if lines allow *)
    let levels = Mem.read_u8 t.sim r h_ip_levels in
    let worst = c.x + (c.w * levels) in
    let free = Mem.read_u16 t.sim r h_free in
    if free + worst > c.page_lines then `Page_full
    else begin
      let right = alloc_lines t r c.x in
      let mid = n / 2 in
      let moved = n - mid in
      Mem.write_u16 t.sim r (node_off right + n_count) moved;
      Mem.write_u16 t.sim r (node_off right + 2) 0;
      Mem.blit t.sim r (leaf_key_off c line mid) r (leaf_key_off c right 0)
        (moved * 4);
      Mem.blit t.sim r (leaf_ptr_off c line mid) r (leaf_ptr_off c right 0)
        (moved * 4);
      write_n t r line mid;
      (* leaf chain *)
      let old_next = Mem.read_u16 t.sim r (node_off line + n_next) in
      Mem.write_u16 t.sim r (node_off right + n_next) old_next;
      Mem.write_u16 t.sim r (node_off right + n_prev) line;
      Mem.write_u16 t.sim r (node_off line + n_next) right;
      if old_next <> 0 then
        Mem.write_u16 t.sim r (node_off old_next + n_prev) right
      else Mem.write_u16 t.sim r h_last_leaf right;
      Mem.write_u16 t.sim r h_n_leaves (Mem.read_u16 t.sim r h_n_leaves + 1);
      let sep = Mem.read_i32 t.sim r (leaf_key_off c right 0) in
      (if i <= mid then ip_insert_into_leaf t r line ~n:mid ~i key ptr
       else ip_insert_into_leaf t r right ~n:moved ~i:(i - mid) key ptr);
      Mem.write_u16 t.sim r h_total (Mem.read_u16 t.sim r h_total + 1);
      ip_insert_parent t r !path sep right;
      `Done
    end
  end

(* --- Page-level insertion -------------------------------------------------- *)

(* Insert (key, ptr) into page [page], reorganising or splitting it if
   needed.  Returns [`Done], [`Updated], or [`Split (sep, new_page)]. *)
let insert_into_page t page key ptr =
  let c = t.cfg in
  let r = Buffer_pool.get t.pool page in
  Buffer_pool.mark_dirty t.pool page;
  let finish outcome =
    Buffer_pool.unpin t.pool page;
    outcome
  in
  match ip_insert t r key ptr with
  | (`Done | `Updated) as o -> finish o
  | `Page_full ->
      let total = Mem.read_u16 t.sim r h_total in
      (* Reorganise only when an even spread over the maximum leaf count
         leaves at least one free slot per in-page leaf node (the paper's
         "not close to the maximum fan-out" condition, made exact so the
         retry below cannot fail). *)
      if total + c.max_leaves <= c.max_leaves * c.fl then begin
        (* reorganise: rebuild spread over the maximum leaf count *)
        let entries = collect_entries t r in
        build_in_page t r entries ~n_leaves:c.max_leaves;
        match ip_insert t r key ptr with
        | (`Done | `Updated) as o -> finish o
        | `Page_full -> failwith "disk-first: reorganise failed to make room"
      end
      else begin
        (* page split *)
        let entries = collect_entries t r in
        let n = Array.length entries in
        let mid = n / 2 in
        let left = Array.sub entries 0 mid in
        let right_entries = Array.sub entries mid (n - mid) in
        let kind = Mem.read_u8 t.sim r h_kind in
        let right, rr = new_page t ~kind in
        build_in_page t r left ~n_leaves:c.max_leaves;
        build_in_page t rr right_entries ~n_leaves:c.max_leaves;
        Page_chain.splice links t.pool ~page r ~right rr;
        let sep = fst right_entries.(0) in
        let target_r = if key < sep then r else rr in
        (match ip_insert t target_r key ptr with
        | `Done | `Updated -> ()
        | `Page_full -> failwith "disk-first: split failed to make room");
        Buffer_pool.unpin t.pool right;
        finish (`Split (sep, right))
      end

(* Minimum key stored in a page (charged). *)
let page_min_key t r =
  let first = Mem.read_u16 t.sim r h_first_leaf in
  Mem.read_i32 t.sim r (leaf_key_off t.cfg first 0)

(* Lower a page's first entry key to [k] (for the untrusted-minimum fix at
   page granularity). *)
let lower_page_min t r k =
  let first = Mem.read_u16 t.sim r h_first_leaf in
  Mem.write_i32 t.sim r (leaf_key_off t.cfg first 0) k

(* Add [(sep, child_page)] to nonleaf page [parent]; its split, if it
   split. *)
let insert_into_parent t parent sep child_page =
  (* untrusted-minimum fix: keep page key arrays sorted when the leftmost
     subtree splits below the recorded minimum *)
  let r = Buffer_pool.get t.pool parent in
  let m = page_min_key t r in
  if sep <= m then lower_page_min t r (sep - 1);
  Buffer_pool.unpin t.pool parent;
  match insert_into_page t parent sep child_page with
  | `Done | `Updated -> None
  | `Split split -> Some split

(* A new root page over the old root and its new right sibling. *)
let grow_root t sep child_page =
  let old_root = t.root in
  let root, r = new_page t ~kind:1 in
  let old_min =
    Buffer_pool.with_page t.pool old_root (fun orr -> page_min_key t orr)
  in
  build_in_page t r [| (old_min, old_root); (sep, child_page) |] ~n_leaves:1;
  Buffer_pool.unpin t.pool root;
  t.root <- root;
  t.levels <- t.levels + 1

let insert t key tid =
  if not (Key.valid key) then invalid_arg "Disk_first.insert: key out of range";
  Sim.busy_op t.sim;
  (* descend to the leaf page, recording the page path *)
  let rec go page depth path =
    if depth = t.levels then begin
      Level_acc.bump t.acc depth;
      (page, path)
    end
    else begin
      let r = pin_at t page depth in
      let child = ip_route t r key in
      Level_acc.bump t.acc depth;
      Buffer_pool.unpin t.pool page;
      go child (depth + 1) (page :: path)
    end
  in
  let leaf_page, path = go t.root 1 [] in
  match insert_into_page t leaf_page key tid with
  | `Done -> `Inserted
  | `Updated -> `Updated
  | `Split (sep, right) ->
      Page_chain.propagate ~insert:(insert_into_parent t) ~grow:(grow_root t) path
        sep right;
      `Inserted

(* --- Deletion -------------------------------------------------------------- *)

let delete t key =
  Sim.busy_op t.sim;
  let rec go page depth =
    let r = pin_at t page depth in
    Level_acc.bump t.acc depth;
    if depth < t.levels then begin
      let child = ip_route t r key in
      Buffer_pool.unpin t.pool page;
      go child (depth + 1)
    end
    else begin
      let c = t.cfg in
      let line = ip_find_leaf t r key ~visit:(fun _ _ _ -> ()) in
      let n = read_n t r line in
      let i = ip_leaf_slot t r line ~n ~key `Lower in
      let found = i < n && Mem.read_i32 t.sim r (leaf_key_off c line i) = key in
      if found then begin
        let len = (n - i - 1) * 4 in
        Mem.blit t.sim r (leaf_key_off c line (i + 1)) r (leaf_key_off c line i) len;
        Mem.blit t.sim r (leaf_ptr_off c line (i + 1)) r (leaf_ptr_off c line i) len;
        write_n t r line (n - 1);
        Mem.write_u16 t.sim r h_total (Mem.read_u16 t.sim r h_total - 1);
        Buffer_pool.mark_dirty t.pool page
      end;
      Buffer_pool.unpin t.pool page;
      found
    end
  in
  go t.root 1

(* --- Bulkload --------------------------------------------------------------- *)

(* Leaf pages spread entries over all leaf nodes; nonleaf pages pack. *)
let bulkload t pairs ~fill =
  if fill <= 0. || fill > 1. then invalid_arg "Disk_first.bulkload: fill";
  if t.n_pages > 1 then invalid_arg "Disk_first.bulkload: tree not empty";
  let c = t.cfg in
  if Array.length pairs > 0 then begin
    Buffer_pool.free_page t.pool t.root;
    t.n_pages <- t.n_pages - 1;
    let root, levels =
      Page_chain.build links t.pool ~fanout:c.max_fanout ~fill pairs
        ~make:(fun ~leaf entries lo cnt ->
          let page, r = new_page t ~kind:(if leaf then 0 else 1) in
          let n_leaves = if leaf then c.max_leaves else (cnt + c.fl - 1) / c.fl in
          build_in_page t r (Array.sub entries lo cnt) ~n_leaves;
          (page, r))
    in
    t.root <- root;
    t.levels <- levels
  end

(* --- Range scan ------------------------------------------------------------- *)

(* I/O jump-pointer cursor over the in-page leaf nodes of leaf-parent pages:
   the page, in-page leaf node and slot of the next tree-leaf page ID.
   [jp_line = 0] means the page's first node, read from its header on
   arrival. *)
type jp_cursor = {
  mutable jp_page : int;
  mutable jp_line : int;
  mutable jp_idx : int;
}

(* Descend to the leaf page for [key], leaving the cursor on the
   leaf-parent entry that routed there ([nil] page when the root is a
   leaf): a scan starts its I/O prefetch right beside it, as the paper's
   start-key search does, instead of searching the leaf-parent again. *)
let descend_to_leaf t key =
  let cur = { jp_page = nil; jp_line = 0; jp_idx = 0 } in
  let rec go page depth =
    if depth = t.levels then page
    else begin
      let r = pin_at t page depth in
      let line, slot = ip_route_slot t r key in
      let child = Mem.read_i32 t.sim r (leaf_ptr_off t.cfg line slot) in
      Level_acc.bump t.acc depth;
      cur.jp_page <- page;
      cur.jp_line <- line;
      cur.jp_idx <- slot;
      Buffer_pool.unpin t.pool page;
      go child (depth + 1)
    end
  in
  let leaf = go t.root 1 in
  (leaf, cur)

(* Successive tree-leaf page IDs. *)
let rec jp_next t cur =
  if cur.jp_page = nil then None
  else begin
    let r = Buffer_pool.get t.pool cur.jp_page in
    if cur.jp_line = 0 then cur.jp_line <- Mem.read_u16 t.sim r h_first_leaf;
    let n = read_n t r cur.jp_line in
    if cur.jp_idx < n then begin
      let pid = Mem.read_i32 t.sim r (leaf_ptr_off t.cfg cur.jp_line cur.jp_idx) in
      cur.jp_idx <- cur.jp_idx + 1;
      Buffer_pool.unpin t.pool cur.jp_page;
      Some pid
    end
    else begin
      let next_line = Mem.read_u16 t.sim r (node_off cur.jp_line + n_next) in
      cur.jp_idx <- 0;
      if next_line <> 0 then begin
        cur.jp_line <- next_line;
        Buffer_pool.unpin t.pool cur.jp_page;
        jp_next t cur
      end
      else begin
        let next_page = Mem.read_i32 t.sim r h_next in
        Buffer_pool.unpin t.pool cur.jp_page;
        cur.jp_page <- next_page;
        cur.jp_line <- 0;
        jp_next t cur
      end
    end
  end

(* Cache-granularity prefetch of all in-page leaf nodes of a leaf page
   (walks the nonleaf structure, whose nodes the search just touched). *)
let prefetch_page_leaves t r =
  let c = t.cfg in
  let rec go line depth levels =
    if depth = levels then
      Mem.prefetch t.sim r ~off:(node_off line) ~len:(c.x * line_bytes)
    else begin
      let n = read_n t r line in
      for j = 0 to n - 1 do
        go (Mem.read_u16 t.sim r (nonleaf_child_off c line j)) (depth + 1) levels
      done
    end
  in
  let levels = Mem.read_u8 t.sim r h_ip_levels in
  go (Mem.read_u16 t.sim r h_root) 1 levels

(* The walker pins each leaf page itself, the first included; a node is
   an in-page leaf node.  A page entry reads its first node even when it
   then seeks. *)
let range_scan t ?(prefetch = true) ~start_key ~end_key f =
  let c = t.cfg in
  Scan.range_scan t.acc t.pool ~levels:t.levels ~distance:t.io_prefetch_distance
    ~bound:t.bound_scan_end ~prefetch ~start_key ~end_key
    {
      Scan.descend =
        (fun key ~cursor:_ ->
          let page, cur = descend_to_leaf t key in
          cur.jp_idx <- cur.jp_idx + 1;
          (page, None, cur));
      step = jp_next t;
      first =
        (fun r ~seek key ->
          let line = Mem.read_u16 t.sim r h_first_leaf in
          if seek then ip_find_leaf t r key ~visit:(fun _ _ _ -> ()) else line);
      next = (fun r ~page:_ line -> Mem.read_u16 t.sim r (node_off line + n_next));
      sibling = (fun r -> Mem.read_i32 t.sim r h_next);
      node =
        {
          Scan.count = (fun r line -> read_n t r line);
          slot = (fun r line ~n key -> ip_leaf_slot t r line ~n ~key `Lower);
          keys = (fun line -> leaf_key_off c line 0);
          values = (fun line -> leaf_ptr_off c line 0);
        };
      prefetch_page =
        (fun r -> if t.cache_prefetch_leaves then prefetch_page_leaves t r);
      bump_nodes = false;
    }
    f

(* --- Introspection (uncharged; tests only) ---------------------------------- *)

let height t = t.levels
let page_count t = t.n_pages
let meta t = Page_chain.meta ~root:t.root ~levels:t.levels ~n_pages:t.n_pages

let restore_meta t m =
  let root, levels, n_pages = Page_chain.restore_meta ~name m in
  t.root <- root;
  t.levels <- levels;
  t.n_pages <- n_pages

let cfg t = t.cfg
let fail fmt = Fmt.kstr failwith fmt

(* Uncharged in-page leaf iteration. *)
let peek_page_entries t r f =
  let c = t.cfg in
  let line = ref (Mem.peek_u16 r h_first_leaf) in
  while !line <> 0 do
    let n = Mem.peek_u16 r (node_off !line + n_count) in
    for j = 0 to n - 1 do
      f (Mem.peek_i32 r (leaf_key_off c !line j))
        (Mem.peek_i32 r (leaf_ptr_off c !line j))
    done;
    line := Mem.peek_u16 r (node_off !line + n_next)
  done

let iter t f =
  Page_chain.iter_leaves links t.pool ~root:t.root
    ~down:(fun ~depth page ->
      if depth = t.levels then nil
      else
        let r = Page_chain.peek t.pool page in
        Mem.peek_i32 r (leaf_ptr_off t.cfg (Mem.peek_u16 r h_first_leaf) 0))
    (fun r -> peek_page_entries t r f)

(* Check the in-page tree of one page; returns its entries in order. *)
let check_in_page t r page =
  let c = t.cfg in
  let free = Mem.peek_u16 r h_free in
  if free > c.page_lines then fail "page %d: watermark beyond page" page;
  let levels = Mem.peek_u8 r h_ip_levels in
  let leaf_lines = ref [] in
  (* structure walk: nodes in bounds, leaves at correct depth *)
  let rec walk line depth =
    if line = 0 || line >= free then fail "page %d: bad node line %d" page line;
    if depth = levels then leaf_lines := line :: !leaf_lines
    else begin
      let n = Mem.peek_u16 r (node_off line + n_count) in
      if n = 0 then fail "page %d: empty nonleaf node" page;
      if n > c.fn then fail "page %d: overfull nonleaf node" page;
      for j = 0 to n - 1 do
        if j > 0 then begin
          let a = Mem.peek_i32 r (nonleaf_key_off c line (j - 1)) in
          let b = Mem.peek_i32 r (nonleaf_key_off c line j) in
          if a >= b then fail "page %d: nonleaf keys out of order" page
        end;
        walk (Mem.peek_u16 r (nonleaf_child_off c line j)) (depth + 1)
      done
    end
  in
  walk (Mem.peek_u16 r h_root) 1;
  let leaf_lines = List.rev !leaf_lines in
  (* leaf chain must match tree order *)
  let rec chain line acc =
    if line = 0 then List.rev acc
    else chain (Mem.peek_u16 r (node_off line + n_next)) (line :: acc)
  in
  let chained = chain (Mem.peek_u16 r h_first_leaf) [] in
  if chained <> leaf_lines then fail "page %d: leaf chain disagrees" page;
  (* each prev link names the node before it in the chain *)
  ignore
    (List.fold_left
       (fun prev line ->
         if Mem.peek_u16 r (node_off line + n_prev) <> prev then
           fail "page %d: leaf node %d's prev link is not %d" page line prev;
         line)
       0 chained
      : int);
  (match List.rev chained with
  | last :: _ when last <> Mem.peek_u16 r h_last_leaf ->
      fail "page %d: stale last-leaf header" page
  | _ -> ());
  if List.length leaf_lines <> Mem.peek_u16 r h_n_leaves then
    fail "page %d: wrong leaf count" page;
  (* entries sorted; total matches *)
  let entries = ref [] in
  peek_page_entries t r (fun k v -> entries := (k, v) :: !entries);
  let entries = List.rev !entries in
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if a >= b then fail "page %d: entries out of order" page;
        sorted rest
    | _ -> ()
  in
  sorted entries;
  if List.length entries <> Mem.peek_u16 r h_total then
    fail "page %d: wrong total" page;
  entries

let check t =
  let leaves_seen = ref [] in
  let rec check_page page ~lo ~hi ~depth =
    let r = Page_chain.peek t.pool page in
    let kind = Mem.peek_u8 r h_kind in
    if (kind = 0) <> (depth = t.levels) then
      fail "page %d: wrong kind at depth %d" page depth;
    let entries = check_in_page t r page in
    List.iteri
      (fun i (k, _) ->
        (match lo with
        | Some b when i > 0 && k < b -> fail "page %d: key below bound" page
        | _ -> ());
        match hi with
        | Some b when k >= b -> fail "page %d: key above bound" page
        | _ -> ())
      entries;
    if Mem.peek_u16 r h_total > t.cfg.max_leaves * t.cfg.fl then
      fail "page %d: exceeds page capacity" page;
    if kind = 0 then leaves_seen := page :: !leaves_seen
    else begin
      let arr = Array.of_list entries in
      Array.iteri
        (fun i (k, child) ->
          let clo = if i = 0 then lo else Some k in
          let chi = if i = Array.length arr - 1 then hi else Some (fst arr.(i + 1)) in
          check_page child ~lo:clo ~hi:chi ~depth:(depth + 1))
        arr
    end
  in
  check_page t.root ~lo:None ~hi:None ~depth:1;
  Page_chain.check links t.pool (List.rev !leaves_seen)
