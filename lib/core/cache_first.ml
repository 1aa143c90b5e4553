(* Cache-first fpB+-Tree (paper, Section 3.2): a cache-optimized B+-Tree of
   uniform w-line nodes, intelligently placed into disk pages.

   Placement goals (Section 3.2.1):
   - leaf pages contain only (sibling) leaf nodes, for range-scan I/O;
   - a nonleaf node is placed in the same page as its parent when the
     parent is its page's top-level node and the bulkload bitmap selects
     it ("aggressive placement"), so a search visits fewer pages;
   - leaf-parent nodes that do not fit with their parents go to dedicated
     overflow pages (their children live in leaf pages anyway).

   Pointers in nonleaf nodes are full pointers: 4-byte page ID + 2-byte
   in-page offset (the child node's starting line).  Following a pointer
   whose page ID equals the current page skips the buffer manager — the
   payoff of aggressive placement.

   Updates (Section 3.2.2): leaf node splits allocate in the same leaf
   page if possible, otherwise the leaf page is split (second half of its
   leaf-node chain moves to a new page; parents found via the page's
   back-pointer and the leaf-parent sibling chain).  Leaf-parent node
   splits allocate from overflow pages; higher nonleaf node splits
   allocate from per-level allocation pools (a simplification of the
   paper's Figure 9(c) page split, documented in DESIGN.md).

   An external jump-pointer array [Jump_array] holds all leaf page IDs for
   range-scan I/O prefetching; every leaf page records its chunk.

   Page layout (64B header, then node slots of w lines):
     0  u8  kind (0 leaf page, 1 nonleaf, 2 overflow)
     2  u16 bump (node slots ever used)
     4  i32 next page   8 i32 prev page        (leaf pages)
     12 i32 parent page 16 u16 parent line     (leaf pages: back-pointer)
     18 u16 free slot head (line; 0 = none)
     20 i32 jump-pointer chunk                 (leaf pages)
     24 u16 first leaf line (chain order)      (leaf pages)
     26 u16 free slot count

   Node layout (8B header): 0 u16 n; 2 u16 next line; 4 i32 next page.
   Leaf: keys (4B x fl) then tuple IDs (4B x fl).
   Nonleaf: keys (4B x fn), child pages (4B x fn), child lines (2B x fn). *)

open Fpb_simmem
open Fpb_storage
open Fpb_btree_common

type cfg = {
  page_size : int;
  page_lines : int;
  w : int;  (* node size in lines *)
  fl : int;  (* leaf node capacity *)
  fn : int;  (* nonleaf node capacity *)
  slots : int;  (* node slots per page *)
}

type ptr = { pg : int; ln : int }

let null_ptr = { pg = Page_store.nil; ln = 0 }

type t = {
  pool : Buffer_pool.t;
  sim : Sim.t;
  cfg : cfg;
  mutable root : ptr;
  held : Buffer_pool.held;  (* its nonleaf pages' frames *)
  mutable levels : int;  (* node levels; 1 = root is a leaf node *)
  mutable n_pages : int;
  jp : Jump_array.t;
  mutable overflow_page : int;  (* current overflow allocation page *)
  level_pool : (int, int) Hashtbl.t;  (* tree depth -> allocation page *)
  acc : Level_acc.t;
}

let name = "cache-first fpB+tree"
let nil = Page_store.nil
let line_bytes = 64

(* Page header offsets *)
let h_kind = 0
let h_bump = 2
let h_next = 4
let h_prev = 8
let h_parent_pg = 12
let h_parent_ln = 16
let h_free_head = 18
let h_jp_chunk = 20
let h_first_leaf = 24
let h_free_count = 26

(* The page links sit in the opposite order from the other paged trees'
   (next at 4, prev at 8).  The WAL logs each commit's written byte span,
   so moving them would change the logged bytes. *)
let links = { Page_chain.prev = h_prev; next = h_next }

(* Node field offsets *)
let n_count = 0
let n_next_ln = 2
let n_next_pg = 4
let node_header = 8

let cfg_of_width ~page_size ~w =
  let page_lines = page_size / line_bytes in
  {
    page_size;
    page_lines;
    w;
    fl = Layout.cf_leaf_capacity ~line_size:line_bytes w;
    fn = Layout.cf_nonleaf_capacity ~line_size:line_bytes w;
    slots = (page_lines - 1) / w;
  }

let make_cfg page_size =
  let sel = Tuning.cache_first ~page_size () in
  cfg_of_width ~page_size ~w:sel.Tuning.cf_w

let node_off line = line * line_bytes
let key_off line i = node_off line + node_header + (Key.size * i)
let tid_off c line i = node_off line + node_header + (Key.size * c.fl) + (4 * i)
let cpg_off c line i = node_off line + node_header + (Key.size * c.fn) + (4 * i)
let cln_off c line i = node_off line + node_header + (8 * c.fn) + (2 * i)

(* --- Page and node allocation --------------------------------------------- *)

let new_page t ~kind =
  let page, r = Buffer_pool.create_page t.pool in
  t.n_pages <- t.n_pages + 1;
  Mem.write_u8 t.sim r h_kind kind;
  Mem.write_u16 t.sim r h_bump 0;
  Mem.write_i32 t.sim r h_next nil;
  Mem.write_i32 t.sim r h_prev nil;
  Mem.write_i32 t.sim r h_parent_pg nil;
  Mem.write_u16 t.sim r h_free_head 0;
  Mem.write_u16 t.sim r h_free_count 0;
  Mem.write_i32 t.sim r h_jp_chunk nil;
  (page, r)

(* Allocate a node slot in page [r]; None if the page is full. *)
let alloc_node t r =
  let free_head = Mem.read_u16 t.sim r h_free_head in
  if free_head <> 0 then begin
    let next_free = Mem.read_u16 t.sim r (node_off free_head) in
    Mem.write_u16 t.sim r h_free_head next_free;
    Mem.write_u16 t.sim r h_free_count (Mem.read_u16 t.sim r h_free_count - 1);
    Some free_head
  end
  else begin
    let bump = Mem.read_u16 t.sim r h_bump in
    if bump >= t.cfg.slots then None
    else begin
      Mem.write_u16 t.sim r h_bump (bump + 1);
      Some (1 + (bump * t.cfg.w))
    end
  end

let free_node t r line =
  Mem.write_u16 t.sim r (node_off line) (Mem.read_u16 t.sim r h_free_head);
  Mem.write_u16 t.sim r h_free_head line;
  Mem.write_u16 t.sim r h_free_count (Mem.read_u16 t.sim r h_free_count + 1)

(* Allocate a node from a pool of slab pages (overflow pages for leaf
   parents, per-level pools for higher nonleaf nodes). *)
let alloc_from_pool t ~get_page ~set_page ~kind =
  let try_page page =
    if page = nil then None
    else
      Buffer_pool.with_page t.pool page (fun r ->
          match alloc_node t r with
          | Some line ->
              Buffer_pool.mark_dirty t.pool page;
              Some { pg = page; ln = line }
          | None -> None)
  in
  match try_page (get_page ()) with
  | Some p -> p
  | None ->
      let page, r = new_page t ~kind in
      set_page page;
      let line = Option.get (alloc_node t r) in
      Buffer_pool.mark_dirty t.pool page;
      Buffer_pool.unpin t.pool page;
      { pg = page; ln = line }

let alloc_overflow t =
  alloc_from_pool t
    ~get_page:(fun () -> t.overflow_page)
    ~set_page:(fun p -> t.overflow_page <- p)
    ~kind:2

let alloc_level_pool t depth =
  alloc_from_pool t
    ~get_page:(fun () -> Option.value ~default:nil (Hashtbl.find_opt t.level_pool depth))
    ~set_page:(fun p -> Hashtbl.replace t.level_pool depth p)
    ~kind:1

(* --- Creation -------------------------------------------------------------- *)

let create_with_cfg pool cfg =
  let sim = Buffer_pool.sim pool in
  let t =
    {
      pool;
      sim;
      cfg;
      root = null_ptr;
      held = Buffer_pool.held ();
      levels = 1;
      n_pages = 0;
      jp = Jump_array.create pool;
      overflow_page = nil;
      level_pool = Hashtbl.create 8;
      acc = Level_acc.create sim;
    }
  in
  let page, r = new_page t ~kind:0 in
  let line = Option.get (alloc_node t r) in
  Mem.write_u16 t.sim r (node_off line + n_count) 0;
  Mem.write_u16 t.sim r (node_off line + n_next_ln) 0;
  Mem.write_i32 t.sim r (node_off line + n_next_pg) nil;
  Mem.write_u16 t.sim r h_first_leaf line;
  Buffer_pool.unpin t.pool page;
  Jump_array.build t.jp [| page |] ~fill:0.8 ~on_assign:(fun pg ~chunk ->
      Buffer_pool.with_page t.pool pg (fun pr ->
          Mem.write_i32 t.sim pr h_jp_chunk chunk;
          Buffer_pool.mark_dirty t.pool pg));
  t.root <- { pg = page; ln = line };
  t

let create pool =
  let page_size = Page_store.page_size (Buffer_pool.store pool) in
  create_with_cfg pool (make_cfg page_size)

(* Non-tuned node width, for the Figure 11 width sweep. *)
let create_custom pool ~w =
  let page_size = Page_store.page_size (Buffer_pool.store pool) in
  create_with_cfg pool (cfg_of_width ~page_size ~w)

(* --- Uncharged instrumentation --------------------------------------------- *)

let level_acc t = t.acc

(* --- Search ---------------------------------------------------------------- *)

let prefetch_node t r line =
  Mem.prefetch t.sim r ~off:(node_off line) ~len:(t.cfg.w * line_bytes);
  Sim.busy_node t.sim

(* Child pointer [slot] of nonleaf node [line]. *)
let child_at t r line slot =
  let pg = Mem.read_i32 t.sim r (cpg_off t.cfg line slot) in
  let ln = Mem.read_u16 t.sim r (cln_off t.cfg line slot) in
  (pg, ln)

(* Pin the page of a descent's node [line] at [depth]
   ([Buffer_pool.pin]'s policy): a leaf node's lines are in flight when
   it returns. *)
let pin_at t page line depth =
  Buffer_pool.pin t.pool t.held page ~leaf:(depth = t.levels)
    ~off:(node_off line) ~len:(t.cfg.w * line_bytes)

(* Descend to the leaf node containing [key].  Returns (page, region, line)
   with the page pinned.  [visit] sees each nonleaf (ptr, slot taken).  A
   leaf node that its pin [fetched] is not prefetched again. *)
let descend t key ~visit =
  let rec go page r line depth ~fetched =
    let stall0 = Level_acc.stall_now t.acc in
    if fetched then Sim.busy_node t.sim else prefetch_node t r line;
    if depth = t.levels then begin
      Level_acc.note t.acc ~page ~depth ~stall0;
      (page, r, line)
    end
    else begin
      let n = Mem.read_u16 t.sim r (node_off line + n_count) in
      let i = Array_search.upper_bound t.sim r ~off:(key_off line 0) ~n ~key in
      let slot = if i > 0 then i - 1 else 0 in
      Level_acc.note t.acc ~page ~depth ~stall0;
      visit { pg = page; ln = line } slot;
      let child_pg, child_ln = child_at t r line slot in
      if child_pg = page then go page r child_ln (depth + 1) ~fetched:false
      else begin
        Buffer_pool.unpin t.pool page;
        let cr = pin_at t child_pg child_ln (depth + 1) in
        go child_pg cr child_ln (depth + 1) ~fetched:(depth + 1 = t.levels)
      end
    end
  in
  let r = pin_at t t.root.pg t.root.ln 1 in
  go t.root.pg r t.root.ln 1 ~fetched:(t.levels = 1)

let leaf_lookup t r line ~n key =
  let i = Array_search.lower_bound t.sim r ~off:(key_off line 0) ~n ~key in
  if i < n && Mem.read_i32 t.sim r (key_off line i) = key then
    Some (Mem.read_i32 t.sim r (tid_off t.cfg line i))
  else None

let search t key =
  Sim.busy_op t.sim;
  let page, r, line = descend t key ~visit:(fun _ _ -> ()) in
  let result =
    leaf_lookup t r line ~n:(Mem.read_u16 t.sim r (node_off line + n_count)) key
  in
  Buffer_pool.unpin t.pool page;
  result

(* Batched search: the shared walker over [(page, node)] frontiers.
   Entering a node prefetches its lines, then queues the next frontier
   node's lines while this one is searched, so they arrive before its
   own [prefetch_node]. *)
let search_batch t keys =
  Wave.search_batch t.acc t.pool ~root:(t.root.pg, t.root.ln)
    ~levels:t.levels ~held:t.held keys
    {
      Wave.lookahead = (fun _ _ -> ());
      enter =
        (fun r line ~next ->
          prefetch_node t r line;
          Option.iter
            (fun (nr, nln) ->
              Mem.prefetch t.sim nr ~off:(node_off nln)
                ~len:(t.cfg.w * line_bytes))
            next;
          Mem.read_u16 t.sim r (node_off line + n_count));
      route =
        (fun r line ~n key ->
          let i = Array_search.upper_bound t.sim r ~off:(key_off line 0) ~n ~key in
          child_at t r line (if i > 0 then i - 1 else 0));
      lookup = (fun r line ~n key -> leaf_lookup t r line ~n key);
      search = search t;
    }

(* --- Leaf page split -------------------------------------------------------- *)

(* Leaf nodes of page [pg] in chain order. *)
let page_chain t r pg =
  let lines = ref [] in
  let line = ref (Mem.read_u16 t.sim r h_first_leaf) in
  let cont = ref (!line <> 0) in
  while !cont do
    lines := !line :: !lines;
    let next_pg = Mem.read_i32 t.sim r (node_off !line + n_next_pg) in
    let next_ln = Mem.read_u16 t.sim r (node_off !line + n_next_ln) in
    if next_pg = pg then line := next_ln else cont := false
  done;
  Array.of_list (List.rev !lines)

(* Split leaf page [pg]: move the second half of its leaf-node chain to a
   new page.  Returns (new_page, moved) where [moved] maps old line ->
   new line. *)
let split_leaf_page t pg =
  let c = t.cfg in
  let r = Buffer_pool.get t.pool pg in
  Buffer_pool.mark_dirty t.pool pg;
  let chain = page_chain t r pg in
  let k = Array.length chain in
  let mid = k / 2 in
  let moved_lines = Array.sub chain mid (k - mid) in
  let np, nr = new_page t ~kind:0 in
  let moved = Hashtbl.create 16 in
  Array.iter
    (fun old_line ->
      let new_line = Option.get (alloc_node t nr) in
      Mem.blit t.sim r (node_off old_line) nr (node_off new_line)
        (c.w * line_bytes);
      free_node t r old_line;
      Hashtbl.replace moved old_line new_line)
    moved_lines;
  (* intra-page chain links of moved nodes now point at old lines; fix *)
  Array.iteri
    (fun j old_line ->
      let new_line = Hashtbl.find moved old_line in
      if j < Array.length moved_lines - 1 then begin
        Mem.write_i32 t.sim nr (node_off new_line + n_next_pg) np;
        Mem.write_u16 t.sim nr (node_off new_line + n_next_ln)
          (Hashtbl.find moved moved_lines.(j + 1))
      end
      (* last moved node keeps its (external) copied next pointer *))
    moved_lines;
  (* predecessor in the old page now points at the new page *)
  let pred = chain.(mid - 1) in
  Mem.write_i32 t.sim r (node_off pred + n_next_pg) np;
  Mem.write_u16 t.sim r (node_off pred + n_next_ln) (Hashtbl.find moved chain.(mid));
  Mem.write_u16 t.sim nr h_first_leaf (Hashtbl.find moved chain.(mid));
  Page_chain.splice links t.pool ~page:pg r ~right:np nr;
  (* update parent child-pointers via the back-pointer + sibling chain *)
  let parent_pg = Mem.read_i32 t.sim r h_parent_pg in
  let parent_ln = Mem.read_u16 t.sim r h_parent_ln in
  let remaining = ref (Hashtbl.length moved) in
  let first_moved_parent = ref null_ptr in
  let cur = ref { pg = parent_pg; ln = parent_ln } in
  let guard = ref 0 in
  while !remaining > 0 do
    incr guard;
    if !cur.pg = nil || !guard > 100000 then
      failwith "cache-first: parent walk failed during leaf page split";
    let ppg = !cur.pg and pln = !cur.ln in
    Buffer_pool.with_page t.pool ppg (fun prr ->
        let n = Mem.read_u16 t.sim prr (node_off pln + n_count) in
        for j = 0 to n - 1 do
          if Mem.read_i32 t.sim prr (cpg_off c pln j) = pg then begin
            let child_ln = Mem.read_u16 t.sim prr (cln_off c pln j) in
            match Hashtbl.find_opt moved child_ln with
            | Some new_line ->
                Mem.write_i32 t.sim prr (cpg_off c pln j) np;
                Mem.write_u16 t.sim prr (cln_off c pln j) new_line;
                Buffer_pool.mark_dirty t.pool ppg;
                if new_line = Hashtbl.find moved chain.(mid) then
                  first_moved_parent := { pg = ppg; ln = pln };
                decr remaining
            | None -> ()
          end
        done;
        if !remaining > 0 then
          cur :=
            { pg = Mem.read_i32 t.sim prr (node_off pln + n_next_pg);
              ln = Mem.read_u16 t.sim prr (node_off pln + n_next_ln) })
  done;
  Mem.write_i32 t.sim nr h_parent_pg !first_moved_parent.pg;
  Mem.write_u16 t.sim nr h_parent_ln !first_moved_parent.ln;
  (* register the new page in the jump-pointer array *)
  let chunk = Mem.read_i32 t.sim r h_jp_chunk in
  Buffer_pool.unpin t.pool pg;
  Buffer_pool.unpin t.pool np;
  Jump_array.insert_after t.jp ~chunk ~after_page:pg ~new_page:np
    ~on_assign:(fun page ~chunk ->
      Buffer_pool.with_page t.pool page (fun pr ->
          Mem.write_i32 t.sim pr h_jp_chunk chunk;
          Buffer_pool.mark_dirty t.pool page));
  (np, moved)

(* --- Insertion --------------------------------------------------------------- *)

(* Insert entry (key, value/child) into node [line] of pinned region [r] at
   slot [i]. *)
let leaf_insert_at t r line ~n ~i key tid =
  let c = t.cfg in
  Mem.blit t.sim r (key_off line i) r (key_off line (i + 1)) ((n - i) * 4);
  Mem.blit t.sim r (tid_off c line i) r (tid_off c line (i + 1)) ((n - i) * 4);
  Mem.write_i32 t.sim r (key_off line i) key;
  Mem.write_i32 t.sim r (tid_off c line i) tid;
  Mem.write_u16 t.sim r (node_off line + n_count) (n + 1)

let nonleaf_insert_at t r line ~n ~i key child =
  let c = t.cfg in
  Mem.blit t.sim r (key_off line i) r (key_off line (i + 1)) ((n - i) * 4);
  Mem.blit t.sim r (cpg_off c line i) r (cpg_off c line (i + 1)) ((n - i) * 4);
  Mem.blit t.sim r (cln_off c line i) r (cln_off c line (i + 1)) ((n - i) * 2);
  Mem.write_i32 t.sim r (key_off line i) key;
  Mem.write_i32 t.sim r (cpg_off c line i) child.pg;
  Mem.write_u16 t.sim r (cln_off c line i) child.ln;
  Mem.write_u16 t.sim r (node_off line + n_count) (n + 1)

(* Copy the upper half of node [src] (in pinned region [sr]) into the fresh
   node [dst]; fixes counts and sibling links.  [kind] selects the entry
   arrays.  Returns the separator key. *)
let split_node_into t sr src dr dst ~kind =
  let c = t.cfg in
  let n = Mem.read_u16 t.sim sr (node_off src + n_count) in
  let mid = n / 2 in
  let moved = n - mid in
  Mem.blit t.sim sr (key_off src mid) dr (key_off dst 0) (moved * 4);
  (match kind with
  | `Leaf ->
      Mem.blit t.sim sr (tid_off c src mid) dr (tid_off c dst 0) (moved * 4)
  | `Nonleaf ->
      Mem.blit t.sim sr (cpg_off c src mid) dr (cpg_off c dst 0) (moved * 4);
      Mem.blit t.sim sr (cln_off c src mid) dr (cln_off c dst 0) (moved * 2));
  Mem.write_u16 t.sim dr (node_off dst + n_count) moved;
  Mem.write_u16 t.sim sr (node_off src + n_count) mid;
  (* sibling chain: src -> dst -> old next *)
  Mem.write_i32 t.sim dr (node_off dst + n_next_pg)
    (Mem.read_i32 t.sim sr (node_off src + n_next_pg));
  Mem.write_u16 t.sim dr (node_off dst + n_next_ln)
    (Mem.read_u16 t.sim sr (node_off src + n_next_ln));
  Mem.read_i32 t.sim dr (key_off dst 0)

(* Insert (sep, child) into the parents along [path] (innermost first).
   [child_depth] is the tree depth of [child] (root = 1). *)
let rec insert_into_parent t path sep child ~child_depth =
  let c = t.cfg in
  match path with
  | [] ->
      (* new root *)
      let root_ptr =
        if t.levels = 1 then alloc_level_pool t 0
        else alloc_level_pool t 0
      in
      let rr = Buffer_pool.get t.pool root_ptr.pg in
      let old = t.root in
      let old_min =
        Buffer_pool.with_page t.pool old.pg (fun orr ->
            Mem.read_i32 t.sim orr (key_off old.ln 0))
      in
      Mem.write_u16 t.sim rr (node_off root_ptr.ln + n_count) 2;
      Mem.write_u16 t.sim rr (node_off root_ptr.ln + n_next_ln) 0;
      Mem.write_i32 t.sim rr (node_off root_ptr.ln + n_next_pg) nil;
      Mem.write_i32 t.sim rr (key_off root_ptr.ln 0) old_min;
      Mem.write_i32 t.sim rr (cpg_off c root_ptr.ln 0) old.pg;
      Mem.write_u16 t.sim rr (cln_off c root_ptr.ln 0) old.ln;
      Mem.write_i32 t.sim rr (key_off root_ptr.ln 1) sep;
      Mem.write_i32 t.sim rr (cpg_off c root_ptr.ln 1) child.pg;
      Mem.write_u16 t.sim rr (cln_off c root_ptr.ln 1) child.ln;
      Buffer_pool.mark_dirty t.pool root_ptr.pg;
      Buffer_pool.unpin t.pool root_ptr.pg;
      (* if the old root was a leaf, its page's back-pointer now exists *)
      if t.levels = 1 then
        Buffer_pool.with_page t.pool old.pg (fun orr ->
            Mem.write_i32 t.sim orr h_parent_pg root_ptr.pg;
            Mem.write_u16 t.sim orr h_parent_ln root_ptr.ln;
            Buffer_pool.mark_dirty t.pool old.pg);
      t.root <- root_ptr;
      t.levels <- t.levels + 1
  | parent :: rest ->
      let r = Buffer_pool.get t.pool parent.pg in
      Buffer_pool.mark_dirty t.pool parent.pg;
      let line = parent.ln in
      let n = Mem.read_u16 t.sim r (node_off line + n_count) in
      let i = Array_search.upper_bound t.sim r ~off:(key_off line 0) ~n ~key:sep in
      (* untrusted-minimum fix, including the equality case (a separator
         equal to the recorded key 0 must not duplicate it) *)
      let i =
        if i = 0 || (i = 1 && Mem.read_i32 t.sim r (key_off line 0) = sep)
        then begin
          Mem.write_i32 t.sim r (key_off line 0) (sep - 1);
          1
        end
        else i
      in
      if n < c.fn then begin
        nonleaf_insert_at t r line ~n ~i sep child;
        Buffer_pool.unpin t.pool parent.pg
      end
      else begin
        (* split this nonleaf node *)
        let parent_depth = child_depth - 1 in
        let is_leaf_parent = child_depth = t.levels in
        let new_ptr =
          match alloc_node t r with
          | Some ln -> { pg = parent.pg; ln }
          | None ->
              if is_leaf_parent then alloc_overflow t
              else alloc_level_pool t parent_depth
        in
        let nr =
          if new_ptr.pg = parent.pg then r else Buffer_pool.get t.pool new_ptr.pg
        in
        let node_sep = split_node_into t r line nr new_ptr.ln ~kind:`Nonleaf in
        Mem.write_i32 t.sim r (node_off line + n_next_pg) new_ptr.pg;
        Mem.write_u16 t.sim r (node_off line + n_next_ln) new_ptr.ln;
        let mid = c.fn / 2 in
        (if i <= mid then nonleaf_insert_at t r line ~n:mid ~i sep child
         else
           nonleaf_insert_at t nr new_ptr.ln ~n:(c.fn - mid) ~i:(i - mid) sep
             child);
        if new_ptr.pg <> parent.pg then begin
          Buffer_pool.mark_dirty t.pool new_ptr.pg;
          Buffer_pool.unpin t.pool new_ptr.pg
        end;
        Buffer_pool.unpin t.pool parent.pg;
        insert_into_parent t rest node_sep new_ptr ~child_depth:parent_depth
      end

let insert t key tid =
  if not (Key.valid key) then invalid_arg "Cache_first.insert: key out of range";
  Sim.busy_op t.sim;
  let c = t.cfg in
  let path = ref [] in
  let page, r, line = descend t key ~visit:(fun p _ -> path := p :: !path) in
  let n = Mem.read_u16 t.sim r (node_off line + n_count) in
  let i = Array_search.lower_bound t.sim r ~off:(key_off line 0) ~n ~key in
  if i < n && Mem.read_i32 t.sim r (key_off line i) = key then begin
    Mem.write_i32 t.sim r (tid_off c line i) tid;
    Buffer_pool.mark_dirty t.pool page;
    Buffer_pool.unpin t.pool page;
    `Updated
  end
  else if n < c.fl then begin
    leaf_insert_at t r line ~n ~i key tid;
    Buffer_pool.mark_dirty t.pool page;
    Buffer_pool.unpin t.pool page;
    `Inserted
  end
  else begin
    (* split the leaf node *)
    let page, r, line =
      match alloc_node t r with
      | Some new_ln ->
          (* room in this page: undo the allocation bookkeeping by using it
             below; stash it via free list is unnecessary — keep it *)
          free_node t r new_ln;
          (page, r, line)
      | None ->
          (* page full: split the leaf page, then re-locate our node *)
          Buffer_pool.unpin t.pool page;
          let np, moved = split_leaf_page t page in
          (match Hashtbl.find_opt moved line with
          | Some new_line ->
              let nr = Buffer_pool.get t.pool np in
              (np, nr, new_line)
          | None ->
              let r = Buffer_pool.get t.pool page in
              (page, r, line))
    in
    Buffer_pool.mark_dirty t.pool page;
    let new_ln = Option.get (alloc_node t r) in
    let sep = split_node_into t r line r new_ln ~kind:`Leaf in
    Mem.write_i32 t.sim r (node_off line + n_next_pg) page;
    Mem.write_u16 t.sim r (node_off line + n_next_ln) new_ln;
    let mid = c.fl / 2 in
    (if i <= mid then leaf_insert_at t r line ~n:mid ~i key tid
     else leaf_insert_at t r new_ln ~n:(c.fl - mid) ~i:(i - mid) key tid);
    Buffer_pool.unpin t.pool page;
    insert_into_parent t !path sep { pg = page; ln = new_ln }
      ~child_depth:t.levels;
    `Inserted
  end

(* --- Deletion ----------------------------------------------------------------- *)

let delete t key =
  Sim.busy_op t.sim;
  let c = t.cfg in
  let page, r, line = descend t key ~visit:(fun _ _ -> ()) in
  let n = Mem.read_u16 t.sim r (node_off line + n_count) in
  let i = Array_search.lower_bound t.sim r ~off:(key_off line 0) ~n ~key in
  let found = i < n && Mem.read_i32 t.sim r (key_off line i) = key in
  if found then begin
    Mem.blit t.sim r (key_off line (i + 1)) r (key_off line i) ((n - i - 1) * 4);
    Mem.blit t.sim r (tid_off c line (i + 1)) r (tid_off c line i)
      ((n - i - 1) * 4);
    Mem.write_u16 t.sim r (node_off line + n_count) (n - 1);
    Buffer_pool.mark_dirty t.pool page
  end;
  Buffer_pool.unpin t.pool page;
  found

(* --- Bulkload -------------------------------------------------------------------- *)

(* Two passes: (1) decide every node's placement top-down following the
   aggressive scheme with an even bitmap spread; (2) write node contents
   bottom-up using the assigned pointers. *)
let bulkload t pairs ~fill =
  if fill <= 0. || fill > 1. then invalid_arg "Cache_first.bulkload: fill";
  let c = t.cfg in
  let total = Array.length pairs in
  if total = 0 then ()
  else begin
    if t.n_pages > 1 || Jump_array.page_count t.jp > 1 then
      invalid_arg "Cache_first.bulkload: tree not empty";
    (* Discard the initial empty page (the jump-pointer chunk is rebuilt
       below; its single stale entry is overwritten by build). *)
    Buffer_pool.free_page t.pool t.root.pg;
    t.n_pages <- t.n_pages - 1;
    Jump_array.reset t.jp;
    let per_leaf = max 1 (int_of_float (float_of_int c.fl *. fill)) in
    let per_node = max 2 (int_of_float (float_of_int c.fn *. fill)) in
    (* shape *)
    let n_leaves = (total + per_leaf - 1) / per_leaf in
    let counts = ref [ n_leaves ] in
    while List.hd !counts > 1 do
      counts := ((List.hd !counts + per_node - 1) / per_node) :: !counts
    done;
    let counts = Array.of_list (List.rev !counts) in
    (* counts.(0) = leaves ... counts.(depth-1) = root level (size 1) *)
    let depth = Array.length counts in
    t.levels <- depth;
    (* leaf placement: packed into leaf pages *)
    let n_leaf_pages = (n_leaves + c.slots - 1) / c.slots in
    let leaf_pages = Array.make n_leaf_pages nil in
    for p = 0 to n_leaf_pages - 1 do
      let page, r = new_page t ~kind:0 in
      let cnt = min c.slots (n_leaves - (p * c.slots)) in
      Mem.write_u16 t.sim r h_bump cnt;
      Mem.write_u16 t.sim r h_first_leaf 1;
      Buffer_pool.unpin t.pool page;
      leaf_pages.(p) <- page
    done;
    let place = Array.map (fun cnt -> Array.make cnt null_ptr) counts in
    for i = 0 to n_leaves - 1 do
      place.(0).(i) <-
        { pg = leaf_pages.(i / c.slots); ln = 1 + (i mod c.slots * c.w) }
    done;
    (* nonleaf placement, top-down *)
    let page_used = Hashtbl.create 64 in
    let top_level = Hashtbl.create 64 in
    (* page -> used slots *)
    let place_new_page lvl i kind =
      let page, r = new_page t ~kind in
      Mem.write_u16 t.sim r h_bump 1;
      Buffer_pool.unpin t.pool page;
      Hashtbl.replace page_used page 1;
      Hashtbl.replace top_level (lvl, i) true;
      place.(lvl).(i) <- { pg = page; ln = 1 }
    in
    if depth > 1 then place_new_page (depth - 1) 0 1;
    for lvl = depth - 1 downto 2 do
      (* place the children (at lvl-1, nonleaf) of every node at lvl *)
      let child_base = ref 0 in
      for i = 0 to counts.(lvl) - 1 do
        let cnt = min per_node (counts.(lvl - 1) - !child_base) in
        let parent = place.(lvl).(i) in
        let parent_top = Hashtbl.mem top_level (lvl, i) in
        let free_slots =
          if parent_top then
            c.slots - Option.value ~default:c.slots (Hashtbl.find_opt page_used parent.pg)
          else 0
        in
        let u = min free_slots cnt in
        for j = 0 to cnt - 1 do
          let ci = !child_base + j in
          let with_parent =
            parent_top && (j + 1) * u / cnt > j * u / cnt
          in
          if with_parent then begin
            let used = Hashtbl.find page_used parent.pg in
            Hashtbl.replace page_used parent.pg (used + 1);
            place.(lvl - 1).(ci) <- { pg = parent.pg; ln = 1 + (used * c.w) };
            Buffer_pool.with_page t.pool parent.pg (fun r ->
                Mem.write_u16 t.sim r h_bump (used + 1));
            Buffer_pool.mark_dirty t.pool parent.pg
          end
          else if lvl - 1 = 1 then
            (* leaf parent: overflow pages *)
            place.(lvl - 1).(ci) <- alloc_overflow t
          else place_new_page (lvl - 1) ci 1
        done;
        child_base := !child_base + cnt
      done
    done;
    (* fill leaves *)
    let pos = ref 0 in
    let leaf_min = Array.make n_leaves 0 in
    for i = 0 to n_leaves - 1 do
      let cnt = min per_leaf (total - !pos) in
      let p = place.(0).(i) in
      Buffer_pool.with_page t.pool p.pg (fun r ->
          Mem.write_u16 t.sim r (node_off p.ln + n_count) cnt;
          Mem.write_pairs t.sim r ~keys:(key_off p.ln 0) ~values:(tid_off c p.ln 0)
            pairs !pos cnt;
          let next =
            if i + 1 < n_leaves then place.(0).(i + 1) else null_ptr
          in
          Mem.write_i32 t.sim r (node_off p.ln + n_next_pg) next.pg;
          Mem.write_u16 t.sim r (node_off p.ln + n_next_ln) next.ln;
          Buffer_pool.mark_dirty t.pool p.pg);
      leaf_min.(i) <- fst pairs.(!pos);
      pos := !pos + cnt
    done;
    (* fill nonleaf levels bottom-up *)
    let mins = ref leaf_min in
    for lvl = 1 to depth - 1 do
      let child_base = ref 0 in
      let level_min = Array.make counts.(lvl) 0 in
      for i = 0 to counts.(lvl) - 1 do
        let cnt = min per_node (counts.(lvl - 1) - !child_base) in
        let p = place.(lvl).(i) in
        Buffer_pool.with_page t.pool p.pg (fun r ->
            Mem.write_u16 t.sim r (node_off p.ln + n_count) cnt;
            for j = 0 to cnt - 1 do
              let ci = !child_base + j in
              Mem.write_i32 t.sim r (key_off p.ln j) !mins.(ci);
              Mem.write_i32 t.sim r (cpg_off c p.ln j) place.(lvl - 1).(ci).pg;
              Mem.write_u16 t.sim r (cln_off c p.ln j) place.(lvl - 1).(ci).ln
            done;
            let next =
              if i + 1 < counts.(lvl) then place.(lvl).(i + 1) else null_ptr
            in
            Mem.write_i32 t.sim r (node_off p.ln + n_next_pg) next.pg;
            Mem.write_u16 t.sim r (node_off p.ln + n_next_ln) next.ln;
            Buffer_pool.mark_dirty t.pool p.pg);
        level_min.(i) <- !mins.(!child_base);
        child_base := !child_base + cnt
      done;
      mins := level_min
    done;
    (* leaf page headers: chain + back pointers *)
    for p = 0 to n_leaf_pages - 1 do
      Buffer_pool.with_page t.pool leaf_pages.(p) (fun r ->
          Mem.write_i32 t.sim r h_prev
            (if p > 0 then leaf_pages.(p - 1) else nil);
          Mem.write_i32 t.sim r h_next
            (if p + 1 < n_leaf_pages then leaf_pages.(p + 1) else nil);
          (if depth > 1 then begin
             let first_leaf = p * c.slots in
             let parent_idx = first_leaf / per_node in
             let pp = place.(1).(parent_idx) in
             Mem.write_i32 t.sim r h_parent_pg pp.pg;
             Mem.write_u16 t.sim r h_parent_ln pp.ln
           end);
          Buffer_pool.mark_dirty t.pool leaf_pages.(p))
    done;
    Jump_array.build t.jp leaf_pages ~fill:0.8 ~on_assign:(fun pg ~chunk ->
        Buffer_pool.with_page t.pool pg (fun pr ->
            Mem.write_i32 t.sim pr h_jp_chunk chunk;
            Buffer_pool.mark_dirty t.pool pg));
    t.root <- place.(depth - 1).(0)
  end

(* --- Range scan -------------------------------------------------------------------- *)

(* Leaf pages a range scan keeps in flight ahead of itself. *)
let io_prefetch_distance = 16

(* A node is a leaf node, and each node step is a leaf access.  The
   cursor walks the external jump-pointer array from the start page; the
   link out of the last node read names the sibling page and its first
   node. *)
let range_scan t ?(prefetch = true) ~start_key ~end_key f =
  let c = t.cfg in
  let link_pg = ref nil and link_ln = ref 0 in
  Scan.range_scan t.acc t.pool ~levels:t.levels ~distance:io_prefetch_distance
    ~prefetch ~start_key ~end_key
    {
      Scan.descend =
        (fun key ~cursor ->
          let page, r, line = descend t key ~visit:(fun _ _ -> ()) in
          let cur =
            if cursor then begin
              let chunk =
                Buffer_pool.with_page t.pool page (fun r ->
                    Mem.read_i32 t.sim r h_jp_chunk)
              in
              let cur = Jump_array.cursor_at t.jp ~chunk ~page in
              ignore (Jump_array.next cur);  (* skip the page we're on *)
              Some cur
            end
            else None
          in
          (page, Some (r, line), cur));
      step = (fun cur -> Option.bind cur Jump_array.next);
      first = (fun _ ~seek:_ _ -> !link_ln);
      next =
        (fun r ~page line ->
          link_pg := Mem.read_i32 t.sim r (node_off line + n_next_pg);
          link_ln := Mem.read_u16 t.sim r (node_off line + n_next_ln);
          if !link_pg = page then !link_ln else 0);
      sibling = (fun _ -> !link_pg);
      node =
        {
          Scan.count =
            (fun r line -> Mem.read_u16 t.sim r (node_off line + n_count));
          slot =
            (fun r line ~n key ->
              Array_search.lower_bound t.sim r ~off:(key_off line 0) ~n ~key);
          keys = (fun line -> key_off line 0);
          values = (fun line -> tid_off c line 0);
        };
      (* all node slots of a leaf page at once *)
      prefetch_page =
        (fun r ->
          let bump = Mem.read_u16 t.sim r h_bump in
          Mem.prefetch t.sim r ~off:line_bytes ~len:(bump * c.w * line_bytes));
      bump_nodes = true;
    }
    f

(* --- Introspection (uncharged; tests only) -------------------------------------- *)

let height t = t.levels
let page_count t = t.n_pages + Jump_array.page_count t.jp
let index_page_count t = t.n_pages
let cfg t = t.cfg

(* Durable handle metadata.  Shape:
   [root.pg; root.ln; levels; n_pages; overflow_page; jp head; jp chunks;
    |level_pool|; (depth, page)...], level-pool entries sorted by depth. *)
let meta t =
  let jp_head, jp_chunks = Jump_array.meta t.jp in
  let pools =
    Hashtbl.fold (fun d p acc -> (d, p) :: acc) t.level_pool []
    |> List.sort compare
  in
  [
    t.root.pg; t.root.ln; t.levels; t.n_pages; t.overflow_page; jp_head;
    jp_chunks; List.length pools;
  ]
  @ List.concat_map (fun (d, p) -> [ d; p ]) pools

let restore_meta t = function
  | pg :: ln :: levels :: n_pages :: overflow_page :: jp_head :: jp_chunks
    :: n_pools :: rest ->
      let rec pools n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | d :: p :: rest -> pools (n - 1) ((d, p) :: acc) rest
        | _ -> invalid_arg (name ^ ".restore_meta: bad shape")
      in
      let pools, rest = pools n_pools [] rest in
      if rest <> [] then invalid_arg (name ^ ".restore_meta: bad shape");
      t.root <- { pg; ln };
      t.levels <- levels;
      t.n_pages <- n_pages;
      t.overflow_page <- overflow_page;
      Jump_array.restore_meta t.jp ~head:jp_head ~n_chunks:jp_chunks;
      Hashtbl.reset t.level_pool;
      List.iter (fun (d, p) -> Hashtbl.replace t.level_pool d p) pools
  | _ -> invalid_arg (name ^ ".restore_meta: bad shape")

let iter t f =
  let c = t.cfg in
  let rec leftmost p depth =
    if depth = t.levels then p
    else begin
      let r = Page_chain.peek t.pool p.pg in
      leftmost
        { pg = Mem.peek_i32 r (cpg_off c p.ln 0);
          ln = Mem.peek_u16 r (cln_off c p.ln 0) }
        (depth + 1)
    end
  in
  let rec walk p =
    if p.pg <> nil then begin
      let r = Page_chain.peek t.pool p.pg in
      let n = Mem.peek_u16 r (node_off p.ln + n_count) in
      for i = 0 to n - 1 do
        f (Mem.peek_i32 r (key_off p.ln i)) (Mem.peek_i32 r (tid_off c p.ln i))
      done;
      walk
        { pg = Mem.peek_i32 r (node_off p.ln + n_next_pg);
          ln = Mem.peek_u16 r (node_off p.ln + n_next_ln) }
    end
  in
  walk (leftmost t.root 1)

let fail fmt = Fmt.kstr failwith fmt

let check t =
  let c = t.cfg in
  let leaf_pages_seen = ref [] in
  (* recursive structural check with key bounds *)
  let rec check_node p ~lo ~hi ~depth =
    let r = Page_chain.peek t.pool p.pg in
    let kind = Mem.peek_u8 r h_kind in
    let is_leaf = depth = t.levels in
    if is_leaf && kind <> 0 then fail "leaf node %d/%d not in a leaf page" p.pg p.ln;
    if (not is_leaf) && kind = 0 then fail "nonleaf node %d/%d in a leaf page" p.pg p.ln;
    let n = Mem.peek_u16 r (node_off p.ln + n_count) in
    let cap = if is_leaf then c.fl else c.fn in
    if n > cap then fail "node %d/%d overfull" p.pg p.ln;
    if n = 0 && p <> t.root then fail "node %d/%d empty" p.pg p.ln;
    for i = 0 to n - 1 do
      let k = Mem.peek_i32 r (key_off p.ln i) in
      if i > 0 && Mem.peek_i32 r (key_off p.ln (i - 1)) >= k then
        fail "node %d/%d keys out of order" p.pg p.ln;
      (match lo with
      | Some b when k < b && (not (i = 0 && not is_leaf)) ->
          fail "node %d/%d key below bound" p.pg p.ln
      | _ -> ());
      match hi with
      | Some b when k >= b -> fail "node %d/%d key above bound" p.pg p.ln
      | _ -> ()
    done;
    if is_leaf then begin
      (* each leaf page holds a contiguous chain segment, so in-order
         traversal changes page exactly at segment boundaries *)
      match !leaf_pages_seen with
      | last :: _ when last = p.pg -> ()
      | rest ->
          if List.mem p.pg rest then fail "leaf page %d split across segments" p.pg;
          leaf_pages_seen := p.pg :: rest
    end
    else
      for i = 0 to n - 1 do
        let child =
          { pg = Mem.peek_i32 r (cpg_off c p.ln i);
            ln = Mem.peek_u16 r (cln_off c p.ln i) }
        in
        let clo = if i = 0 then lo else Some (Mem.peek_i32 r (key_off p.ln i)) in
        let chi =
          if i = n - 1 then hi else Some (Mem.peek_i32 r (key_off p.ln (i + 1)))
        in
        check_node child ~lo:clo ~hi:chi ~depth:(depth + 1)
      done
  in
  check_node t.root ~lo:None ~hi:None ~depth:1;
  (* the jump-pointer array must list exactly the leaf pages, in order *)
  let jp_pages = Jump_array.peek_all t.jp in
  let expected = List.rev !leaf_pages_seen in
  if jp_pages <> expected then
    fail "jump-pointer array (%d pages) disagrees with leaf pages (%d)"
      (List.length jp_pages) (List.length expected);
  (* every leaf page's recorded chunk actually contains it *)
  let chunks =
    List.fold_left
      (fun chunks pg ->
        let r = Page_chain.peek t.pool pg in
        let chunk = Mem.peek_i32 r h_jp_chunk in
        if chunk = nil then fail "leaf page %d has no jump-pointer chunk" pg;
        let cr = Page_chain.peek t.pool chunk in
        let n = Mem.peek_u16 cr 8 in
        let found = ref false in
        for i = 0 to n - 1 do
          if Mem.peek_i32 cr (12 + (4 * i)) = pg then found := true
        done;
        if not !found then fail "leaf page %d not in its chunk %d" pg chunk;
        match chunks with
        | last :: _ when last = chunk -> chunks
        | _ -> chunk :: chunks)
      [] expected
  in
  (* the leaf page chain and the chunk list, both ways, match the order
     the leaves give *)
  Page_chain.check links t.pool expected;
  Page_chain.check Jump_array.links t.pool (List.rev chunks)
