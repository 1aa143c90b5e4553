(* Baseline disk-optimized B+-Tree for variable-length keys: each page is
   one big slotted node, searched by binary search over the slot array
   (each probe chases a slot indirection into the heap — even less spatial
   locality than the fixed-key sorted array).

   Page layout: 0 u8 is_leaf | 2 u16 (unused) | 4 i32 prev page | 8 i32
   next page | 12 i32 leftmost child (nonleaf) | 16.. slotted node.

   Nonleaf convention: classic n keys / n+1 children; child 0 in the page
   header, entry i's pointer is child i+1; split promotes the middle
   key. *)

open Fpb_simmem
open Fpb_storage
open Fpb_btree_common

type t = {
  pool : Buffer_pool.t;
  sim : Sim.t;
  page_size : int;
  mutable root : int;
  held : Buffer_pool.held;  (* its nonleaf pages' frames *)
  mutable levels : int;
  mutable n_pages : int;
}

let name = "varkey disk-optimized B+tree"
let nil = Page_store.nil
let h_is_leaf = 0
let h_prev = 4
let h_next = 8
let h_leftmost = 12
let node_base = 16
let links = { Page_chain.prev = h_prev; next = h_next }

let node t r = { Slotted.r; off = node_base; size = t.page_size - node_base }

let new_page t ~leaf =
  let page, r = Buffer_pool.create_page t.pool in
  t.n_pages <- t.n_pages + 1;
  Mem.write_u8 t.sim r h_is_leaf (if leaf then 1 else 0);
  Mem.write_i32 t.sim r h_prev nil;
  Mem.write_i32 t.sim r h_next nil;
  Mem.write_i32 t.sim r h_leftmost nil;
  Slotted.init t.sim (node t r) ~leaf;
  (page, r)

let create pool =
  let sim = Buffer_pool.sim pool in
  let page_size = Page_store.page_size (Buffer_pool.store pool) in
  let t =
    {
      pool;
      sim;
      page_size;
      root = nil;
      held = Buffer_pool.held ();
      levels = 1;
      n_pages = 0;
    }
  in
  let root, _ = new_page t ~leaf:true in
  Buffer_pool.unpin pool root;
  t.root <- root;
  t

(* Route within a nonleaf page. *)
let child_for t r key =
  let nd = node t r in
  let i = Slotted.find t.sim nd ~key `Upper in
  if i = 0 then Mem.read_i32 t.sim r h_leftmost
  else Slotted.ptr_at t.sim nd (i - 1)

let rec descend t key page depth ~visit =
  let r =
    Buffer_pool.pin t.pool t.held page ~leaf:(depth = t.levels) ~off:0 ~len:0
  in
  Sim.busy_node t.sim;
  if Mem.read_u8 t.sim r h_is_leaf = 1 then (page, r)
  else begin
    let child = child_for t r key in
    visit page;
    Buffer_pool.unpin t.pool page;
    descend t key child (depth + 1) ~visit
  end

let search t key =
  Sim.busy_op t.sim;
  let page, r = descend t key t.root 1 ~visit:(fun _ -> ()) in
  let nd = node t r in
  let i = Slotted.find t.sim nd ~key `Lower in
  let result =
    if i < Slotted.count t.sim nd && Slotted.key_at t.sim nd i = key then
      Some (Slotted.ptr_at t.sim nd i)
    else None
  in
  Buffer_pool.unpin t.pool page;
  result

(* Split page [pg]; returns (separator, right page).  For a leaf the
   separator is copied up (the right page keeps it); for a nonleaf it is
   promoted (the right page's leftmost child is its old pointer). *)
let split_page t pg r =
  let nd = node t r in
  let leaf = Mem.read_u8 t.sim r h_is_leaf = 1 in
  let items = Array.of_list (Slotted.entries t.sim nd) in
  let n = Array.length items in
  let mid = n / 2 in
  let right, rr = new_page t ~leaf in
  let rnd = node t rr in
  let sep, left_items, right_items =
    if leaf then
      (fst items.(mid), Array.sub items 0 mid, Array.sub items mid (n - mid))
    else begin
      let sep, promoted_child = items.(mid) in
      Mem.write_i32 t.sim rr h_leftmost promoted_child;
      (sep, Array.sub items 0 mid, Array.sub items (mid + 1) (n - mid - 1))
    end
  in
  Slotted.rebuild t.sim nd (Array.to_list left_items);
  Slotted.rebuild t.sim rnd (Array.to_list right_items);
  Page_chain.splice links t.pool ~page:pg r ~right rr;
  Buffer_pool.mark_dirty t.pool pg;
  Buffer_pool.mark_dirty t.pool right;
  (sep, right, rr)

(* Add [(sep, child)] to nonleaf page [parent]; its split, if it split. *)
let insert_into_parent t parent sep child =
  let r = Buffer_pool.get t.pool parent in
  let nd = node t r in
  let i = Slotted.find t.sim nd ~key:sep `Upper in
  Buffer_pool.mark_dirty t.pool parent;
  if Slotted.insert_at t.sim nd ~i sep child then begin
    Buffer_pool.unpin t.pool parent;
    None
  end
  else begin
    let psep, right, rr = split_page t parent r in
    let target_r = if sep < psep then r else rr in
    let tnd = node t target_r in
    let ti = Slotted.find t.sim tnd ~key:sep `Upper in
    if not (Slotted.insert_at t.sim tnd ~i:ti sep child) then
      failwith "Vk_btree: separator does not fit after split";
    Buffer_pool.unpin t.pool parent;
    Buffer_pool.unpin t.pool right;
    Some (psep, right)
  end

(* A new root over the old one and its new right sibling [child]. *)
let grow_root t sep child =
  let old_root = t.root in
  let root, r = new_page t ~leaf:false in
  Mem.write_i32 t.sim r h_leftmost old_root;
  ignore (Slotted.insert_at t.sim (node t r) ~i:0 sep child);
  Buffer_pool.unpin t.pool root;
  t.root <- root;
  t.levels <- t.levels + 1

let insert t key tid =
  if String.length key = 0 || String.length key > Slotted.max_key_len then
    invalid_arg "Vk_btree.insert: bad key";
  Sim.busy_op t.sim;
  let path = ref [] in
  let page, r = descend t key t.root 1 ~visit:(fun p -> path := p :: !path) in
  let nd = node t r in
  let i = Slotted.find t.sim nd ~key `Lower in
  Buffer_pool.mark_dirty t.pool page;
  if i < Slotted.count t.sim nd && Slotted.key_at t.sim nd i = key then begin
    Slotted.set_ptr_at t.sim nd i tid;
    Buffer_pool.unpin t.pool page;
    `Updated
  end
  else if Slotted.insert_at t.sim nd ~i key tid then begin
    Buffer_pool.unpin t.pool page;
    `Inserted
  end
  else begin
    let sep, right, rr = split_page t page r in
    let target = if key < sep then nd else node t rr in
    let ti = Slotted.find t.sim target ~key `Lower in
    if not (Slotted.insert_at t.sim target ~i:ti key tid) then
      failwith "Vk_btree: entry does not fit after split";
    Buffer_pool.unpin t.pool page;
    Buffer_pool.unpin t.pool right;
    Page_chain.propagate ~insert:(insert_into_parent t) ~grow:(grow_root t) !path
      sep right;
    `Inserted
  end

(* Sorted unique keys. *)
let bulkload t pairs =
  if t.n_pages > 1 then invalid_arg "Vk_btree.bulkload: not empty";
  Array.iter (fun (k, v) -> ignore (insert t k v)) pairs

let height t = t.levels
let page_count t = t.n_pages

let iter t f =
  Page_chain.iter_leaves links t.pool ~root:t.root
    ~down:(fun ~depth:_ page ->
      let r = Page_chain.peek t.pool page in
      if Mem.peek_u8 r h_is_leaf = 1 then nil else Mem.peek_i32 r h_leftmost)
    (fun r ->
      let nd = node t r in
      for i = 0 to Slotted.peek nd Slotted.o_n - 1 do
        f (Slotted.peek_key nd i) (Slotted.peek_ptr nd i)
      done)

let fail fmt = Fmt.kstr failwith fmt

let check t =
  let leaves_seen = ref [] in
  let rec check_page page ~lo ~hi ~depth =
    let r = Page_chain.peek t.pool page in
    let leaf = Mem.peek_u8 r h_is_leaf = 1 in
    if leaf <> (depth = t.levels) then fail "vk page %d: leaf at wrong depth" page;
    let nd = node t r in
    let n = Slotted.peek nd Slotted.o_n in
    for i = 0 to n - 1 do
      let k = Slotted.peek_key nd i in
      if i > 0 && Slotted.peek_key nd (i - 1) >= k then
        fail "vk page %d: keys out of order" page;
      (match lo with
      | Some b when (if leaf then k < b else k <= b) ->
          fail "vk page %d: key below bound" page
      | _ -> ());
      match hi with
      | Some b when k >= b -> fail "vk page %d: key above bound" page
      | _ -> ()
    done;
    if leaf then leaves_seen := page :: !leaves_seen
    else begin
      check_page (Mem.peek_i32 r h_leftmost) ~lo
        ~hi:(if n > 0 then Some (Slotted.peek_key nd 0) else hi)
        ~depth:(depth + 1);
      for i = 0 to n - 1 do
        let k = Slotted.peek_key nd i in
        let chi = if i = n - 1 then hi else Some (Slotted.peek_key nd (i + 1)) in
        check_page (Slotted.peek_ptr nd i) ~lo:(Some k) ~hi:chi ~depth:(depth + 1)
      done
    end
  in
  check_page t.root ~lo:None ~hi:None ~depth:1;
  Page_chain.check links t.pool (List.rev !leaves_seen)
