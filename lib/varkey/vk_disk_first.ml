(* Disk-first fpB+-Tree for variable-length keys (the extension the paper
   defers to its full version).  Pages are organised as in-page trees of
   slotted nodes: nonleaf in-page nodes are [w] lines, leaf in-page nodes
   [x] lines, every node prefetched in full before it is searched — the
   fixed-key design of {!Fpb_core.Disk_first} carried over to slotted
   nodes.

   Conventions (classic n keys / n+1 children, with promotion, at both
   granularities — variable-length keys make the fixed-key code's
   "untrusted minimum" trick awkward, and the classic convention needs no
   synthetic keys):
   - in-page nonleaf nodes keep their extra child in the slotted node's
     [leftmost] field (a line number); splits promote the middle key;
   - nonleaf *pages* keep their extra child page in the page header;
     page splits promote the middle entry;
   - in-page leaf nodes copy up (leaf pages: real keys; nonleaf pages:
     page separators).

   Page header:
     0  u8  kind (0 leaf page, 1 nonleaf)    1 u8 in-page levels
     2  u16 root node line
     4  i32 prev page    8 i32 next page
     14 u16 next free line (bump watermark)
     16 u16 first in-page leaf line          20 u16 last in-page leaf line
     18 u16 in-page leaf count
     24 i32 leftmost child page (nonleaf pages)

   Insertion: split the in-page leaf node if lines allow; otherwise
   reorganise the page (rebuild, spreading bytes evenly); otherwise split
   the page. *)

open Fpb_simmem
open Fpb_storage
open Fpb_btree_common

type cfg = {
  page_size : int;
  page_lines : int;
  w : int;  (* nonleaf in-page node lines *)
  x : int;  (* leaf in-page node lines *)
  avg_key_len : int;
}

type t = {
  pool : Buffer_pool.t;
  sim : Sim.t;
  cfg : cfg;
  mutable root : int;
  held : Buffer_pool.held;  (* its nonleaf pages' frames *)
  mutable levels : int;  (* page levels *)
  mutable n_pages : int;
}

let name = "varkey disk-first fpB+tree"
let nil = Page_store.nil
let line_bytes = 64

let h_kind = 0
let h_ip_levels = 1
let h_root = 2
let h_prev = 4
let h_next = 8
let h_free = 14
let h_first_leaf = 16
let h_n_leaves = 18
let h_last_leaf = 20
let h_leftmost_page = 24
let links = { Page_chain.prev = h_prev; next = h_next }

(* Node-size selection: the fixed-key tuner's figure of merit with
   byte-based capacities for the expected key length. *)
let make_cfg ?(avg_key_len = 20) page_size =
  let t1 = 150 and tn = 10 in
  let cap lines = ((lines * line_bytes) - Slotted.header) / (avg_key_len + 7) in
  let metric lines =
    let c = cap lines in
    if c < 2 then infinity
    else float_of_int (t1 + ((lines - 1) * tn)) /. log (float_of_int c)
  in
  let best lo hi =
    let b = ref lo in
    for l = lo to hi do
      if metric l < metric !b then b := l
    done;
    !b
  in
  let w = best 1 16 in
  (* leaves may be a bit wider: they hold the payload entries *)
  let x = best w (min 24 ((page_size / line_bytes) - 2)) in
  { page_size; page_lines = page_size / line_bytes; w; x; avg_key_len }

let node_of _t r line ~lines =
  { Slotted.r; off = line * line_bytes; size = lines * line_bytes }

let leaf_node t r line = node_of t r line ~lines:t.cfg.x
let nonleaf_node t r line = node_of t r line ~lines:t.cfg.w

let prefetch_node t r (nd : Slotted.node) =
  Mem.prefetch t.sim r ~off:nd.Slotted.off ~len:nd.size;
  Sim.busy_node t.sim

let alloc_lines t r lines =
  let free = Mem.read_u16 t.sim r h_free in
  if free + lines > t.cfg.page_lines then None
  else begin
    Mem.write_u16 t.sim r h_free (free + lines);
    Some free
  end

(* --- In-page construction --------------------------------------------------- *)

(* Plan: distribute entries over leaves by byte budget, then count the
   nonleaf lines needed.  Returns the leaf groups or None if it cannot
   fit. *)
let plan_in_page t entries ~leaf_fill =
  let c = t.cfg in
  let leaf_cap = (c.x * line_bytes) - Slotted.header in
  let budget = max 16 (int_of_float (float_of_int leaf_cap *. leaf_fill)) in
  let groups = ref [] and cur = ref [] and cur_bytes = ref 0 in
  Array.iter
    (fun (k, p) ->
      let sz = Slotted.entry_bytes k + 2 in
      if !cur <> [] && !cur_bytes + sz > budget then begin
        groups := List.rev !cur :: !groups;
        cur := [];
        cur_bytes := 0
      end;
      cur := (k, p) :: !cur;
      cur_bytes := !cur_bytes + sz)
    entries;
  if !cur <> [] then groups := List.rev !cur :: !groups;
  let groups = Array.of_list (List.rev !groups) in
  let n_leaves = max 1 (Array.length groups) in
  (* nonleaf levels: fan-out limited by bytes of separator entries *)
  let nl_cap = (c.w * line_bytes) - Slotted.header in
  let per_nl = max 2 (nl_cap / (c.avg_key_len + 7)) in
  let rec nonleaves cnt acc =
    if cnt <= 1 then acc
    else
      let p = (cnt + per_nl - 1) / per_nl in
      nonleaves p (acc + p)
  in
  let lines = 1 + (n_leaves * c.x) + (nonleaves n_leaves 0 * c.w) in
  if lines <= c.page_lines then Some groups else None

(* Rebuild the in-page tree from leaf groups.  Caller guarantees fit. *)
let build_in_page t r groups ~kind =
  let c = t.cfg in
  Mem.write_u8 t.sim r h_kind kind;
  Mem.write_u16 t.sim r h_free 1;
  let n_groups = max 1 (Array.length groups) in
  let leaves = Array.make n_groups ("", 0) in
  let prev = ref 0 in
  for g = 0 to n_groups - 1 do
    let items = if g < Array.length groups then groups.(g) else [] in
    let line = Option.get (alloc_lines t r c.x) in
    let nd = leaf_node t r line in
    Slotted.init t.sim nd ~leaf:true;
    Slotted.rebuild t.sim nd items;
    Slotted.setv t.sim nd Slotted.o_prev !prev;
    if !prev <> 0 then
      Slotted.setv t.sim (leaf_node t r !prev) Slotted.o_next line;
    let min_key = match items with (k, _) :: _ -> k | [] -> "" in
    leaves.(g) <- (min_key, line);
    prev := line
  done;
  Mem.write_u16 t.sim r h_first_leaf (snd leaves.(0));
  Mem.write_u16 t.sim r h_last_leaf (snd leaves.(n_groups - 1));
  Mem.write_u16 t.sim r h_n_leaves n_groups;
  (* nonleaf levels, packed by bytes *)
  let level = ref leaves in
  let ip_levels = ref 1 in
  while Array.length !level > 1 do
    let out = ref [] in
    let i = ref 0 in
    let n = Array.length !level in
    while !i < n do
      let line = Option.get (alloc_lines t r c.w) in
      let nd = nonleaf_node t r line in
      Slotted.init t.sim nd ~leaf:false;
      (* first child becomes the leftmost *)
      Slotted.setv t.sim nd Slotted.o_leftmost (snd !level.(!i));
      let min_key = fst !level.(!i) in
      incr i;
      let slot = ref 0 in
      let full = ref false in
      while (not !full) && !i < n do
        let k, child = !level.(!i) in
        if Slotted.insert_at t.sim nd ~i:!slot k child then begin
          incr slot;
          incr i
        end
        else full := true
      done;
      out := (min_key, line) :: !out
    done;
    level := Array.of_list (List.rev !out);
    incr ip_levels
  done;
  Mem.write_u16 t.sim r h_root (snd !level.(0));
  Mem.write_u8 t.sim r h_ip_levels !ip_levels

let new_page t ~kind =
  let page, r = Buffer_pool.create_page t.pool in
  t.n_pages <- t.n_pages + 1;
  Mem.write_i32 t.sim r h_prev nil;
  Mem.write_i32 t.sim r h_next nil;
  Mem.write_i32 t.sim r h_leftmost_page nil;
  Mem.write_u16 t.sim r h_free 1;
  build_in_page t r [||] ~kind;
  (page, r)

let create ?avg_key_len pool =
  let sim = Buffer_pool.sim pool in
  let page_size = Page_store.page_size (Buffer_pool.store pool) in
  let t =
    {
      pool;
      sim;
      cfg = make_cfg ?avg_key_len page_size;
      root = nil;
      held = Buffer_pool.held ();
      levels = 1;
      n_pages = 0;
    }
  in
  let root, _ = new_page t ~kind:0 in
  Buffer_pool.unpin pool root;
  t.root <- root;
  t

(* --- In-page search ---------------------------------------------------------- *)

(* Descend to the in-page leaf node for [key]; [visit] sees each nonleaf
   line. *)
let ip_find_leaf t r key ~visit =
  let levels = Mem.read_u8 t.sim r h_ip_levels in
  let line = ref (Mem.read_u16 t.sim r h_root) in
  for _ = 1 to levels - 1 do
    let nd = nonleaf_node t r !line in
    prefetch_node t r nd;
    let i = Slotted.find t.sim nd ~key `Upper in
    visit !line;
    line :=
      (if i = 0 then Slotted.v t.sim nd Slotted.o_leftmost
       else Slotted.ptr_at t.sim nd (i - 1))
  done;
  let nd = leaf_node t r !line in
  prefetch_node t r nd;
  !line

(* Page-level routing: the child page for [key] within nonleaf page [r]. *)
let page_route t r key =
  let line = ip_find_leaf t r key ~visit:(fun _ -> ()) in
  let nd = leaf_node t r line in
  let i = Slotted.find t.sim nd ~key `Upper in
  if i = 0 then begin
    (* before this node's first separator: previous in-page leaf's last
       entry, or the page's leftmost child *)
    let prev = Slotted.v t.sim nd Slotted.o_prev in
    if prev <> 0 then begin
      let pnd = leaf_node t r prev in
      let pn = Slotted.count t.sim pnd in
      Slotted.ptr_at t.sim pnd (pn - 1)
    end
    else Mem.read_i32 t.sim r h_leftmost_page
  end
  else Slotted.ptr_at t.sim nd (i - 1)

let rec descend t key page depth ~visit =
  let r =
    Buffer_pool.pin t.pool t.held page ~leaf:(depth = t.levels) ~off:0 ~len:0
  in
  Sim.busy_node t.sim;
  if depth = t.levels then (page, r)
  else begin
    let child = page_route t r key in
    visit page;
    Buffer_pool.unpin t.pool page;
    descend t key child (depth + 1) ~visit
  end

let search t key =
  Sim.busy_op t.sim;
  let page, r = descend t key t.root 1 ~visit:(fun _ -> ()) in
  let line = ip_find_leaf t r key ~visit:(fun _ -> ()) in
  let nd = leaf_node t r line in
  let i = Slotted.find t.sim nd ~key `Lower in
  let result =
    if i < Slotted.count t.sim nd && Slotted.key_at t.sim nd i = key then
      Some (Slotted.ptr_at t.sim nd i)
    else None
  in
  Buffer_pool.unpin t.pool page;
  result

(* --- Entry collection --------------------------------------------------------- *)

let collect_entries t r =
  let out = ref [] in
  let line = ref (Mem.read_u16 t.sim r h_first_leaf) in
  while !line <> 0 do
    let nd = leaf_node t r !line in
    prefetch_node t r nd;
    out := List.rev_append (Slotted.entries t.sim nd) !out;
    line := Slotted.v t.sim nd Slotted.o_next
  done;
  Array.of_list (List.rev !out)

(* --- In-page insertion ---------------------------------------------------------
   [`Done] / [`Updated] / [`Page_full]. *)

(* Insert (key, child_line) into the in-page nonleaf parents; splits
   promote the middle key.  Returns false if a needed line allocation
   fails (caller falls back to reorganise/page split). *)
let rec ip_insert_parent t r path key child_line =
  match path with
  | [] -> (
      match alloc_lines t r t.cfg.w with
      | None -> false
      | Some line ->
          let nd = nonleaf_node t r line in
          Slotted.init t.sim nd ~leaf:false;
          Slotted.setv t.sim nd Slotted.o_leftmost (Mem.read_u16 t.sim r h_root);
          ignore (Slotted.insert_at t.sim nd ~i:0 key child_line);
          Mem.write_u16 t.sim r h_root line;
          Mem.write_u8 t.sim r h_ip_levels (Mem.read_u8 t.sim r h_ip_levels + 1);
          true)
  | parent :: rest ->
      let nd = nonleaf_node t r parent in
      let i = Slotted.find t.sim nd ~key `Upper in
      if Slotted.insert_at t.sim nd ~i key child_line then true
      else begin
        (* split the nonleaf node: promote the middle key *)
        match alloc_lines t r t.cfg.w with
        | None -> false
        | Some right ->
            let rnd = nonleaf_node t r right in
            Slotted.init t.sim rnd ~leaf:false;
            let items = Array.of_list (Slotted.entries t.sim nd) in
            let n = Array.length items in
            let mid = n / 2 in
            let sep, promoted_child = items.(mid) in
            Slotted.setv t.sim rnd Slotted.o_leftmost promoted_child;
            Slotted.rebuild t.sim rnd
              (Array.to_list (Array.sub items (mid + 1) (n - mid - 1)));
            Slotted.rebuild t.sim nd (Array.to_list (Array.sub items 0 mid));
            (* place the pending entry *)
            let target = if key < sep then nd else rnd in
            let ti = Slotted.find t.sim target ~key `Upper in
            if not (Slotted.insert_at t.sim target ~i:ti key child_line) then
              failwith "vk ip: entry does not fit after nonleaf split";
            ip_insert_parent t r rest sep right
      end

let ip_insert t r key ptr =
  let path = ref [] in
  let line = ip_find_leaf t r key ~visit:(fun l -> path := l :: !path) in
  let nd = leaf_node t r line in
  let i = Slotted.find t.sim nd ~key `Lower in
  if i < Slotted.count t.sim nd && Slotted.key_at t.sim nd i = key then begin
    Slotted.set_ptr_at t.sim nd i ptr;
    `Updated
  end
  else if Slotted.insert_at t.sim nd ~i key ptr then `Done
  else begin
    (* split the in-page leaf node (copy-up) *)
    match alloc_lines t r t.cfg.x with
    | None -> `Page_full
    | Some right ->
        let rnd = leaf_node t r right in
        Slotted.init t.sim rnd ~leaf:true;
        let items = Array.of_list (Slotted.entries t.sim nd) in
        let n = Array.length items in
        let mid = n / 2 in
        let sep = fst items.(mid) in
        Slotted.rebuild t.sim rnd (Array.to_list (Array.sub items mid (n - mid)));
        Slotted.rebuild t.sim nd (Array.to_list (Array.sub items 0 mid));
        (* leaf chain *)
        let old_next = Slotted.v t.sim nd Slotted.o_next in
        Slotted.setv t.sim rnd Slotted.o_next old_next;
        Slotted.setv t.sim rnd Slotted.o_prev line;
        Slotted.setv t.sim nd Slotted.o_next right;
        if old_next <> 0 then
          Slotted.setv t.sim (leaf_node t r old_next) Slotted.o_prev right
        else Mem.write_u16 t.sim r h_last_leaf right;
        Mem.write_u16 t.sim r h_n_leaves (Mem.read_u16 t.sim r h_n_leaves + 1);
        (* pending entry *)
        let target = if key < sep then nd else rnd in
        let ti = Slotted.find t.sim target ~key `Lower in
        if not (Slotted.insert_at t.sim target ~i:ti key ptr) then `Page_full
        else if ip_insert_parent t r !path sep right then `Done
        else `Page_full
  end

(* --- Page-level insertion ------------------------------------------------------- *)

(* Insert (key, ptr) into [page]; [`Done] / [`Updated] /
   [`Split (sep, right)] (page split, sep promoted for nonleaf pages,
   copied up for leaf pages). *)
let insert_into_page t page key ptr =
  let r = Buffer_pool.get t.pool page in
  Buffer_pool.mark_dirty t.pool page;
  let finish o =
    Buffer_pool.unpin t.pool page;
    o
  in
  match ip_insert t r key ptr with
  | (`Done | `Updated) as o -> finish o
  | `Page_full -> (
      let kind = Mem.read_u8 t.sim r h_kind in
      let entries = collect_entries t r in
      (* re-insert the pending entry into the collected set.  It may be
         there already: an in-page leaf split places it before the
         parent's line allocation can fail. *)
      let all =
        let l = Array.to_list entries in
        let rec ins = function
          | (k, _) :: rest when key = k -> (key, ptr) :: rest
          | (k, _) :: _ as rest when key < k -> (key, ptr) :: rest
          | kv :: rest -> kv :: ins rest
          | [] -> [ (key, ptr) ]
        in
        Array.of_list (ins l)
      in
      match plan_in_page t all ~leaf_fill:0.7 with
      | Some groups ->
          (* reorganise in place *)
          let leftmost = Mem.read_i32 t.sim r h_leftmost_page in
          build_in_page t r groups ~kind;
          Mem.write_i32 t.sim r h_leftmost_page leftmost;
          finish `Done
      | None ->
          (* page split *)
          let n = Array.length all in
          let mid = n / 2 in
          let right_page, rr = new_page t ~kind in
          let sep, left_items, right_items, right_leftmost =
            if kind = 0 then
              (fst all.(mid), Array.sub all 0 mid, Array.sub all mid (n - mid), nil)
            else begin
              let sep, promoted = all.(mid) in
              (sep, Array.sub all 0 mid, Array.sub all (mid + 1) (n - mid - 1), promoted)
            end
          in
          let rebuild items =
            match plan_in_page t items ~leaf_fill:0.7 with
            | Some groups -> groups
            | None -> (
                match plan_in_page t items ~leaf_fill:1.0 with
                | Some groups -> groups
                | None -> failwith "vk page split: half does not fit")
          in
          let leftmost = Mem.read_i32 t.sim r h_leftmost_page in
          build_in_page t r (rebuild left_items) ~kind;
          Mem.write_i32 t.sim r h_leftmost_page leftmost;
          build_in_page t rr (rebuild right_items) ~kind;
          Mem.write_i32 t.sim rr h_leftmost_page right_leftmost;
          Page_chain.splice links t.pool ~page r ~right:right_page rr;
          Buffer_pool.mark_dirty t.pool right_page;
          Buffer_pool.unpin t.pool right_page;
          finish (`Split (sep, right_page)))

(* A new root page over the old root and its new right sibling. *)
let grow_root t sep child_page =
  let old_root = t.root in
  let root, r = new_page t ~kind:1 in
  Mem.write_i32 t.sim r h_leftmost_page old_root;
  (match ip_insert t r sep child_page with
  | `Done -> ()
  | _ -> failwith "vk: new root insert failed");
  Buffer_pool.unpin t.pool root;
  t.root <- root;
  t.levels <- t.levels + 1

let insert t key tid =
  if String.length key = 0 || String.length key > 48 then
    invalid_arg "Vk_disk_first.insert: key must be 1..48 bytes";
  Sim.busy_op t.sim;
  let path = ref [] in
  let page, r = descend t key t.root 1 ~visit:(fun p -> path := p :: !path) in
  Buffer_pool.unpin t.pool page;
  ignore r;
  match insert_into_page t page key tid with
  | `Done -> `Inserted
  | `Updated -> `Updated
  | `Split (sep, right) ->
      Page_chain.propagate ~grow:(grow_root t) !path sep right
        ~insert:(fun parent sep child ->
          match insert_into_page t parent sep child with
          | `Done | `Updated -> None
          | `Split split -> Some split);
      `Inserted

(* Sorted unique keys; simple repeated-insert build. *)
let bulkload t pairs =
  Array.iter (fun (k, v) -> ignore (insert t k v)) pairs

let height t = t.levels
let page_count t = t.n_pages
let cfg t = t.cfg

(* --- Uncharged checks ----------------------------------------------------------- *)

let fail fmt = Fmt.kstr failwith fmt

let peek_page_entries t r f =
  let line = ref (Mem.peek_u16 r h_first_leaf) in
  while !line <> 0 do
    let nd = leaf_node t r !line in
    let n = Slotted.peek nd Slotted.o_n in
    for i = 0 to n - 1 do
      f (Slotted.peek_key nd i) (Slotted.peek_ptr nd i)
    done;
    line := Slotted.peek nd Slotted.o_next
  done

let iter t f =
  Page_chain.iter_leaves links t.pool ~root:t.root
    ~down:(fun ~depth page ->
      if depth = t.levels then nil
      else Mem.peek_i32 (Page_chain.peek t.pool page) h_leftmost_page)
    (fun r -> peek_page_entries t r f)

let check_in_page t r page =
  let levels = Mem.peek_u8 r h_ip_levels in
  let free = Mem.peek_u16 r h_free in
  if free > t.cfg.page_lines then fail "vk page %d: watermark overflow" page;
  let leaf_lines = ref [] in
  let rec walk line depth ~lo ~hi =
    if line = 0 || line >= free then fail "vk page %d: bad line %d" page line;
    if depth = levels then leaf_lines := line :: !leaf_lines
    else begin
      let nd = nonleaf_node t r line in
      let n = Slotted.peek nd Slotted.o_n in
      if n = 0 then fail "vk page %d: empty nonleaf node" page;
      let bound i = Some (Slotted.peek_key nd i) in
      walk (Slotted.peek nd Slotted.o_leftmost) (depth + 1) ~lo ~hi:(bound 0);
      for i = 0 to n - 1 do
        let k = Slotted.peek_key nd i in
        if i > 0 && Slotted.peek_key nd (i - 1) >= k then
          fail "vk page %d: nonleaf keys out of order" page;
        (match lo with
        | Some b when k <= b -> fail "vk page %d: nonleaf key below bound" page
        | _ -> ());
        (match hi with
        | Some b when k > b -> fail "vk page %d: nonleaf key above bound" page
        | _ -> ());
        let chi = if i = n - 1 then hi else bound (i + 1) in
        walk (Slotted.peek_ptr nd i) (depth + 1) ~lo:(Some k) ~hi:chi
      done
    end
  in
  walk (Mem.peek_u16 r h_root) 1 ~lo:None ~hi:None;
  let leaf_lines = List.rev !leaf_lines in
  let rec chain line acc =
    if line = 0 then List.rev acc
    else chain (Slotted.peek (leaf_node t r line) Slotted.o_next) (line :: acc)
  in
  let chained = chain (Mem.peek_u16 r h_first_leaf) [] in
  if chained <> leaf_lines then fail "vk page %d: leaf chain disagrees" page;
  (match List.rev chained with
  | last :: _ when last <> Mem.peek_u16 r h_last_leaf ->
      fail "vk page %d: stale last leaf" page
  | _ -> ());
  let entries = ref [] in
  peek_page_entries t r (fun k v -> entries := (k, v) :: !entries);
  let entries = List.rev !entries in
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if a >= b then fail "vk page %d: entries out of order" page;
        sorted rest
    | _ -> ()
  in
  sorted entries;
  entries

let check t =
  let leaves_seen = ref [] in
  let rec check_page page ~lo ~hi ~depth =
    let r = Page_chain.peek t.pool page in
    let kind = Mem.peek_u8 r h_kind in
    if (kind = 0) <> (depth = t.levels) then fail "vk page %d: wrong kind" page;
    let entries = check_in_page t r page in
    List.iter
      (fun (k, _) ->
        (match lo with
        | Some b when (if kind = 0 then k < b else k <= b) ->
            fail "vk page %d: key below bound" page
        | _ -> ());
        match hi with
        | Some b when k >= b -> fail "vk page %d: key above bound" page
        | _ -> ())
      entries;
    if kind = 0 then leaves_seen := page :: !leaves_seen
    else begin
      let arr = Array.of_list entries in
      let n = Array.length arr in
      check_page (Mem.peek_i32 r h_leftmost_page) ~lo
        ~hi:(if n > 0 then Some (fst arr.(0)) else hi)
        ~depth:(depth + 1);
      Array.iteri
        (fun i (k, child) ->
          let chi = if i = n - 1 then hi else Some (fst arr.(i + 1)) in
          check_page child ~lo:(Some k) ~hi:chi ~depth:(depth + 1))
        arr
    end
  in
  check_page t.root ~lo:None ~hi:None ~depth:1;
  Page_chain.check links t.pool (List.rev !leaves_seen)
