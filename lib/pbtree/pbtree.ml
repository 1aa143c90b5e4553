(* Prefetching B+-Tree (pB+-Tree, Chen/Gibbons/Mowry SIGMOD 2001): the
   paper's cache-optimized comparator and the model for fpB+-Tree in-page
   trees.  A memory-resident B+-Tree whose nodes are several cache lines
   wide; every node is prefetched in full before it is searched, so a
   w-line node costs T1 + (w-1)*Tnext instead of one miss per probed line.

   Node layout (16-byte header, then a key array and a pointer array):
     0: u8 is_leaf   2: u16 n   4: i32 next   8: i32 prev
   Sibling links exist at every level; the leaf-parent level acts as the
   internal jump-pointer array for cache-granularity range-scan
   prefetching.  Pointers are simulated addresses from [Arena]; leaves
   store tuple IDs. *)

open Fpb_simmem
open Fpb_btree_common

let header = 16
let off_is_leaf = 0
let off_n = 2
let off_next = 4
let off_prev = 8
let nil = 0

type t = {
  sim : Sim.t;
  arena : Arena.t;
  node_bytes : int;
  capacity : int;  (* entries per node *)
  mutable root : int;  (* arena address *)
  mutable levels : int;
  mutable n_nodes : int;
}

let name = "pB+tree"

(* Leaf nodes a range scan keeps in flight ahead of itself. *)
let scan_prefetch_nodes = 8

let key_off i = header + (Key.size * i)
let ptr_off t i = header + (Key.size * t.capacity) + (4 * i)

let new_node t ~leaf =
  let addr = Arena.alloc t.arena t.node_bytes in
  t.n_nodes <- t.n_nodes + 1;
  let r, off = Arena.deref t.arena addr in
  Mem.write_u8 t.sim r (off + off_is_leaf) (if leaf then 1 else 0);
  Mem.write_u16 t.sim r (off + off_n) 0;
  Mem.write_i32 t.sim r (off + off_next) nil;
  Mem.write_i32 t.sim r (off + off_prev) nil;
  addr

(* Prefetch all lines of a node, then return its (region, offset). *)
let fetch_node t addr =
  let r, off = Arena.deref t.arena addr in
  Mem.prefetch t.sim r ~off ~len:t.node_bytes;
  Sim.busy_node t.sim;
  (r, off)

let create ?(node_lines = 8) sim =
  let node_bytes = 64 * node_lines in
  let capacity = (node_bytes - header) / (Key.size + 4) in
  if capacity < 2 then invalid_arg "Pbtree.create: node too small";
  let t =
    {
      sim;
      arena = Arena.create ();
      node_bytes;
      capacity;
      root = nil;
      levels = 1;
      n_nodes = 0;
    }
  in
  t.root <- new_node t ~leaf:true;
  t

(* --- Search -------------------------------------------------------------- *)

let route t r off ~n key =
  let i = Array_search.upper_bound t.sim r ~off:(off + key_off 0) ~n ~key in
  max 0 (i - 1)

let descend t key ~visit =
  let rec go addr =
    let r, off = fetch_node t addr in
    if Mem.read_u8 t.sim r (off + off_is_leaf) = 1 then (addr, r, off)
    else begin
      let n = Mem.read_u16 t.sim r (off + off_n) in
      let i = route t r off ~n key in
      let child = Mem.read_i32 t.sim r (off + ptr_off t i) in
      visit addr r off n i;
      go child
    end
  in
  go t.root

let search t key =
  Sim.busy_op t.sim;
  let _addr, r, off = descend t key ~visit:(fun _ _ _ _ _ -> ()) in
  let n = Mem.read_u16 t.sim r (off + off_n) in
  let i = Array_search.lower_bound t.sim r ~off:(off + key_off 0) ~n ~key in
  if i < n && Mem.read_i32 t.sim r (off + key_off i) = key then
    Some (Mem.read_i32 t.sim r (off + ptr_off t i))
  else None

(* --- Insertion ----------------------------------------------------------- *)

let insert_at t r off ~n ~i key ptr =
  let len = (n - i) * 4 in
  Mem.blit t.sim r (off + key_off i) r (off + key_off (i + 1)) len;
  Mem.blit t.sim r (off + ptr_off t i) r (off + ptr_off t (i + 1)) len;
  Mem.write_i32 t.sim r (off + key_off i) key;
  Mem.write_i32 t.sim r (off + ptr_off t i) ptr;
  Mem.write_u16 t.sim r (off + off_n) (n + 1)

let split_node t addr r off ~leaf =
  let n = t.capacity in
  let mid = n / 2 in
  let moved = n - mid in
  let right = new_node t ~leaf in
  let rr, roff = Arena.deref t.arena right in
  Mem.blit t.sim r (off + key_off mid) rr (roff + key_off 0) (moved * 4);
  Mem.blit t.sim r (off + ptr_off t mid) rr (roff + ptr_off t 0) (moved * 4);
  Mem.write_u16 t.sim rr (roff + off_n) moved;
  Mem.write_u16 t.sim r (off + off_n) mid;
  let old_next = Mem.read_i32 t.sim r (off + off_next) in
  Mem.write_i32 t.sim rr (roff + off_next) old_next;
  Mem.write_i32 t.sim rr (roff + off_prev) addr;
  Mem.write_i32 t.sim r (off + off_next) right;
  if old_next <> nil then begin
    let onr, onoff = Arena.deref t.arena old_next in
    Mem.write_i32 t.sim onr (onoff + off_prev) right
  end;
  let sep = Mem.read_i32 t.sim rr (roff + key_off 0) in
  (right, rr, roff, sep)

let rec insert_into_parent t path sep child =
  match path with
  | [] ->
      let old_root = t.root in
      let new_root = new_node t ~leaf:false in
      let r, off = Arena.deref t.arena new_root in
      let orr, oroff = Arena.deref t.arena old_root in
      let old_min = Mem.read_i32 t.sim orr (oroff + key_off 0) in
      Mem.write_i32 t.sim r (off + key_off 0) old_min;
      Mem.write_i32 t.sim r (off + ptr_off t 0) old_root;
      Mem.write_i32 t.sim r (off + key_off 1) sep;
      Mem.write_i32 t.sim r (off + ptr_off t 1) child;
      Mem.write_u16 t.sim r (off + off_n) 2;
      t.root <- new_root;
      t.levels <- t.levels + 1
  | parent :: rest ->
      let r, off = Arena.deref t.arena parent in
      let n = Mem.read_u16 t.sim r (off + off_n) in
      let i =
        Array_search.upper_bound t.sim r ~off:(off + key_off 0) ~n ~key:sep
      in
      (* If child 0's subtree split at or below its recorded key 0 (not a
         trusted bound), lower key 0 so the array stays sorted and strictly
         distinct, and insert the new separator at slot 1. *)
      let i =
        if i = 0 || (i = 1 && Mem.read_i32 t.sim r (off + key_off 0) = sep)
        then begin
          Mem.write_i32 t.sim r (off + key_off 0) (sep - 1);
          1
        end
        else i
      in
      if n < t.capacity then insert_at t r off ~n ~i sep child
      else begin
        let right, rr, roff, parent_sep = split_node t parent r off ~leaf:false in
        let mid = t.capacity / 2 in
        (if i <= mid then insert_at t r off ~n:mid ~i sep child
         else insert_at t rr roff ~n:(t.capacity - mid) ~i:(i - mid) sep child);
        insert_into_parent t rest parent_sep right
      end

let insert t key tid =
  if not (Key.valid key) then invalid_arg "Pbtree.insert: key out of range";
  Sim.busy_op t.sim;
  let path = ref [] in
  let addr, r, off = descend t key ~visit:(fun a _ _ _ _ -> path := a :: !path) in
  let n = Mem.read_u16 t.sim r (off + off_n) in
  let i = Array_search.lower_bound t.sim r ~off:(off + key_off 0) ~n ~key in
  if i < n && Mem.read_i32 t.sim r (off + key_off i) = key then begin
    Mem.write_i32 t.sim r (off + ptr_off t i) tid;
    `Updated
  end
  else if n < t.capacity then begin
    insert_at t r off ~n ~i key tid;
    `Inserted
  end
  else begin
    let right, rr, roff, sep = split_node t addr r off ~leaf:true in
    let mid = t.capacity / 2 in
    (if i <= mid then insert_at t r off ~n:mid ~i key tid
     else insert_at t rr roff ~n:(t.capacity - mid) ~i:(i - mid) key tid);
    insert_into_parent t !path sep right;
    `Inserted
  end

(* --- Deletion ------------------------------------------------------------ *)

let delete t key =
  Sim.busy_op t.sim;
  let _addr, r, off = descend t key ~visit:(fun _ _ _ _ _ -> ()) in
  let n = Mem.read_u16 t.sim r (off + off_n) in
  let i = Array_search.lower_bound t.sim r ~off:(off + key_off 0) ~n ~key in
  let found = i < n && Mem.read_i32 t.sim r (off + key_off i) = key in
  if found then begin
    let len = (n - i - 1) * 4 in
    Mem.blit t.sim r (off + key_off (i + 1)) r (off + key_off i) len;
    Mem.blit t.sim r (off + ptr_off t (i + 1)) r (off + ptr_off t i) len;
    Mem.write_u16 t.sim r (off + off_n) (n - 1)
  end;
  found

(* --- Bulkload ------------------------------------------------------------ *)

let bulkload t pairs ~fill =
  if fill <= 0. || fill > 1. then invalid_arg "Pbtree.bulkload: fill";
  if t.n_nodes > 1 then invalid_arg "Pbtree.bulkload: tree not empty";
  let total = Array.length pairs in
  if total = 0 then ()
  else begin
    let per_node = max 1 (int_of_float (float_of_int t.capacity *. fill)) in
    let build_level ~leaf entries =
      let n = Array.length entries in
      let n_nodes = (n + per_node - 1) / per_node in
      let ups = Array.make n_nodes (0, 0) in
      let prev = ref nil in
      for p = 0 to n_nodes - 1 do
        let lo = p * per_node in
        let cnt = min per_node (n - lo) in
        let node = new_node t ~leaf in
        let r, off = Arena.deref t.arena node in
        Mem.write_pairs t.sim r ~keys:(off + key_off 0) ~values:(off + ptr_off t 0)
          entries lo cnt;
        Mem.write_u16 t.sim r (off + off_n) cnt;
        Mem.write_i32 t.sim r (off + off_prev) !prev;
        if !prev <> nil then begin
          let pr, poff = Arena.deref t.arena !prev in
          Mem.write_i32 t.sim pr (poff + off_next) node
        end;
        prev := node;
        ups.(p) <- (fst entries.(lo), node)
      done;
      ups
    in
    let level = ref (build_level ~leaf:true pairs) in
    let levels = ref 1 in
    while Array.length !level > 1 do
      level := build_level ~leaf:false !level;
      incr levels
    done;
    match !level with
    | [| (_, root) |] ->
        t.root <- root;
        t.levels <- !levels
    | _ -> assert false
  end

(* --- Range scan ---------------------------------------------------------- *)

(* Cache-granularity jump-pointer prefetching: walk the leaf-parent level
   and prefetch upcoming leaf nodes while the current one is consumed. *)
type jp_cursor = { mutable jp_node : int; mutable jp_idx : int }

let rec jp_next t cur =
  if cur.jp_node = nil then None
  else begin
    let r, off = Arena.deref t.arena cur.jp_node in
    let n = Mem.read_u16 t.sim r (off + off_n) in
    if cur.jp_idx < n then begin
      let p = Mem.read_i32 t.sim r (off + ptr_off t cur.jp_idx) in
      cur.jp_idx <- cur.jp_idx + 1;
      Some p
    end
    else begin
      cur.jp_node <- Mem.read_i32 t.sim r (off + off_next);
      cur.jp_idx <- 0;
      if cur.jp_node = nil then None else jp_next t cur
    end
  end

let range_scan t ?(prefetch = true) ~start_key ~end_key f =
  Sim.busy_op t.sim;
  if end_key < start_key then 0
  else begin
    let parent = ref nil and parent_idx = ref 0 in
    let _addr, r0, off0 =
      descend t start_key ~visit:(fun a _ _ _ i ->
          parent := a;
          parent_idx := i)
    in
    let cur = { jp_node = !parent; jp_idx = !parent_idx + 1 } in
    (* no node lives at [nil], so the pump runs to the last leaf *)
    let step =
      Scan.prefetcher ~distance:scan_prefetch_nodes ~on:prefetch
        ~next:(fun () -> jp_next t cur)
        ~issue:(fun node ->
          let r, off = Arena.deref t.arena node in
          Mem.prefetch t.sim r ~off ~len:t.node_bytes)
        ~last:nil
    in
    (* a node is its byte offset in the arena region *)
    let e =
      {
        Scan.count = (fun r off -> Mem.read_u16 t.sim r (off + off_n));
        (* forward scans only: [`Lower] *)
        slot =
          (fun r off ~n key _ ->
            Array_search.lower_bound t.sim r ~off:(off + key_off 0) ~n ~key);
        keys = (fun off -> off + key_off 0);
        values = (fun off -> off + ptr_off t 0);
      }
    in
    let count = ref 0 in
    let rec scan_node r off =
      let ended =
        Scan.entries t.sim e ~rev:false ~seek:(!count = 0) ~start_key ~end_key
          ~count f r off
      in
      if not ended then begin
        let next = Mem.read_i32 t.sim r (off + off_next) in
        if next <> nil then begin
          step ();
          let nr, noff = Arena.deref t.arena next in
          scan_node nr noff
        end
      end
    in
    scan_node r0 off0;
    !count
  end

(* --- Introspection (uncharged; tests only) -------------------------------- *)

let height t = t.levels
let allocated_bytes t = Arena.allocated_bytes t.arena
let capacity t = t.capacity

let iter t f =
  let rec leftmost addr =
    let r, off = Arena.deref t.arena addr in
    if Mem.peek_u8 r (off + off_is_leaf) = 1 then addr
    else leftmost (Mem.peek_i32 r (off + ptr_off t 0))
  in
  let rec walk addr =
    if addr <> nil then begin
      let r, off = Arena.deref t.arena addr in
      let n = Mem.peek_u16 r (off + off_n) in
      for i = 0 to n - 1 do
        f (Mem.peek_i32 r (off + key_off i)) (Mem.peek_i32 r (off + ptr_off t i))
      done;
      walk (Mem.peek_i32 r (off + off_next))
    end
  in
  walk (leftmost t.root)

let fail fmt = Fmt.kstr failwith fmt

let check t =
  let rec check_node addr ~lo ~hi ~depth =
    let r, off = Arena.deref t.arena addr in
    let leaf = Mem.peek_u8 r (off + off_is_leaf) = 1 in
    let n = Mem.peek_u16 r (off + off_n) in
    if leaf <> (depth = t.levels) then fail "node %#x: leaf at wrong depth" addr;
    if n > t.capacity then fail "node %#x: overfull" addr;
    if n = 0 && addr <> t.root then fail "node %#x: empty non-root" addr;
    for i = 0 to n - 1 do
      let k = Mem.peek_i32 r (off + key_off i) in
      if i > 0 && Mem.peek_i32 r (off + key_off (i - 1)) >= k then
        fail "node %#x: keys not increasing" addr;
      (match lo with
      | Some b when k < b -> fail "node %#x: key below bound" addr
      | _ -> ());
      match hi with
      | Some b when k >= b -> fail "node %#x: key above bound" addr
      | _ -> ()
    done;
    if not leaf then
      for i = 0 to n - 1 do
        let child = Mem.peek_i32 r (off + ptr_off t i) in
        let clo = if i = 0 then lo else Some (Mem.peek_i32 r (off + key_off i)) in
        let chi =
          if i = n - 1 then hi
          else Some (Mem.peek_i32 r (off + key_off (i + 1)))
        in
        check_node child ~lo:clo ~hi:chi ~depth:(depth + 1)
      done
  in
  check_node t.root ~lo:None ~hi:None ~depth:1
