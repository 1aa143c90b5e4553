(* Prefetching B+-Tree (pB+-Tree, Chen/Gibbons/Mowry SIGMOD 2001): the
   paper's cache-optimized comparator and the model for fpB+-Tree in-page
   trees.  A memory-resident B+-Tree whose nodes are several cache lines
   wide; every node is prefetched in full before it is searched, so a
   w-line node costs T1 + (w-1)*Tnext instead of one miss per probed line.

   It implements the subset Figure 3(b) measures: bulkload, then search.

   Node layout (16-byte header, then a key array and a pointer array):
     0: u8 is_leaf   2: u16 n   4: i32 next   8: i32 prev
   Bulkload links the nodes of every level both ways, as the paper's
   trees do; only [iter] reads a link.  Pointers are simulated addresses
   from [Arena]; leaves store tuple IDs. *)

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

let descend t key =
  let rec go addr =
    let r, off = fetch_node t addr in
    if Mem.read_u8 t.sim r (off + off_is_leaf) = 1 then (r, off)
    else begin
      let n = Mem.read_u16 t.sim r (off + off_n) in
      let i = route t r off ~n key in
      go (Mem.read_i32 t.sim r (off + ptr_off t i))
    end
  in
  go t.root

let search t key =
  Sim.busy_op t.sim;
  let r, off = descend t key in
  let n = Mem.read_u16 t.sim r (off + off_n) in
  let i = Array_search.lower_bound t.sim r ~off:(off + key_off 0) ~n ~key in
  if i < n && Mem.read_i32 t.sim r (off + key_off i) = key then
    Some (Mem.read_i32 t.sim r (off + ptr_off t i))
  else None

(* --- Bulkload ------------------------------------------------------------ *)

let bulkload t pairs ~fill =
  if fill <= 0. || fill > 1. then invalid_arg "Pbtree.bulkload: fill";
  if t.n_nodes > 1 then invalid_arg "Pbtree.bulkload: tree not empty";
  let total = Array.length pairs in
  if total = 0 then ()
  else begin
    (* at least two entries a node, or a level of one-entry nonleaf nodes
       would never narrow to a root *)
    let per_node = max 2 (int_of_float (float_of_int t.capacity *. fill)) in
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
