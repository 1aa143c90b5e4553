(* Slotted nodes for variable-length keys (the paper defers variable-length
   keys to its full version; this is the classic slotted-page organisation
   applied at node granularity so the fpB+-Tree in-page scheme carries
   over).

   A node occupies [size] bytes at byte offset [off] of a region:
     off+0  u16 n (entries)
     off+2  u16 heap_top (offset, relative to the node, of the lowest used
            heap byte; the heap grows downward from [size])
     off+4  u16 next   off+6 u16 prev   (chain links, user-defined units)
     off+8  u16 flags (bit 0: leaf)
     off+10 u16 leftmost (nonleaf nodes: the extra "child 0" pointer of the
            classic n-keys/(n+1)-children convention, in user units)
     off+12 slot array: n x u16 entry offsets (relative to the node), in
            key order
   Entry: u8 klen | key bytes | 4B pointer (tuple ID, page ID or line).

   All charged accessors touch the lines they read and charge compare /
   copy work; [peek_*] variants are for checkers. *)

open Fpb_simmem

let header = 12
let max_key_len = 255

let o_n = 0
let o_heap = 2
let o_next = 4
let o_prev = 6
let o_flags = 8
let o_leftmost = 10

type node = { r : Mem.region; off : int; size : int }

let v sim nd field = Mem.read_u16 sim nd.r (nd.off + field)
let setv sim nd field x = Mem.write_u16 sim nd.r (nd.off + field) x
let peek nd field = Mem.peek_u16 nd.r (nd.off + field)

let init sim nd ~leaf =
  setv sim nd o_n 0;
  setv sim nd o_heap nd.size;
  setv sim nd o_next 0;
  setv sim nd o_prev 0;
  setv sim nd o_flags (if leaf then 1 else 0);
  setv sim nd o_leftmost 0

let count sim nd = v sim nd o_n
let is_leaf sim nd = v sim nd o_flags land 1 = 1

(* Bytes still available for one more entry (slot + heap). *)
let free_space sim nd =
  let n = v sim nd o_n in
  v sim nd o_heap - (header + (2 * (n + 1)))

let entry_bytes key = 1 + String.length key + 4

let slot_off nd i = nd.off + header + (2 * i)
let entry_off sim nd i = Mem.read_u16 sim nd.r (slot_off nd i)

(* Charged read of the key of entry slot [i]: touches its lines and
   charges copy throughput. *)
let key_at sim nd i =
  let e = entry_off sim nd i in
  let klen = Mem.read_u8 sim nd.r (nd.off + e) in
  Sim.charge_busy sim (1 + (klen / sim.Sim.cost.Fpb_simmem.Cost_model.move_bytes_per_cycle));
  Cache.access_range sim.Sim.cache (nd.r.Mem.base + nd.off + e + 1) klen;
  Bytes.sub_string nd.r.Mem.bytes (nd.off + e + 1) klen

let ptr_at sim nd i =
  let e = entry_off sim nd i in
  let klen = Mem.read_u8 sim nd.r (nd.off + e) in
  Mem.read_i32 sim nd.r (nd.off + e + 1 + klen)

let set_ptr_at sim nd i p =
  let e = entry_off sim nd i in
  let klen = Mem.read_u8 sim nd.r (nd.off + e) in
  Mem.write_i32 sim nd.r (nd.off + e + 1 + klen) p

(* First slot whose key is >= / > [key] (charged binary search). *)
let find sim nd ~key mode =
  let n = v sim nd o_n in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    Sim.busy_compare sim;
    let k = key_at sim nd mid in
    let c = compare k key in
    let go_right = match mode with `Lower -> c < 0 | `Upper -> c <= 0 in
    if go_right then lo := mid + 1 else hi := mid
  done;
  !lo

(* Insert (key, ptr) at slot [i]; false if the node lacks space. *)
let insert_at sim nd ~i key ptr =
  if String.length key > max_key_len then invalid_arg "Slotted: key too long";
  let n = v sim nd o_n in
  let need = entry_bytes key in
  if free_space sim nd < need then false
  else begin
    let heap = v sim nd o_heap - need in
    setv sim nd o_heap heap;
    (* write the entry *)
    Mem.write_u8 sim nd.r (nd.off + heap) (String.length key);
    Mem.move_in sim nd.r ~off:(nd.off + heap) ~len:need key ~at:(nd.off + heap + 1);
    Mem.write_i32 sim nd.r (nd.off + heap + 1 + String.length key) ptr;
    (* open the slot *)
    Mem.blit sim nd.r (slot_off nd i) nd.r (slot_off nd (i + 1)) ((n - i) * 2);
    Mem.write_u16 sim nd.r (slot_off nd i) heap;
    setv sim nd o_n (n + 1);
    true
  end

(* All (key, ptr) entries in slot order (charged). *)
let entries sim nd =
  let n = v sim nd o_n in
  List.init n (fun i -> (key_at sim nd i, ptr_at sim nd i))

(* Rebuild the node from scratch with the given entries (compacts the
   heap).  Preserves links/flags/leftmost.  Entries must fit. *)
let rebuild sim nd items =
  let next = v sim nd o_next and prev = v sim nd o_prev in
  let flags = v sim nd o_flags and leftmost = v sim nd o_leftmost in
  setv sim nd o_n 0;
  setv sim nd o_heap nd.size;
  List.iteri
    (fun i (k, p) ->
      if not (insert_at sim nd ~i k p) then failwith "Slotted.rebuild: overflow")
    items;
  setv sim nd o_next next;
  setv sim nd o_prev prev;
  setv sim nd o_flags flags;
  setv sim nd o_leftmost leftmost

(* --- Uncharged (checkers) -------------------------------------------------- *)

let peek_key nd i =
  let e = Mem.peek_u16 nd.r (slot_off nd i) in
  let klen = Mem.peek_u8 nd.r (nd.off + e) in
  Bytes.sub_string nd.r.Mem.bytes (nd.off + e + 1) klen

let peek_ptr nd i =
  let e = Mem.peek_u16 nd.r (slot_off nd i) in
  let klen = Mem.peek_u8 nd.r (nd.off + e) in
  Mem.peek_i32 nd.r (nd.off + e + 1 + klen)
