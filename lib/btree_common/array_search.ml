(* Binary search over contiguous little-endian int32 key arrays stored in
   simulated memory.  The charged variants drive the cache and cost models
   (one comparison charge and one memory access per probe); the peek
   variants are for uncharged checkers. *)

open Fpb_simmem

(* First index i in [0, n) with a(i) >= key; n if none. *)
let lower_bound sim region ~off ~n ~key =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    Sim.busy_compare sim;
    let k = Mem.read_i32 sim region (off + (Key.size * mid)) in
    if k < key then lo := mid + 1 else hi := mid
  done;
  !lo

(* First index i in [0, n) with a(i) > key; n if none. *)
let upper_bound sim region ~off ~n ~key =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    Sim.busy_compare sim;
    let k = Mem.read_i32 sim region (off + (Key.size * mid)) in
    if k <= key then lo := mid + 1 else hi := mid
  done;
  !lo
