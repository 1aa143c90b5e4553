(* Open addressing over two flat int arrays, slot i holding key
   [keys.(i)] and value [vals.(i)].  A key's probe starts at its home
   slot (a multiplicative hash: the top bits of [k * golden]) and walks
   forward, wrapping at the end, to the key or the first empty slot.
   Removal shifts the rest of the key's cluster back over the hole
   (Knuth's Algorithm R), so there are no tombstones and every probe
   stops at the first empty slot.  At most half the slots are used, so
   probes stay short and always reach an empty slot. *)

type t = {
  keys : int array;  (* [empty] in a free slot *)
  vals : int array;  (* [absent] in a free slot *)
  mask : int;  (* capacity - 1 *)
  shift : int;  (* 63 - log2 capacity *)
  mutable size : int;
}

let empty = min_int
let absent = -1

(* Odd, so [k * golden] is a bijection modulo 2^63. *)
let golden = 0x1E3779B97F4A7C15

let[@inline] home t k = (k * golden) lsr t.shift

let create n =
  let bits = ref 3 in
  while 1 lsl !bits < n do
    incr bits
  done;
  let cap = 1 lsl !bits in
  {
    keys = Array.make cap empty;
    vals = Array.make cap absent;
    mask = cap - 1;
    shift = 63 - !bits;
    size = 0;
  }

let length t = t.size
let capacity t = t.mask + 1

(* The slot holding [k], or the empty slot where its probe ends. *)
let[@inline] probe t k =
  let keys = t.keys and mask = t.mask in
  let i = ref (home t k) in
  while
    let x = keys.(!i) in
    x <> k && x <> empty
  do
    i := (!i + 1) land mask
  done;
  !i

(* A free slot's value is [absent], and [empty] is never stored. *)
let[@inline] find t k = t.vals.(probe t k)
let[@inline] mem t k = find t k <> absent

let replace t k v =
  if k = empty then invalid_arg "Page_table.replace: min_int key";
  if v < 0 then invalid_arg "Page_table.replace: negative value";
  let i = probe t k in
  if t.keys.(i) = k then t.vals.(i) <- v
  else begin
    if 2 * (t.size + 1) > capacity t then
      invalid_arg "Page_table.replace: more than half full";
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1
  end

let remove t k =
  let keys = t.keys and vals = t.vals and mask = t.mask in
  let hole = ref (probe t k) in
  if k <> empty && keys.(!hole) = k then begin
    t.size <- t.size - 1;
    let j = ref ((!hole + 1) land mask) in
    while keys.(!j) <> empty do
      (* The entry at j may fill the hole unless its home lies
         cyclically in (hole, j]: its probe would then miss the hole. *)
      let h = home t keys.(!j) in
      let stays = if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j in
      if not stays then begin
        keys.(!hole) <- keys.(!j);
        vals.(!hole) <- vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    keys.(!hole) <- empty;
    vals.(!hole) <- absent
  end
