(* splitmix64: tiny, fast, deterministic PRNG for workload generation.
   (Stdlib Random is avoided so workloads are stable across OCaml
   versions.)

   The 64-bit state lives unboxed in 8 bytes, so a draw stores it back
   with one write and no [caml_modify]; a mutable [int64] field would
   box a fresh state on every draw.  [next] and its wrappers are
   [@inline], so a caller in another module keeps the drawn word
   unboxed too. *)

type t = Bytes.t

let[@inline] state t = Bytes.get_int64_le t 0
let[@inline] set_state t z = Bytes.set_int64_le t 0 z

let of_state z =
  let t = Bytes.create 8 in
  set_state t z;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] next t =
  let open Int64 in
  let z = add (state t) 0x9E3779B97F4A7C15L in
  set_state t z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Independent substream: one draw from the parent advances it past the
   split point, then the child state is re-randomised through a second
   splitmix64 finalizer with distinct multipliers (Vigna's variant) so
   parent and child sequences share no aligned window. *)
let split t =
  let open Int64 in
  let z = next t in
  let z = mul (logxor z (shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = mul (logxor z (shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  of_state (logxor z (shift_right_logical z 33))

(* Uniform int in [0, bound). *)
let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Prng.int";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

(* Uniform float in [0, 1) from the top 53 bits (the full double
   mantissa), so the smallest nonzero value is 2^-53. *)
let[@inline] float t =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1. /. 9007199254740992.)

(* Exponentially distributed value with the given [mean]; inverse-CDF
   over a [float] draw (the 1 - u flip keeps log's argument nonzero). *)
let[@inline] exponential t ~mean =
  if mean <= 0. then invalid_arg "Prng.exponential";
  -. mean *. log (1. -. float t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
