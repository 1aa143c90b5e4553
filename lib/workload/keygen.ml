(* Key-set generation for the paper's workloads: n distinct random keys
   over the 31-bit key space, returned sorted for bulkload.  Keys are
   jittered strides, which gives a uniform-looking distinct set in O(n)
   deterministically. *)

open Fpb_btree_common

(* Sorted distinct (key, tid) pairs; tid = key position (stable oracle). *)
let bulk_pairs rng n =
  if n <= 0 then [||]
  else begin
    let space = Key.max_key - 1 in
    let step = max 2 (space / n) in
    Array.init n (fun i ->
        let base = i * step in
        let jitter = Prng.int rng (step - 1) in
        (base + jitter, i))
  end

(* Random probe keys drawn from an existing key set (hits). *)
let probes rng pairs count =
  let n = Array.length pairs in
  Array.init count (fun _ -> fst pairs.(Prng.int rng n))

(* Random keys over the whole space (for insertions; mostly misses). *)
let random_keys rng count =
  Array.init count (fun _ -> Prng.int rng Key.max_key)

(* Random (start, end) ranges spanning [span] key positions within a
   bulkloaded key set. *)
let ranges rng pairs count ~span =
  let n = Array.length pairs in
  Array.init count (fun _ ->
      let s = Prng.int rng (max 1 (n - span)) in
      let e = min (n - 1) (s + span - 1) in
      (fst pairs.(s), fst pairs.(e)))

(* Zipf-distributed rank in [0, n), rank 0 hottest, via the
   rejection-free power-law approximation floor(n * u^(1/(1-theta)))
   for theta in (0, 1).  The approximation matches the true Zipfian
   head closely (P(rank r) ~ r^-theta up to normalisation) and is O(1)
   per draw with no precomputed tables, which matters because the
   open-loop driver draws per-op at dispatch time. *)
let zipf_rank rng ~n ~theta =
  if theta <= 0. || theta >= 1. then invalid_arg "Keygen.zipf_rank: theta";
  if n <= 0 then invalid_arg "Keygen.zipf_rank: n";
  let u = 1. -. Prng.float rng in (* (0, 1]: keeps u ** expo nonzero *)
  let rank = int_of_float (float_of_int n *. (u ** (1. /. (1. -. theta)))) in
  if rank < n - 1 then rank else n - 1

(* Zipf-distributed probe positions over an existing key set (rank 0 is
   hottest). *)
let zipf_probes rng pairs count ~theta =
  let n = Array.length pairs in
  Array.init count (fun _ -> fst pairs.(zipf_rank rng ~n ~theta))

(* FNV-1a 64-bit scramble of a position: decorrelates Zipfian rank from
   key order, so the hot set is spread across the whole key space
   instead of being one contiguous leaf run (YCSB's scrambled-Zipfian
   scheme).  Not a permutation — hash collisions leave a few positions
   unreachable, exactly as in YCSB — but deterministic. *)
let scramble ~n pos =
  if n <= 0 then invalid_arg "Keygen.scramble: n";
  let open Int64 in
  let h = ref 0xcbf29ce484222325L in
  for shift = 0 to 7 do
    let byte = logand (shift_right_logical (of_int pos) (8 * shift)) 0xffL in
    h := mul (logxor !h byte) 0x100000001b3L
  done;
  to_int (rem (shift_right_logical !h 1) (of_int n))

(* The key-popularity distributions of the YCSB-style workload suite.
   Each draws a *position* in [0, n) of a key-age array: position 0 is
   the oldest (first-loaded) key, position n-1 the newest insert. *)
type dist =
  | Uniform
  | Zipfian of { theta : float; scrambled : bool }
  | Latest of { theta : float }
  | Hotspot of { hot_frac : float; hot_op_frac : float }

let default_theta = 0.99

let dist_name = function
  | Uniform -> "uniform"
  | Zipfian { theta; scrambled } ->
      Printf.sprintf "%szipf %.2f" (if scrambled then "scrambled-" else "") theta
  | Latest { theta } -> Printf.sprintf "latest %.2f" theta
  | Hotspot { hot_frac; hot_op_frac } ->
      Printf.sprintf "hotspot %.0f/%.0f" (100. *. hot_op_frac) (100. *. hot_frac)

let dist_of_string ?(theta = default_theta) s =
  match String.lowercase_ascii s with
  | "uniform" -> Ok Uniform
  | "zipfian" | "zipf" -> Ok (Zipfian { theta; scrambled = true })
  | "zipf-seq" | "zipfian-seq" -> Ok (Zipfian { theta; scrambled = false })
  | "latest" -> Ok (Latest { theta })
  | "hotspot" -> Ok (Hotspot { hot_frac = 0.2; hot_op_frac = 0.8 })
  | _ ->
      Error
        (Printf.sprintf
           "unknown distribution %S (expected uniform, zipfian, zipf-seq, \
            latest or hotspot)" s)

let draw_pos dist rng ~n =
  if n <= 0 then invalid_arg "Keygen.draw_pos: n";
  match dist with
  | Uniform -> Prng.int rng n
  | Zipfian { theta; scrambled } ->
      let rank = zipf_rank rng ~n ~theta in
      if scrambled then scramble ~n rank else rank
  | Latest { theta } -> n - 1 - zipf_rank rng ~n ~theta
  | Hotspot { hot_frac; hot_op_frac } ->
      if hot_frac <= 0. || hot_frac > 1. || hot_op_frac < 0. || hot_op_frac > 1.
      then invalid_arg "Keygen.draw_pos: hotspot fractions";
      let hot_n = int_of_float (float_of_int n *. hot_frac) in
      let hot_n = if hot_n > n then n else if hot_n < 1 then 1 else hot_n in
      if n = hot_n || Prng.float rng < hot_op_frac then Prng.int rng hot_n
      else hot_n + Prng.int rng (n - hot_n)
