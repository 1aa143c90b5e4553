(* Workload generator tests: determinism, distinctness, sortedness. *)

open Fpb_workload

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1_000_000) (Prng.int b 1_000_000)
  done;
  let c = Prng.create 43 in
  Alcotest.(check bool) "different seed differs" true
    (List.init 10 (fun _ -> Prng.int a 1000) <> List.init 10 (fun _ -> Prng.int c 1000))

let test_bulk_pairs_sorted_distinct () =
  let rng = Prng.create 7 in
  let pairs = Keygen.bulk_pairs rng 100_000 in
  Alcotest.(check int) "count" 100_000 (Array.length pairs);
  for i = 1 to Array.length pairs - 1 do
    if fst pairs.(i - 1) >= fst pairs.(i) then
      Alcotest.failf "not strictly increasing at %d" i
  done;
  Array.iter
    (fun (k, _) ->
      if not (Fpb_btree_common.Key.valid k) then Alcotest.failf "invalid key %d" k)
    pairs

let test_shuffle_permutes () =
  let rng = Prng.create 9 in
  let a = Array.init 1000 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "permutation" true (sorted = Array.init 1000 Fun.id);
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 1000 Fun.id)

let test_probes_and_ranges () =
  let rng = Prng.create 11 in
  let pairs = Keygen.bulk_pairs rng 10_000 in
  let probes = Keygen.probes rng pairs 500 in
  Array.iter
    (fun p ->
      if not (Array.exists (fun (k, _) -> k = p) pairs) then
        Alcotest.failf "probe %d not a key" p)
    probes;
  let ranges = Keygen.ranges rng pairs 50 ~span:100 in
  Array.iter
    (fun (a, b) -> if a > b then Alcotest.failf "inverted range %d > %d" a b)
    ranges

let prop_int_bounds =
  Util.qtest "Prng.int stays in bounds"
    QCheck2.Gen.(pair (1 -- 1000) (0 -- 1000000))
    (fun (bound, seed) ->
      let rng = Prng.create seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

(* The boxed splitmix64 that [Prng] replaced, kept as the reference its
   streams must equal bit for bit. *)
module Ref_prng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let next t =
    let open Int64 in
    t.state <- add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let split t =
    let open Int64 in
    let z = next t in
    let z = mul (logxor z (shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
    let z = mul (logxor z (shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
    { state = logxor z (shift_right_logical z 33) }

  let int t bound =
    Int64.to_int
      (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

  let float t =
    let bits = Int64.shift_right_logical (next t) 11 in
    Int64.to_float bits *. (1. /. 9007199254740992.)

  let exponential t ~mean = -.mean *. log (1. -. float t)
end

(* Every draw of [Prng] equals the reference's, for each seed: raw
   words, [int] at small, large and [max_int] bounds, [float],
   [exponential], and the streams of [split] children, interleaved so a
   draw that advanced the state by the wrong amount shows at once. *)
let test_prng_matches_reference () =
  let draws = 10_000 in
  List.iter
    (fun seed ->
      let fail what i = Alcotest.failf "seed %d: %s differs at draw %d" seed what i in
      let p = Prng.create seed and r = Ref_prng.create seed in
      for i = 1 to draws do
        if Prng.next p <> Ref_prng.next r then fail "next" i;
        List.iter
          (fun bound ->
            if Prng.int p bound <> Ref_prng.int r bound then
              fail (Printf.sprintf "int %d" bound) i)
          [ 1; 100; 1 lsl 30; max_int ];
        if Int64.bits_of_float (Prng.float p)
           <> Int64.bits_of_float (Ref_prng.float r)
        then fail "float" i;
        if Int64.bits_of_float (Prng.exponential p ~mean:250.)
           <> Int64.bits_of_float (Ref_prng.exponential r ~mean:250.)
        then fail "exponential" i
      done;
      let pc = Prng.split p and rc = Ref_prng.split r in
      let pc' = Prng.split p and rc' = Ref_prng.split r in
      for i = 1 to draws do
        if Prng.next pc <> Ref_prng.next rc then fail "first child" i;
        if Prng.int pc' 1000 <> Ref_prng.int rc' 1000 then fail "second child" i;
        if Prng.next p <> Ref_prng.next r then fail "parent after split" i
      done)
    [ 0; 1; -1; 42; max_int ]

(* [Mix.next] as it stood before its kind draw and value counter were
   inlined: a polymorphic-variant kind, a per-call [value] closure.
   [Mix.next] must return the same actions and leave the same counts. *)
module Ref_mix = struct
  type g = {
    mix : Mix.t;
    dist : Keygen.dist;
    rng : Prng.t;
    max_scan_span : int;
    key_stride : int;
    mutable keys : int array;
    mutable frontier : int;
    mutable next_value : int;
    drawn : int array;
  }

  let generator ~max_scan_span ~dist ~seed mix pairs =
    let n = Array.length pairs in
    let keys = Array.make (2 * n) 0 in
    Array.iteri (fun i (k, _) -> keys.(i) <- k) pairs;
    let lo = fst pairs.(0) and hi = fst pairs.(n - 1) in
    {
      mix;
      dist;
      rng = Prng.create seed;
      max_scan_span;
      key_stride = max 1 ((hi - lo) / max 1 (n - 1));
      keys;
      frontier = n;
      next_value = 0;
      drawn = Array.make 5 0;
    }

  let draw_kind (m : Mix.t) rng =
    let r = Prng.int rng 100 in
    if r < m.read then `Read
    else if r < m.read + m.update then `Update
    else if r < m.read + m.update + m.insert then `Insert
    else if r < m.read + m.update + m.insert + m.scan then `Scan
    else `Rmw

  let kind_index = function
    | `Read -> 0
    | `Update -> 1
    | `Insert -> 2
    | `Scan -> 3
    | `Rmw -> 4

  let pick_key g = g.keys.(Keygen.draw_pos g.dist g.rng ~n:g.frontier)

  let next g : Mix.action =
    let kind = draw_kind g.mix g.rng in
    g.drawn.(kind_index kind) <- g.drawn.(kind_index kind) + 1;
    let value () =
      g.next_value <- g.next_value + 1;
      g.next_value
    in
    match kind with
    | `Read -> Read (pick_key g)
    | `Update -> Update (pick_key g, value ())
    | `Insert ->
        let k = Prng.int g.rng Fpb_btree_common.Key.max_key in
        if g.frontier = Array.length g.keys then begin
          let bigger = Array.make (2 * Array.length g.keys) 0 in
          Array.blit g.keys 0 bigger 0 g.frontier;
          g.keys <- bigger
        end;
        g.keys.(g.frontier) <- k;
        g.frontier <- g.frontier + 1;
        Insert (k, value ())
    | `Scan ->
        let start_key = pick_key g in
        let span = 1 + Prng.int g.rng g.max_scan_span in
        Scan (start_key, start_key + (span * g.key_stride))
    | `Rmw -> Rmw (pick_key g, value ())

  let drawn_counts g =
    (g.drawn.(0), g.drawn.(1), g.drawn.(2), g.drawn.(3), g.drawn.(4))
end

(* Every mix under every distribution, from 40 loaded keys for 6,000
   draws: enough inserts (E and D draw 5 %, the insert-heavy mix 60 %)
   to outgrow the key array more than once. *)
let test_mix_matches_reference () =
  let insert_heavy =
    Mix.make ~name:"I" ~read:10 ~update:10 ~insert:60 ~scan:10 ~rmw:10
  in
  let dists =
    Keygen.
      [
        Uniform;
        Zipfian { theta = default_theta; scrambled = true };
        Zipfian { theta = default_theta; scrambled = false };
        Latest { theta = default_theta };
        Hotspot { hot_frac = 0.2; hot_op_frac = 0.8 };
      ]
  in
  let pairs = Keygen.bulk_pairs (Prng.create 3) 40 in
  List.iter
    (fun (mix : Mix.t) ->
      List.iter
        (fun dist ->
          let name = mix.name ^ " " ^ Keygen.dist_name dist in
          let g = Mix.generator ~max_scan_span:37 ~dist ~seed:17 mix pairs in
          let r = Ref_mix.generator ~max_scan_span:37 ~dist ~seed:17 mix pairs in
          for i = 1 to 6_000 do
            if Mix.next g <> Ref_mix.next r then
              Alcotest.failf "%s: action %d differs" name i
          done;
          let a, b, c, d, e = Mix.drawn_counts g in
          Alcotest.(check (list int))
            (name ^ ": drawn counts")
            (let a, b, c, d, e = Ref_mix.drawn_counts r in
             [ a; b; c; d; e ])
            [ a; b; c; d; e ];
          Alcotest.(check int) (name ^ ": live keys") r.frontier (Mix.live_keys g);
          if mix.insert > 0 && r.frontier < 4 * Array.length pairs then
            Alcotest.failf "%s: %d live keys never outgrew the key array twice"
              name r.frontier)
        dists)
    (insert_heavy :: Mix.all)

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "bulk pairs sorted distinct valid" `Quick test_bulk_pairs_sorted_distinct;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "probes and ranges" `Quick test_probes_and_ranges;
    prop_int_bounds;
    Alcotest.test_case "prng == boxed splitmix64 reference" `Quick
      test_prng_matches_reference;
    Alcotest.test_case "mix next == reference" `Quick test_mix_matches_reference;
  ]
