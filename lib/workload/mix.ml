(* YCSB-style operation mixes over a live, growing key set.

   A mix is a percentage split over the five YCSB operation kinds; the
   standard A-F workloads are provided with their conventional
   popularity distributions (D reads the latest inserts, everything
   else defaults to scrambled Zipfian).  A [gen] owns the mutable
   key-space state — the key-age array that starts as the bulk-loaded
   keys and grows at the frontier with every insert — plus its own PRNG,
   so the driver ([Driver], closed or open loop) draws one
   fully-formed action per dispatch and the Latest distribution always
   sees the current frontier. *)

open Fpb_btree_common

type t = {
  name : string;
  read : int;
  update : int;
  insert : int;
  scan : int;
  rmw : int;
}

let make ~name ~read ~update ~insert ~scan ~rmw =
  if read < 0 || update < 0 || insert < 0 || scan < 0 || rmw < 0 then
    invalid_arg "Mix.make: negative proportion";
  if read + update + insert + scan + rmw <> 100 then
    invalid_arg "Mix.make: proportions must sum to 100";
  { name; read; update; insert; scan; rmw }

(* The standard YCSB core workloads. *)
let a = make ~name:"A" ~read:50 ~update:50 ~insert:0 ~scan:0 ~rmw:0
let b = make ~name:"B" ~read:95 ~update:5 ~insert:0 ~scan:0 ~rmw:0
let c = make ~name:"C" ~read:100 ~update:0 ~insert:0 ~scan:0 ~rmw:0
let d = make ~name:"D" ~read:95 ~update:0 ~insert:5 ~scan:0 ~rmw:0
let e = make ~name:"E" ~read:0 ~update:0 ~insert:5 ~scan:95 ~rmw:0
let f = make ~name:"F" ~read:50 ~update:0 ~insert:0 ~scan:0 ~rmw:50
let all = [ a; b; c; d; e; f ]

let of_string s =
  match String.uppercase_ascii s with
  | "A" -> Ok a
  | "B" -> Ok b
  | "C" -> Ok c
  | "D" -> Ok d
  | "E" -> Ok e
  | "F" -> Ok f
  | _ -> Error (Printf.sprintf "unknown mix %S (expected A..F)" s)

(* D follows the insert frontier by definition; every other core mix is
   skewed-by-popularity, which YCSB models as scrambled Zipfian. *)
let default_dist m =
  if m.name = "D" then Keygen.Latest { theta = Keygen.default_theta }
  else Keygen.Zipfian { theta = Keygen.default_theta; scrambled = true }

type action =
  | Read of int
  | Update of int * int
  | Insert of int * int
  | Scan of int * int
  | Rmw of int * int

type gen = {
  mix : t;
  dist : Keygen.dist;
  rng : Prng.t;
  max_scan_span : int;
  key_stride : int; (* mean key distance between adjacent loaded keys *)
  mutable keys : int array; (* key-age array: [0, frontier) live *)
  mutable frontier : int;
  mutable next_value : int; (* value written by the next mutating op *)
  drawn : int array; (* action counts: read, update, insert, scan, rmw *)
}

let generator ?(max_scan_span = 100) ?dist ~seed mix pairs =
  let n = Array.length pairs in
  if n = 0 then invalid_arg "Mix.generator: empty key set";
  if max_scan_span < 1 then invalid_arg "Mix.generator: max_scan_span";
  let keys = Array.make (2 * n) 0 in
  Array.iteri (fun i (k, _) -> keys.(i) <- k) pairs;
  let lo = fst pairs.(0) and hi = fst pairs.(n - 1) in
  {
    mix;
    dist = (match dist with Some d -> d | None -> default_dist mix);
    rng = Prng.create seed;
    max_scan_span;
    key_stride = max 1 ((hi - lo) / max 1 (n - 1));
    keys;
    frontier = n;
    next_value = 0;
    drawn = Array.make 5 0;
  }

let live_keys g = g.frontier

let drawn_counts g = (g.drawn.(0), g.drawn.(1), g.drawn.(2), g.drawn.(3), g.drawn.(4))

let pick_key g = g.keys.(Keygen.draw_pos g.dist g.rng ~n:g.frontier)

(* A fresh insert key: uniform over the space, so new keys land between
   existing ones rather than piling onto one edge leaf.  Collisions with
   a live key are possible but negligible (n << 2^31) and harmless (the
   index treats them as updates). *)
let fresh_key g = Prng.int g.rng Key.max_key

let[@inline] count g kind = g.drawn.(kind) <- g.drawn.(kind) + 1

(* The value written by the next mutating action. *)
let[@inline] value g =
  g.next_value <- g.next_value + 1;
  g.next_value

(* One [Prng.int rng 100] picks the kind against the mix's cumulative
   thresholds; the action's own draws follow it in a fixed order, so a
   seed gives one action stream.  Only the returned action allocates,
   and the key array when an insert outgrows it. *)
let next g =
  let m = g.mix in
  let r = Prng.int g.rng 100 in
  if r < m.read then begin
    count g 0;
    Read (pick_key g)
  end
  else if r < m.read + m.update then begin
    count g 1;
    let k = pick_key g in
    Update (k, value g)
  end
  else if r < m.read + m.update + m.insert then begin
    count g 2;
    let k = fresh_key g in
    if g.frontier = Array.length g.keys then begin
      let bigger = Array.make (2 * Array.length g.keys) 0 in
      Array.blit g.keys 0 bigger 0 g.frontier;
      g.keys <- bigger
    end;
    g.keys.(g.frontier) <- k;
    g.frontier <- g.frontier + 1;
    Insert (k, value g)
  end
  else if r < m.read + m.update + m.insert + m.scan then begin
    count g 3;
    let start_key = pick_key g in
    let span = 1 + Prng.int g.rng g.max_scan_span in
    Scan (start_key, start_key + (span * g.key_stride))
  end
  else begin
    count g 4;
    let k = pick_key g in
    Rmw (k, value g)
  end

(* Run one action against an index; [commit] (e.g. a WAL commit) runs
   after each mutating action so updates are durable like any OLTP
   write. *)
let execute idx ?(commit = fun () -> ()) = function
  | Read k -> ignore (Index_sig.search idx k)
  | Update (k, v) ->
      ignore (Index_sig.insert idx k v);
      commit ()
  | Insert (k, v) ->
      ignore (Index_sig.insert idx k v);
      commit ()
  | Scan (start_key, end_key) ->
      ignore (Index_sig.range_scan idx ~start_key ~end_key (fun _ _ -> ()))
  | Rmw (k, v) ->
      ignore (Index_sig.search idx k);
      ignore (Index_sig.insert idx k v);
      commit ()
