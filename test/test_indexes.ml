(* Model-based and unit tests shared by all four disk-resident index
   structures (disk-optimized B+-Tree, micro-indexing, disk-first and
   cache-first fpB+-Trees).  Every index is checked against a Map oracle
   over random operation sequences, with structural invariants re-verified
   along the way. *)

open Fpb_btree_common
module M = Map.Make (Int)

let kinds =
  [
    ("disk_opt", Fpb_experiments.Setup.Disk_opt);
    ("micro", Fpb_experiments.Setup.Micro);
    ("disk_first", Fpb_experiments.Setup.Disk_first);
    ("cache_first", Fpb_experiments.Setup.Cache_first);
  ]

let make_index ?page_size kind =
  let pool = Util.make_pool ?page_size ~capacity:16384 () in
  Fpb_experiments.Setup.make_index kind pool

(* --- Unit tests, parameterised over the index kind ------------------------ *)

let test_empty kind () =
  let idx = make_index kind in
  Alcotest.(check (option int)) "search empty" None (Index_sig.search idx 42);
  Alcotest.(check bool) "delete empty" false (Index_sig.delete idx 42);
  Alcotest.(check int) "scan empty" 0
    (Index_sig.range_scan idx ~start_key:0 ~end_key:1000 (fun _ _ -> ()));
  Index_sig.check idx

let test_single kind () =
  let idx = make_index kind in
  Alcotest.(check bool) "insert" true (Index_sig.insert idx 5 50 = `Inserted);
  Alcotest.(check (option int)) "found" (Some 50) (Index_sig.search idx 5);
  Alcotest.(check (option int)) "miss below" None (Index_sig.search idx 4);
  Alcotest.(check (option int)) "miss above" None (Index_sig.search idx 6);
  Alcotest.(check bool) "update" true (Index_sig.insert idx 5 51 = `Updated);
  Alcotest.(check (option int)) "updated" (Some 51) (Index_sig.search idx 5);
  Alcotest.(check bool) "delete" true (Index_sig.delete idx 5);
  Alcotest.(check (option int)) "gone" None (Index_sig.search idx 5);
  Index_sig.check idx

let test_bulkload_basics kind () =
  let idx = make_index kind in
  let pairs = Array.init 50_000 (fun i -> (3 * i, i)) in
  Index_sig.bulkload idx pairs ~fill:0.75;
  Index_sig.check idx;
  Alcotest.(check (option int)) "first" (Some 0) (Index_sig.search idx 0);
  Alcotest.(check (option int)) "last" (Some 49_999) (Index_sig.search idx 149_997);
  Alcotest.(check (option int)) "between" None (Index_sig.search idx 1);
  let count = ref 0 in
  let n =
    Index_sig.range_scan idx ~start_key:min_int ~end_key:max_int (fun _ _ ->
        incr count)
  in
  Alcotest.(check int) "full scan count" 50_000 n;
  Alcotest.(check int) "callback count" 50_000 !count

let test_bulkload_rejects kind () =
  let idx = make_index kind in
  Alcotest.(check bool) "bad fill rejected" true
    (try
       Index_sig.bulkload idx [| (1, 1) |] ~fill:0.0;
       false
     with Invalid_argument _ -> true)

let test_scan_boundaries kind () =
  let idx = make_index kind in
  Index_sig.bulkload idx (Array.init 10_000 (fun i -> (2 * i, i))) ~fill:1.0;
  let collect a b =
    let out = ref [] in
    ignore (Index_sig.range_scan idx ~start_key:a ~end_key:b (fun k _ -> out := k :: !out));
    List.rev !out
  in
  Alcotest.(check (list int)) "inclusive both ends" [ 100; 102; 104 ] (collect 100 104);
  Alcotest.(check (list int)) "odd bounds" [ 100; 102; 104 ] (collect 99 105);
  Alcotest.(check (list int)) "single" [ 100 ] (collect 100 100);
  Alcotest.(check (list int)) "empty between keys" [] (collect 101 101);
  Alcotest.(check (list int)) "inverted" [] (collect 104 100);
  Alcotest.(check int) "tail" 3
    (Index_sig.range_scan idx ~start_key:19_994 ~end_key:99_999_999 (fun _ _ -> ()))

let test_descending_inserts kind () =
  (* ever-smaller keys stress the untrusted-minimum routing fix *)
  let idx = make_index ~page_size:4096 kind in
  for i = 30_000 downto 1 do
    ignore (Index_sig.insert idx i i)
  done;
  Index_sig.check idx;
  for i = 1 to 30_000 do
    if Index_sig.search idx i <> Some i then Alcotest.failf "missing %d" i
  done

let test_sentinel_rejected kind () =
  let idx = make_index kind in
  Alcotest.(check bool) "sentinel rejected" true
    (try
       ignore (Index_sig.insert idx Key.sentinel 1);
       false
     with Invalid_argument _ -> true)

let test_prefetch_scan_equiv kind () =
  (* jump-pointer prefetching must not change scan results *)
  let idx = make_index kind in
  Index_sig.bulkload idx (Array.init 80_000 (fun i -> (2 * i, i))) ~fill:0.8;
  let run prefetch =
    let acc = ref [] in
    let n =
      Index_sig.range_scan idx ~prefetch ~start_key:31_111 ~end_key:88_888
        (fun k v -> acc := (k, v) :: !acc)
    in
    (n, List.rev !acc)
  in
  let n1, r1 = run false and n2, r2 = run true in
  Alcotest.(check int) "same count" n1 n2;
  Alcotest.(check bool) "same results" true (r1 = r2)

(* --- Model-based property tests ------------------------------------------- *)

type op = Insert of int * int | Delete of int | Search of int | Scan of int * int

let op_gen =
  let open QCheck2.Gen in
  let key = 0 -- 2000 in
  frequency
    [
      (5, map2 (fun k v -> Insert (k, v)) key (0 -- 10_000));
      (2, map (fun k -> Delete k) key);
      (2, map (fun k -> Search k) key);
      (1, map2 (fun a len -> Scan (a, a + len)) key (0 -- 300));
    ]

let apply_model m = function
  | Insert (k, v) -> M.add k v m
  | Delete k -> M.remove k m
  | Search _ | Scan _ -> m

let agrees idx m op =
  match op with
  | Insert (k, v) ->
      let r = Index_sig.insert idx k v in
      (match r with
      | `Inserted -> not (M.mem k m)
      | `Updated -> M.mem k m)
  | Delete k -> Index_sig.delete idx k = M.mem k m
  | Search k -> Index_sig.search idx k = M.find_opt k m
  | Scan (a, b) ->
      let got = ref [] in
      let n = Index_sig.range_scan idx ~start_key:a ~end_key:b (fun k v -> got := (k, v) :: !got) in
      let want =
        M.to_seq m |> Seq.filter (fun (k, _) -> k >= a && k <= b) |> List.of_seq
      in
      List.rev !got = want && n = List.length want

let model_test name kind =
  (* tiny pages (4KB smallest supported) so splits and reorganisations are
     exercised with modest op counts *)
  Util.qtest ~count:30
    (Printf.sprintf "%s agrees with Map oracle" name)
    QCheck2.Gen.(list_size (return 400) op_gen)
    (fun ops ->
      let idx = make_index ~page_size:4096 kind in
      let m = ref M.empty in
      let ok =
        List.for_all
          (fun op ->
            let good = agrees idx !m op in
            m := apply_model !m op;
            good)
          ops
      in
      Index_sig.check idx;
      (* final state equivalence *)
      let dumped = ref [] in
      Index_sig.iter idx (fun k v -> dumped := (k, v) :: !dumped);
      ok && List.rev !dumped = List.of_seq (M.to_seq !m))

let model_test_bulk name kind =
  (* start from a bulkloaded tree, then mutate.  Only the bulkload
     shrinks: each shrink step rebuilds the tree and replays the ops, and
     shrinking 250 ops one element at a time took minutes to report a
     failure. *)
  Util.qtest ~count:15
    (Printf.sprintf "%s bulk+ops agrees with Map oracle" name)
    QCheck2.Gen.(
      pair
        (pair (1 -- 3000) (oneofl [ 0.6; 0.8; 1.0 ]))
        (no_shrink (list_size (return 250) op_gen)))
    (fun ((n, fill), ops) ->
      let idx = make_index ~page_size:4096 kind in
      let pairs = Array.init n (fun i -> (2 * i, i)) in
      Index_sig.bulkload idx pairs ~fill;
      let m = ref (Array.fold_left (fun m (k, v) -> M.add k v m) M.empty pairs) in
      let ok =
        List.for_all
          (fun op ->
            let good = agrees idx !m op in
            m := apply_model !m op;
            good)
          ops
      in
      Index_sig.check idx;
      ok)

(* --- pB+-Tree (memory-resident) -------------------------------------------- *)

(* Keys ascend from [base] by random gaps, so some gaps hold absent
   keys. *)
let sorted_pairs_gen =
  QCheck2.Gen.(
    map
      (fun (base, gaps) ->
        let keys = Array.of_list gaps in
        for i = 0 to Array.length keys - 1 do
          keys.(i) <- (if i = 0 then base else keys.(i - 1)) + keys.(i)
        done;
        (base, Array.map (fun k -> (k, k land 0xffff)) keys))
      (pair (-1000 -- 1000) (list_size (0 -- 5000) (1 -- 3))))

(* A bulkloaded tree holds exactly [pairs]: [iter] yields them in order,
   [search] finds each, and the keys between them are absent. *)
let holds_pairs ~iter ~search (base, pairs) =
  let got = ref [] in
  iter (fun k v -> got := (k, v) :: !got);
  let present = Hashtbl.create 64 in
  Array.iter (fun (k, _) -> Hashtbl.replace present k ()) pairs;
  List.rev !got = Array.to_list pairs
  && Array.for_all (fun (k, v) -> search k = Some v) pairs
  && List.for_all
       (fun k -> Hashtbl.mem present k || search k = None)
       (base :: Array.to_list (Array.map (fun (k, _) -> k + 1) pairs))

(* Figure 3(b) bulkloads a pB+-Tree and searches it; the tree offers
   nothing else. *)
let pb_bulkload_prop =
  Util.qtest ~count:30 "pB+tree bulkload matches its pairs"
    QCheck2.Gen.(
      triple (2 -- 8)
        (map (fun x -> 1. -. x) (float_bound_exclusive 1.))
        sorted_pairs_gen)
    (fun (node_lines, fill, keys) ->
      let open Fpb_pbtree in
      let sim = Fpb_simmem.Sim.create () in
      let t = Pbtree.create ~node_lines sim in
      Pbtree.bulkload t (snd keys) ~fill;
      Pbtree.check t;
      holds_pairs ~iter:(Pbtree.iter t) ~search:(Pbtree.search t) keys)

(* Fills are log-uniform in [0.001, 1], so about a fifth of the cases
   leave fewer than two entries a 4 KB page: each page then takes two. *)
let bulkload_prop name kind =
  Util.qtest ~count:30
    (Printf.sprintf "%s bulkload matches its pairs" name)
    QCheck2.Gen.(
      pair (map (fun x -> 10. ** (-3. *. x)) (float_bound_inclusive 1.)) sorted_pairs_gen)
    (fun (fill, keys) ->
      let idx = make_index ~page_size:4096 kind in
      Index_sig.bulkload idx (snd keys) ~fill;
      Index_sig.check idx;
      holds_pairs ~iter:(Index_sig.iter idx) ~search:(Index_sig.search idx) keys)

(* Every paged tree keeps its leaf pages linked both ways, and [check]
   reads the backward links too: breaking one must fail it. *)
let test_prev_link_checked kind () =
  let pool = Util.make_pool ~page_size:4096 ~capacity:16384 () in
  let idx = Fpb_experiments.Setup.make_index kind pool in
  for i = 1 to 20_000 do
    ignore (Index_sig.insert idx i i)
  done;
  let kind_byte r = Fpb_simmem.Mem.peek_u8 r 0 in
  let is_leaf, prev, next =
    match kind with
    | Fpb_experiments.Setup.Disk_opt | Micro -> ((fun r -> kind_byte r = 1), 4, 8)
    | Disk_first -> ((fun r -> kind_byte r = 0), 4, 8)
    | Cache_first -> ((fun r -> kind_byte r = 0), 8, 4)
  in
  Util.expect_prev_link_caught pool ~is_leaf ~prev ~next (fun () ->
      Index_sig.check idx)

(* --- Suite ------------------------------------------------------------------ *)

let per_kind_cases =
  List.concat_map
    (fun (name, kind) ->
      [
        Alcotest.test_case (name ^ ": empty tree") `Quick (test_empty kind);
        Alcotest.test_case (name ^ ": single key") `Quick (test_single kind);
        Alcotest.test_case (name ^ ": bulkload basics") `Quick (test_bulkload_basics kind);
        Alcotest.test_case (name ^ ": bulkload rejects bad fill") `Quick
          (test_bulkload_rejects kind);
        Alcotest.test_case (name ^ ": scan boundaries") `Quick (test_scan_boundaries kind);
        Alcotest.test_case (name ^ ": descending inserts") `Quick
          (test_descending_inserts kind);
        Alcotest.test_case (name ^ ": sentinel key rejected") `Quick
          (test_sentinel_rejected kind);
        Alcotest.test_case (name ^ ": prefetch scan equivalence") `Quick
          (test_prefetch_scan_equiv kind);
        Alcotest.test_case (name ^ ": check reads prev links") `Quick
          (test_prev_link_checked kind);
        model_test name kind;
        model_test_bulk name kind;
        bulkload_prop name kind;
      ])
    kinds

(* A scan charges a cache-line window of entries after their callbacks,
   so a callback that charged simulated time would run ahead of loads it
   should follow; the walk refuses it. *)
let test_scan_rejects_charging_callback () =
  let module D = Fpb_core.Disk_first in
  let pool = Util.make_pool ~page_size:4096 ~capacity:16384 () in
  let t = D.create pool in
  D.bulkload t (Array.init 1000 (fun i -> (i, i))) ~fill:0.7;
  let sim = Fpb_storage.Buffer_pool.sim pool in
  let charge _ _ = Fpb_simmem.Sim.charge_busy sim 1 in
  let refused = Invalid_argument "Mem.walk_pairs: the callback charged simulated time" in
  Alcotest.check_raises "forward" refused (fun () ->
      ignore (D.range_scan t ~start_key:10 ~end_key:500 charge))

(* --- Disk-first I/O prefetch stream ----------------------------------------- *)

(* A scan reads its keys through sibling links, so the output oracle
   cannot see a jump-pointer cursor that starts one entry off.  These
   tests check the prefetch stream itself: from a pool where no page is
   resident, every leaf page after a scan's first page, up to its last
   (end) page, is prefetched exactly once and read as a prefetch hit, and
   nothing else is prefetched. *)

module Df = Fpb_core.Disk_first
module Bp = Fpb_storage.Buffer_pool

type scan_bed = {
  t : Df.t;
  pool : Bp.t;
  trace : Fpb_obs.Trace.t;
  keys : int array;  (* every key, ascending *)
  leaves : int array;  (* leaf pages in key order *)
  first : int array;  (* [keys] index of each leaf page's first key *)
  paths : int list array;  (* nonleaf pages above each leaf, root first *)
  index_of : (int, int) Hashtbl.t;  (* leaf page -> position in [leaves] *)
}

(* The pages a search for [key] visits, root first: its trace's
   node_access events. *)
let path_of t trace key =
  Fpb_obs.Trace.clear trace;
  ignore (Df.search t key);
  List.map
    (fun e ->
      match List.assoc "page" e.Fpb_obs.Trace.ev_attrs with
      | Fpb_obs.Json.Int p -> p
      | _ -> assert false)
    (Fpb_obs.Trace.events trace)

let split_last l =
  match List.rev l with last :: rev_up -> (List.rev rev_up, last) | [] -> assert false

(* A tree and its leaf pages.  Each leaf page holds a contiguous run of
   keys, so the end of each run is found by binary search. *)
let make_scan_bed ~n ~fill ~inserts =
  let pool = Util.make_pool ~page_size:4096 ~capacity:16384 () in
  let t = Df.create pool in
  Df.bulkload t (Array.init n (fun i -> (2 * i, i))) ~fill;
  let rng = Fpb_workload.Prng.create 7 in
  for _ = 1 to inserts do
    let k = (2 * Fpb_workload.Prng.int rng n) + 1 in
    ignore (Df.insert t k k)
  done;
  Df.check t;
  let keys = ref [] in
  Df.iter t (fun k _ -> keys := k :: !keys);
  let keys = Array.of_list (List.rev !keys) in
  let trace = Fpb_obs.Trace.create () in
  Level_acc.set_trace (Df.level_acc t) (Some trace);
  let leaf_of k = snd (split_last (path_of t trace k)) in
  let runs = ref [] and i = ref 0 in
  while !i < Array.length keys do
    let up, leaf = split_last (path_of t trace keys.(!i)) in
    let lo = ref !i and hi = ref (Array.length keys - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if leaf_of keys.(mid) = leaf then lo := mid else hi := mid - 1
    done;
    runs := (leaf, !i, up) :: !runs;
    i := !lo + 1
  done;
  let runs = Array.of_list (List.rev !runs) in
  let leaves = Array.map (fun (l, _, _) -> l) runs in
  let index_of = Hashtbl.create 1024 in
  Array.iteri (fun i l -> Hashtbl.replace index_of l i) leaves;
  {
    t; pool; trace; keys; leaves; index_of;
    first = Array.map (fun (_, f, _) -> f) runs;
    paths = Array.map (fun (_, _, p) -> p) runs;
  }

(* Bulkloaded at 30 % fill: 141 entries a page, so three leaf-parent
   pages of three full in-page leaf nodes each. *)
let bulk_bed = lazy (make_scan_bed ~n:40_000 ~fill:0.3 ~inserts:0)

(* Mature: one full leaf-parent page over 300 full leaf pages, then
   inserts that split most leaf pages, the leaf-parent's in-page leaf
   nodes and the leaf-parent page itself. *)
let mature_bed = lazy (make_scan_bed ~n:141_000 ~fill:1.0 ~inserts:700)

let n_leaves bed = Array.length bed.leaves
let first_key bed i = bed.keys.(bed.first.(i))

let last_key bed i =
  let next = if i + 1 < n_leaves bed then bed.first.(i + 1) else Array.length bed.keys in
  bed.keys.(next - 1)

(* Scan [a, b] from a pool with nothing resident and compare the pool's
   counters with the stream the leaf pages dictate.  Cold, every nonleaf
   page the scan touches (both descents, and each leaf-parent the cursor
   walks) misses once; of the leaf pages, only the page the scan starts
   on and a page it reads past the range's last page may miss. *)
let stream_exact bed a b =
  let ia = Hashtbl.find bed.index_of (snd (split_last (path_of bed.t bed.trace a))) in
  let ib = Hashtbl.find bed.index_of (snd (split_last (path_of bed.t bed.trace b))) in
  let nonleaf = Hashtbl.create 16 in
  let add p = Hashtbl.replace nonleaf p () in
  List.iter add bed.paths.(ia);
  List.iter add bed.paths.(ib);
  for i = ia to ib do
    add (snd (split_last bed.paths.(i)))
  done;
  let read_past = ib + 1 < n_leaves bed && last_key bed ib <= b in
  let want_keys =
    Array.fold_left (fun n k -> if k >= a && k <= b then n + 1 else n) 0 bed.keys
  in
  Bp.clear bed.pool;
  let s = Bp.stats bed.pool in
  let v = Fpb_obs.Counter.value in
  let snap () = (v s.Bp.prefetch_issued, v s.prefetch_hits, v s.misses, v s.prefetch_dropped) in
  let i0, h0, m0, d0 = snap () in
  let got = Df.range_scan bed.t ~start_key:a ~end_key:b (fun _ _ -> ()) in
  let i1, h1, m1, d1 = snap () in
  got = want_keys
  && i1 - i0 = ib - ia
  && h1 - h0 = ib - ia
  && m1 - m0 = Hashtbl.length nonleaf + 1 + Bool.to_int read_past
  && d1 = d0

(* A range starting at one key and spanning [span] leaf pages from it.
   The anchor is a random key or the first or last key of a leaf page;
   the far end is [off] keys into the far page, nudged by [nudge] so it
   may miss. *)
let range_of bed ~anchor ~span ~off ~nudge =
  let nk = Array.length bed.keys in
  let key_at i = bed.keys.(max 0 (min (nk - 1) i)) in
  let a =
    match anchor with
    | `Key x -> (x mod (bed.keys.(nk - 1) + 10)) - 5
    | `First i -> first_key bed (i mod n_leaves bed)
    | `Last i -> last_key bed (i mod n_leaves bed)
  in
  let ia = Hashtbl.find bed.index_of (snd (split_last (path_of bed.t bed.trace a))) in
  let j = max 0 (min (n_leaves bed - 1) (ia + span)) in
  let far = key_at (bed.first.(j) + off) + nudge in
  (min a far, max a far)

let prop_prefetch_stream_exact =
  Util.qtest ~count:150 "disk_first: scan prefetch stream is exact"
    QCheck2.Gen.(
      pair
        (pair bool
           (oneof
              [
                map (fun x -> `Key x) (0 -- 1_000_000);
                map (fun i -> `First i) (0 -- 10_000);
                map (fun i -> `Last i) (0 -- 10_000);
              ]))
        (triple (frequency [ (1, return 0); (3, 0 -- 40) ]) (0 -- 500) (-1 -- 1)))
    (fun ((mature, anchor), (span, off, nudge)) ->
      let bed = Lazy.force (if mature then mature_bed else bulk_bed) in
      let a, b = range_of bed ~anchor ~span ~off ~nudge in
      stream_exact bed a b)

(* Every leaf page as the first page of a scan, so the jump-pointer
   cursor starts on every entry of every in-page leaf-parent node and
   every leaf-parent page. *)
let test_prefetch_stream_every_leaf () =
  List.iter
    (fun (name, bed) ->
      let bed = Lazy.force bed in
      for i = 0 to n_leaves bed - 1 do
        List.iter
          (fun anchor ->
            let a, b = range_of bed ~anchor ~span:2 ~off:1 ~nudge:0 in
            if not (stream_exact bed a b) then
              Alcotest.failf "%s: scan [%d, %d]" name a b)
          [ `First i; `Last i ]
      done)
    [ ("bulkloaded", bulk_bed); ("mature", mature_bed) ]

let suite =
  per_kind_cases
  @ [
      pb_bulkload_prop;
      Alcotest.test_case "disk_first: scan rejects a charging callback" `Quick
        test_scan_rejects_charging_callback;
      prop_prefetch_stream_exact;
      Alcotest.test_case "disk_first: prefetch stream from every leaf" `Quick
        test_prefetch_stream_every_leaf;
    ]
