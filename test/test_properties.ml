(* Cross-cutting property tests: equivalence between index structures,
   behaviour under buffer-pool pressure, and model tests for the smaller
   data structures. *)

open Fpb_btree_common
module M = Map.Make (Int)

(* --- All four indexes agree with each other -------------------------------- *)

let prop_indexes_equivalent =
  Util.qtest ~count:15 "all four indexes give identical answers"
    QCheck2.Gen.(
      pair (1 -- 2000)
        (list_size (return 200)
           (pair (0 -- 3) (pair (0 -- 4000) (0 -- 1000)))))
    (fun (n, ops) ->
      let make kind =
        let pool = Util.make_pool ~page_size:4096 ~capacity:16384 () in
        let idx = Fpb_experiments.Setup.make_index kind pool in
        Index_sig.bulkload idx (Array.init n (fun i -> (2 * i, i))) ~fill:0.8;
        idx
      in
      let idxs = List.map make Fpb_experiments.Setup.all_kinds in
      List.for_all
        (fun (op, (k, v)) ->
          let results =
            List.map
              (fun idx ->
                match op with
                | 0 -> `I (Index_sig.insert idx k v)
                | 1 -> `D (Index_sig.delete idx k)
                | 2 -> `S (Index_sig.search idx k)
                | _ ->
                    let acc = ref 0 in
                    ignore
                      (Index_sig.range_scan idx ~start_key:k ~end_key:(k + v)
                         (fun _ _ -> incr acc));
                    `N !acc)
              idxs
          in
          match results with
          | first :: rest -> List.for_all (( = ) first) rest
          | [] -> true)
        ops)

(* --- search_batch ≡ Array.map search, on all four indexes ------------------ *)

(* Probes drawn from twice the key range, so roughly half are absent;
   the small range makes in-batch duplicates common.  A handful of
   random inserts first, so the batch also runs against non-bulkloaded
   shapes (split pages, updated slots). *)
let prop_search_batch_equiv =
  Util.qtest ~count:15 "search_batch ≡ Array.map search on all four indexes"
    QCheck2.Gen.(
      triple (1 -- 2000)
        (list_size (0 -- 30) (pair (0 -- 4000) (0 -- 1000)))
        (list_size (0 -- 100) (0 -- 4000)))
    (fun (n, inserts, probes) ->
      let keys = Array.of_list probes in
      List.for_all
        (fun kind ->
          let pool = Util.make_pool ~page_size:4096 ~capacity:16384 () in
          let idx = Fpb_experiments.Setup.make_index kind pool in
          Index_sig.bulkload idx
            (Array.init n (fun i -> (2 * i, i)))
            ~fill:0.8;
          List.iter (fun (k, v) -> ignore (Index_sig.insert idx k v)) inserts;
          let want = Array.map (fun k -> Index_sig.search idx k) keys in
          Index_sig.search_batch idx keys = want)
        Fpb_experiments.Setup.all_kinds)

(* A wave fetches each shared node once: however many probes a batch
   holds, the root is charged exactly one level-0 access. *)
let test_batch_one_root_access kind () =
  let pool = Util.make_pool ~page_size:4096 ~capacity:16384 () in
  let idx = Fpb_experiments.Setup.make_index kind pool in
  Index_sig.bulkload idx (Array.init 5_000 (fun i -> (2 * i, i))) ~fill:0.8;
  Index_sig.reset_level_accesses idx;
  let keys = Array.init 16 (fun i -> 2 * ((i * 311) mod 5_000)) in
  let got = Index_sig.search_batch idx keys in
  Array.iteri
    (fun i k ->
      Alcotest.(check (option int))
        (Printf.sprintf "probe %d" i)
        (Some (k / 2)) got.(i))
    keys;
  Alcotest.(check int)
    "one root access for the whole batch" 1
    (Index_sig.level_accesses idx).(0);
  (* The singleton discipline charges one per probe. *)
  Index_sig.reset_level_accesses idx;
  Array.iter (fun k -> ignore (Index_sig.search idx k)) keys;
  Alcotest.(check int)
    "16 root accesses for 16 singleton probes" 16
    (Index_sig.level_accesses idx).(0)

(* The exact simulated cost of one fixed 64-probe batch, pinned so a
   refactor of the wave walker cannot change what it charges.  Each
   result is [sim ns; waves; shared_nodes; dup_probes; pipeline_stalls]
   followed by [level_accesses].  The 8-frame pool cannot pin a whole
   leaf frontier, so that batch takes the [Overloaded] split path. *)
let batch_cost kind ~capacity =
  let pool = Util.make_pool ~page_size:4096 ~capacity () in
  let idx = Fpb_experiments.Setup.make_index kind pool in
  Index_sig.bulkload idx (Array.init 20_000 (fun i -> (2 * i, i))) ~fill:0.8;
  let keys = Array.init 64 (fun i -> i * i * 37 mod 40_000) in
  let sim = Fpb_storage.Buffer_pool.sim pool in
  let counters () =
    Fpb_obs.Histogram.count Batch_stats.size
    :: List.map Fpb_obs.Counter.value
         [ Batch_stats.shared_nodes; Batch_stats.dup_probes;
           Batch_stats.pipeline_stalls ]
  in
  Index_sig.reset_level_accesses idx;
  let c0 = counters () and t0 = Fpb_simmem.Sim.now sim in
  let got = Index_sig.search_batch idx keys in
  let cost =
    ((Fpb_simmem.Sim.now sim - t0) :: List.map2 ( - ) (counters ()) c0)
    @ Array.to_list (Index_sig.level_accesses idx)
  in
  Array.iteri
    (fun i k ->
      Alcotest.(check (option int))
        (Printf.sprintf "probe %d" k)
        (if k mod 2 = 0 then Some (k / 2) else None)
        got.(i))
    keys;
  cost

let test_batch_cost_pinned kind ~roomy ~tiny () =
  Alcotest.(check (list int)) "roomy pool" roomy (batch_cost kind ~capacity:16384);
  Alcotest.(check (list int)) "8-frame pool" tiny (batch_cost kind ~capacity:8)

(* The exact simulated cost of one fixed scan, from a pool with nothing
   resident, pinned so a change to what a scan charges has to be
   deliberate.  [scan] runs one scan of index [M] with prefetching on; the
   range crosses a leaf-parent page boundary.  Each result is [sim ns;
   busy cycles; stall cycles; L1 hits; pool hits; prefetches issued;
   prefetch hits] followed by [level_accesses]. *)
let scan_cost (type a) (module M : Index_sig.S with type t = a)
    ~(scan : a -> start_key:int -> end_key:int -> (int -> int -> unit) -> int) =
  let module Bp = Fpb_storage.Buffer_pool in
  let pool = Util.make_pool ~page_size:4096 ~capacity:16384 () in
  let t = M.create pool in
  M.bulkload t (Array.init 40_000 (fun i -> (2 * i, i))) ~fill:0.3;
  Bp.clear pool;
  Level_acc.reset (M.level_acc t);
  let sim = Bp.sim pool and s = Bp.stats pool in
  let st = sim.Fpb_simmem.Sim.stats in
  let counters () =
    Fpb_simmem.Sim.now sim
    :: List.map Fpb_obs.Counter.value
         [ st.Fpb_simmem.Stats.busy; st.stall; st.l1_hits; s.Bp.hits;
           s.prefetch_issued; s.prefetch_hits ]
  in
  let c0 = counters () in
  let n = scan t ~start_key:30_001 ~end_key:50_001 (fun _ _ -> ()) in
  Alcotest.(check int) "keys scanned" 10_000 n;
  List.map2 ( - ) (counters ()) c0
  @ Array.to_list (Level_acc.counts (M.level_acc t) ~levels:(M.height t))

let test_scan_cost_pinned pins () =
  List.iter
    (fun (label, want, cost) -> Alcotest.(check (list int)) label want (cost ()))
    pins

(* Per index: [(direction, pinned cost, scan)]. *)
let scan_pins =
  let module Db = Fpb_disk_btree.Disk_btree in
  let module Mi = Fpb_micro_index.Micro_index in
  let module Df = Fpb_core.Disk_first in
  let module Cf = Fpb_core.Cache_first in
  [
    ( "disk_opt",
      [
        ( "forward",
          [ 64857560; 142390; 200595; 18966; 68; 65; 65; 2; 2; 68 ],
          fun () -> scan_cost (module Db) ~scan:(Db.range_scan ~prefetch:true) );
      ] );
    ( "micro",
      [
        ( "forward",
          [ 65059967; 144193; 215005; 18878; 69; 66; 66; 2; 2; 69 ],
          fun () -> scan_cost (module Mi) ~scan:(Mi.range_scan ~prefetch:true) );
      ] );
    ( "disk_first",
      [
        ( "forward",
          [ 65258383; 158062; 50261; 22463; 72; 71; 71; 2; 2; 72 ],
          fun () -> scan_cost (module Df) ~scan:(Df.range_scan ~prefetch:true) );
      ] );
    ( "cache_first",
      [
        ( "forward",
          [ 73548876; 153378; 44286; 21622; 71; 67; 67; 2; 2; 2; 478 ],
          fun () -> scan_cost (module Cf) ~scan:(Cf.range_scan ~prefetch:true) );
      ] );
  ]

(* --- Correctness under a thrashing buffer pool ----------------------------- *)

let test_tiny_pool kind () =
  (* a small pool forces constant eviction mid-operation (cache-first pins
     the most pages at once during a leaf-page split: page, new page,
     parent-walk page, sibling pages, jump-pointer chunks) *)
  let capacity = if kind = Fpb_experiments.Setup.Cache_first then 16 else 12 in
  let pool = Util.make_pool ~page_size:4096 ~capacity () in
  let idx = Fpb_experiments.Setup.make_index kind pool in
  let m = ref M.empty in
  let rng = Fpb_workload.Prng.create 61 in
  for _ = 1 to 6000 do
    let k = Fpb_workload.Prng.int rng 50_000 in
    ignore (Index_sig.insert idx k k);
    m := M.add k k !m
  done;
  Index_sig.check idx;
  for _ = 1 to 500 do
    let k = Fpb_workload.Prng.int rng 60_000 in
    Alcotest.(check (option int))
      (Printf.sprintf "search %d" k)
      (M.find_opt k !m) (Index_sig.search idx k)
  done;
  let count = ref 0 in
  ignore
    (Index_sig.range_scan idx ~start_key:min_int ~end_key:max_int (fun _ _ ->
         incr count));
  Alcotest.(check int) "full scan under thrash" (M.cardinal !m) !count;
  (* Batched lookups under the same pressure: a wide wave's frontier can
     outgrow the pool, forcing the Overloaded split-and-retry path all
     the way down to singleton descents. *)
  let keys = Array.make 600 0 in
  for i = 0 to 599 do
    keys.(i) <- Fpb_workload.Prng.int rng 60_000
  done;
  let got = Index_sig.search_batch idx keys in
  Array.iteri
    (fun i k ->
      Alcotest.(check (option int))
        (Printf.sprintf "batch search %d" k)
        (M.find_opt k !m) got.(i))
    keys

(* --- Jump-pointer array vs list model --------------------------------------- *)

let prop_jump_array_model =
  Util.qtest ~count:40 "jump array behaves like a list"
    QCheck2.Gen.(pair (1 -- 60) (list_size (0 -- 40) (0 -- 1000)))
    (fun (initial, insert_positions) ->
      let pool = Util.make_pool ~page_size:4096 () in
      let store = Fpb_storage.Buffer_pool.store pool in
      let jp = Fpb_core.Jump_array.create pool in
      let chunk_of = Hashtbl.create 64 in
      let on_assign pg ~chunk = Hashtbl.replace chunk_of pg chunk in
      let pages = Array.init initial (fun _ -> Fpb_storage.Page_store.alloc store) in
      Fpb_core.Jump_array.build jp pages ~fill:0.9 ~on_assign;
      let model = ref (Array.to_list pages) in
      List.iter
        (fun pos ->
          let after = List.nth !model (pos mod List.length !model) in
          let np = Fpb_storage.Page_store.alloc store in
          Fpb_core.Jump_array.insert_after jp
            ~chunk:(Hashtbl.find chunk_of after)
            ~after_page:after ~new_page:np ~on_assign;
          let rec ins = function
            | [] -> [ np ]
            | x :: rest when x = after -> x :: np :: rest
            | x :: rest -> x :: ins rest
          in
          model := ins !model)
        insert_positions;
      Fpb_core.Jump_array.peek_all jp = !model)

(* --- Slotted node vs sorted association list -------------------------------- *)

let prop_slotted_model =
  Util.qtest ~count:60 "slotted node behaves like a sorted assoc list"
    QCheck2.Gen.(list_size (0 -- 60) (pair (string_size ~gen:(char_range 'a' 'f') (1 -- 8)) (0 -- 100)))
    (fun kvs ->
      let sim = Fpb_simmem.Sim.create () in
      let r = Fpb_simmem.Mem.make ~bytes:(Bytes.create 4096) ~base:0 in
      let nd = { Fpb_varkey.Slotted.r; off = 0; size = 4096 } in
      Fpb_varkey.Slotted.init sim nd ~leaf:true;
      let model = ref [] in
      List.iter
        (fun (k, v) ->
          let i = Fpb_varkey.Slotted.find sim nd ~key:k `Lower in
          let dup =
            i < Fpb_varkey.Slotted.count sim nd
            && Fpb_varkey.Slotted.key_at sim nd i = k
          in
          if dup then Fpb_varkey.Slotted.set_ptr_at sim nd i v
          else ignore (Fpb_varkey.Slotted.insert_at sim nd ~i k v);
          model := (k, v) :: List.remove_assoc k !model)
        kvs;
      let want = List.sort compare !model in
      Fpb_varkey.Slotted.entries sim nd = want)

(* --- Tuner stability over page sizes ----------------------------------------- *)

let prop_indexes_work_at_64kb =
  Util.qtest ~count:5 "indexes work at 64KB pages (beyond Table 2)"
    QCheck2.Gen.(0 -- 1000)
    (fun seed ->
      let rng = Fpb_workload.Prng.create seed in
      List.for_all
        (fun kind ->
          let pool = Util.make_pool ~page_size:65536 ~capacity:4096 () in
          let idx = Fpb_experiments.Setup.make_index kind pool in
          Index_sig.bulkload idx (Array.init 30_000 (fun i -> (2 * i, i))) ~fill:0.9;
          (* Odd keys only: the bulkloaded pairs are (2i, i), so a random
             even key could overwrite the probe key's value and flake the
             final search assertion. *)
          for _ = 1 to 200 do
            ignore
              (Index_sig.insert idx ((2 * Fpb_workload.Prng.int rng 50_000) + 1) 1)
          done;
          Index_sig.check idx;
          Index_sig.search idx 2000 = Some 1000)
        Fpb_experiments.Setup.all_kinds)

(* --- Held frames on a 3-frame pool ------------------------------------------ *)

(* Every paged tree pins its nonleaf pages, root included, through the
   frames its handle remembers.  On a 3-frame pool those frames are
   evicted all the time, and [Buffer_pool.clear] between operations
   empties them outright, so a stale frame that were trusted would serve
   another page's bytes.  Each tree grows from empty by [n] inserts in a
   shuffled order, the pool cleared every [period] of them, through leaf,
   nonleaf and root splits to at least 3 page levels (1 KB pages).  It is
   then checked against a Map model after every operation it offers, and
   with [check].  Operation 6 replays a search from a cold pool as two
   clients starting at one simulated time: when the second pins the
   root, the first's read of it cannot have landed, so at most the
   nonleaf pages below the root can be its held hits. *)
let held_ops =
  QCheck2.Gen.(
    quad (13_000 -- 16_000) (50 -- 2_000) (0 -- 1_000)
      (list_size (10 -- 80) (triple (0 -- 6) (0 -- 33_000) (0 -- 60))))

let held_pool () = Util.make_pool ~page_size:1024 ~capacity:3 ()

(* The keys [0, 2, .. 2(n-1)] in a shuffled order. *)
let shuffled_keys n seed =
  let keys = Array.init n (fun i -> 2 * i) in
  Fpb_workload.Prng.shuffle (Fpb_workload.Prng.create seed) keys;
  keys

(* [search k] from a cold pool as client A, then again as client B
   replayed at A's start.  Returns both results and B's held hits. *)
let replay_cold pool search k =
  let module Bp = Fpb_storage.Buffer_pool in
  let clock = (Bp.sim pool).Fpb_simmem.Sim.clock in
  let held () = Fpb_obs.Counter.value (Bp.stats pool).Bp.held_hits in
  Bp.clear pool;
  let t0 = Fpb_simmem.Clock.now clock in
  Fpb_simmem.Clock.set clock t0;
  let a = search k in
  let t1 = Fpb_simmem.Clock.now clock in
  Fpb_simmem.Clock.set clock t0;
  let h0 = held () in
  let b = search k in
  let h = held () - h0 in
  Fpb_simmem.Clock.join clock (max t1 (Fpb_simmem.Clock.now clock));
  (a, b, h)

let prop_held_int =
  Util.qtest ~count:8 "held roots on a 3-frame pool: four int-key trees"
    held_ops
    (fun (n, period, seed, ops) ->
      List.for_all
        (fun kind ->
          let pool = held_pool () in
          let idx = Fpb_experiments.Setup.make_index kind pool in
          let m = ref M.empty in
          let grown =
            Array.to_list (shuffled_keys n seed)
            |> List.mapi (fun i k ->
                   if i mod period = 0 then Fpb_storage.Buffer_pool.clear pool;
                   m := M.add k i !m;
                   Index_sig.insert idx k i = `Inserted)
            |> List.for_all Fun.id
          in
          if Index_sig.height idx < 3 then
            QCheck2.Test.fail_reportf "%s: %d keys grew only %d levels"
              (Index_sig.name idx) n (Index_sig.height idx);
          let ok =
            List.for_all
              (fun (op, k, x) ->
                match op with
                | 0 ->
                    let fresh = not (M.mem k !m) in
                    m := M.add k x !m;
                    Index_sig.insert idx k x
                    = if fresh then `Inserted else `Updated
                | 1 ->
                    let had = M.mem k !m in
                    m := M.remove k !m;
                    Index_sig.delete idx k = had
                | 2 -> Index_sig.search idx k = M.find_opt k !m
                | 3 ->
                    let got = ref [] in
                    let cnt =
                      Index_sig.range_scan idx ~start_key:k ~end_key:(k + (10 * x))
                        (fun k v -> got := (k, v) :: !got)
                    in
                    let want =
                      M.bindings (M.filter (fun key _ -> key >= k && key <= k + (10 * x)) !m)
                    in
                    cnt = List.length want && List.rev !got = want
                | 4 ->
                    let keys = Array.init (1 + (x mod 20)) (fun i -> k + (7 * i)) in
                    Index_sig.search_batch idx keys
                    = Array.map (fun key -> M.find_opt key !m) keys
                | 5 ->
                    Fpb_storage.Buffer_pool.clear pool;
                    true
                | _ ->
                    let want = M.find_opt k !m in
                    let a, b, held = replay_cold pool (Index_sig.search idx) k in
                    a = want && b = want && held <= Index_sig.height idx - 2)
              ops
          in
          Index_sig.check idx;
          let all = ref [] in
          Index_sig.iter idx (fun k v -> all := (k, v) :: !all);
          grown && ok && List.rev !all = M.bindings !m)
        Fpb_experiments.Setup.all_kinds)

(* --- Held nonleaf pages: what a resident search costs ----------------------- *)

(* The pages [search idx key] visits, in descent order, consecutive
   repeats (cache-first nodes sharing a page) merged. *)
let search_pages idx key =
  let tr = Fpb_obs.Trace.create () in
  Index_sig.set_trace idx (Some tr);
  ignore (Index_sig.search idx key);
  Index_sig.set_trace idx None;
  List.fold_left
    (fun acc e ->
      match (List.assoc "page" e.Fpb_obs.Trace.ev_attrs, acc) with
      | Fpb_obs.Json.Int p, q :: _ when p = q -> acc
      | Fpb_obs.Json.Int p, _ -> p :: acc
      | _ -> acc)
    [] (Fpb_obs.Trace.events tr)
  |> List.rev

(* In a resident 3-page-level tree, a search pins its root and every
   nonleaf page below it through held frames and calls the buffer
   manager once, for its leaf.  Each held pin below the root saves a
   call and a latch less its two validation loads: [root_only], the busy
   cycles of the same search when only the root was held, less that
   saving per nonleaf page below the root.  Cache-first's leaf pin
   checks the memo for the leaf's frame before its buffer-manager call,
   two more loads; its hint's prefetches replace the leaf node's own.  A
   batch whose probes share one path pins each nonleaf level as a held
   hit too. *)
let test_held_search_cost kind ~root_only () =
  let module Bp = Fpb_storage.Buffer_pool in
  let pool = Util.make_pool ~page_size:4096 ~capacity:16384 () in
  let idx = Fpb_experiments.Setup.make_index kind pool in
  Index_sig.bulkload idx (Array.init 40_000 (fun i -> (2 * i, i))) ~fill:0.3;
  let key = 50_000 in
  (* the first search teaches the handle its path's frames *)
  let pages = List.length (search_pages idx key) in
  Alcotest.(check bool) "3 page levels" true (pages = 3);
  if kind <> Fpb_experiments.Setup.Cache_first then
    Alcotest.(check int) "height" pages (Index_sig.height idx);
  let sim = Bp.sim pool and s = Bp.stats pool in
  let cost = sim.Fpb_simmem.Sim.cost in
  let cv = Fpb_obs.Counter.value in
  let counts () =
    ( cv s.Bp.held_hits,
      cv s.hits + cv s.misses + cv s.prefetch_hits,
      cv sim.Fpb_simmem.Sim.stats.Fpb_simmem.Stats.busy )
  in
  let h0, g0, b0 = counts () in
  Alcotest.(check (option int)) "found" (Some (key / 2)) (Index_sig.search idx key);
  let h1, g1, b1 = counts () in
  Alcotest.(check int) "held hits: one per nonleaf page" (pages - 1) (h1 - h0);
  Alcotest.(check int) "buffer-manager calls: the leaf's" 1 (g1 - g0);
  let saving =
    cost.Fpb_simmem.Cost_model.c_bufcall + cost.latch_cycles - (2 * cost.c_access)
  in
  let leaf_check =
    if kind = Fpb_experiments.Setup.Cache_first then 2 * cost.c_access else 0
  in
  Alcotest.(check int) "busy cycles"
    (root_only - (saving * (pages - 2)) + leaf_check)
    (b1 - b0);
  let keys = [| key; key + 2; key + 4 |] in
  Alcotest.(check (array (option int))) "batch found"
    (Array.map (fun k -> Some (k / 2)) keys)
    (Index_sig.search_batch idx keys);
  let h2, g2, _ = counts () in
  Alcotest.(check int) "batch: one held hit per nonleaf level"
    (Index_sig.height idx - 1) (h2 - h1);
  Alcotest.(check int) "batch: one buffer-manager call, the leaf's" 1 (g2 - g1)

(* On a resident cache-first tree, a leaf pin whose memo still holds the
   leaf page's frame prefetches the leaf node's lines before its
   buffer-manager call, so the search stalls less than the same search
   once the page was evicted and read back into another frame: there
   the stale memo entry issues no hint.  Each measured search starts
   from an empty CPU cache.  Whether a pin hinted is read off a leaf
   [Bp.pin] of the leaf page through a second memo, taught when the
   tree's was: the hint requests the span's first line in the frame the
   memo remembers before the call, so that line has landed when it is
   read right after the pin; a line requested after the call, or never,
   stalls. *)
let test_leaf_hint () =
  let module Bp = Fpb_storage.Buffer_pool in
  let pool = Util.make_pool ~page_size:4096 ~capacity:16384 () in
  let idx =
    Fpb_experiments.Setup.make_index Fpb_experiments.Setup.Cache_first pool
  in
  Index_sig.bulkload idx (Array.init 40_000 (fun i -> (2 * i, i))) ~fill:0.3;
  let key = 50_000 in
  (* the first search teaches the handle its path's frames *)
  let path = search_pages idx key in
  let leaf = List.nth path (List.length path - 1) in
  let sim = Bp.sim pool in
  let touch p =
    let r = Bp.get pool p in
    Bp.unpin pool p;
    r.Fpb_simmem.Mem.base
  in
  let stall () =
    Fpb_obs.Counter.value sim.Fpb_simmem.Sim.stats.Fpb_simmem.Stats.stall
  in
  let probe = Bp.held () and remembered = ref 0 in
  let pin_leaf () =
    let r = Bp.pin pool probe leaf ~leaf:true ~off:0 ~len:512 in
    Bp.unpin pool leaf;
    remembered := r.Fpb_simmem.Mem.base
  in
  pin_leaf ();
  let hinted () =
    Fpb_simmem.Sim.flush_cache sim;
    let line = Fpb_simmem.Mem.make ~bytes:(Bytes.make 4 '\000') ~base:!remembered in
    pin_leaf ();
    let s0 = stall () in
    ignore (Fpb_simmem.Mem.read_i32 sim line 0 : int);
    stall () = s0
  in
  let search () =
    Fpb_simmem.Sim.flush_cache sim;
    let s0 = stall () in
    Alcotest.(check (option int)) "found" (Some (key / 2)) (Index_sig.search idx key);
    let s = stall () - s0 in
    (s, hinted ())
  in
  let held_stall, held_hint = search () in
  Alcotest.(check bool) "held leaf frame: hinted" true held_hint;
  let old_base = touch leaf in
  Bp.clear pool;
  (* the path's pages back in, root first: they take the cleared pool's
     oldest frames *)
  let new_base = List.fold_left (fun _ p -> touch p) 0 path in
  Alcotest.(check bool) "the leaf came back in another frame" true
    (new_base <> old_base);
  let stale_stall, stale_hint = search () in
  Alcotest.(check bool) "stale memo entry: no hint" false stale_hint;
  if held_stall >= stale_stall then
    Alcotest.failf "hinted leaf stalled %d cycles, unhinted %d" held_stall
      stale_stall

module SM = Map.Make (String)

(* Variable-length keys of 2 to 8 bytes, so pages split after a few
   hundred inserts. *)
let vk_key k = String.make (1 + (k mod 4)) (Char.chr (97 + (k mod 26))) ^ string_of_int k

let prop_held_varkey =
  Util.qtest ~count:8 "held roots on a 3-frame pool: two varkey trees"
    held_ops
    (fun (n, period, seed, ops) ->
      let run name create insert search height check iter =
        let pool = held_pool () in
        let t = create pool in
        let m = ref SM.empty in
        let put k v =
          let fresh = not (SM.mem k !m) in
          m := SM.add k v !m;
          insert t k v = if fresh then `Inserted else `Updated
        in
        let grown =
          Array.to_list (shuffled_keys n seed)
          |> List.mapi (fun i k ->
                 if i mod period = 0 then Fpb_storage.Buffer_pool.clear pool;
                 put (vk_key k) i)
          |> List.for_all Fun.id
        in
        if height t < 3 then
          QCheck2.Test.fail_reportf "%s: %d keys grew only %d levels" name n
            (height t);
        let ok =
          List.for_all
            (fun (op, k, x) ->
              let want () = SM.find_opt (vk_key k) !m in
              match op with
              | 0 | 1 | 3 -> put (vk_key k) x
              | 2 | 4 -> search t (vk_key k) = want ()
              | 5 ->
                  Fpb_storage.Buffer_pool.clear pool;
                  true
              | _ ->
                  let a, b, held = replay_cold pool (search t) (vk_key k) in
                  a = want () && b = want () && held <= height t - 2)
            ops
        in
        check t;
        let all = ref [] in
        iter t (fun k v -> all := (k, v) :: !all);
        if not (grown && ok && List.rev !all = SM.bindings !m) then
          QCheck2.Test.fail_reportf "%s disagrees with the model" name;
        true
      in
      let module B = Fpb_varkey.Vk_btree in
      let module D = Fpb_varkey.Vk_disk_first in
      run B.name B.create B.insert B.search B.height B.check B.iter
      && run D.name (fun p -> D.create p) D.insert D.search D.height D.check D.iter)

(* A resident varkey search pins every nonleaf page through a held frame
   and calls the buffer manager once, for its leaf.  The bulkload's
   inserts taught the handle its paths; the first search re-teaches any
   nonleaf page they left it without, by a call and a latch more than a
   held hit costs. *)
let test_vk_held_search_cost create bulkload search height () =
  let module Bp = Fpb_storage.Buffer_pool in
  let pool = Util.make_pool ~page_size:1024 ~capacity:16384 () in
  let t = create pool in
  let keys = Array.init 20_000 vk_key in
  Array.sort compare keys;
  bulkload t (Array.mapi (fun i k -> (k, i)) keys);
  let levels = height t in
  Alcotest.(check bool) "3 page levels or more" true (levels >= 3);
  let sim = Bp.sim pool and s = Bp.stats pool and cv = Fpb_obs.Counter.value in
  let cost = sim.Fpb_simmem.Sim.cost in
  let counts () =
    ( cv s.Bp.held_hits,
      cv s.hits + cv s.misses + cv s.prefetch_hits,
      cv sim.Fpb_simmem.Sim.stats.Fpb_simmem.Stats.busy )
  in
  let key = keys.(12_345) in
  let _, g0, b0 = counts () in
  Alcotest.(check (option int)) "found" (Some 12_345) (search t key);
  let h1, g1, b1 = counts () in
  Alcotest.(check (option int)) "found again" (Some 12_345) (search t key);
  let h2, g2, b2 = counts () in
  Alcotest.(check int) "held hits: one per nonleaf page" (levels - 1) (h2 - h1);
  Alcotest.(check int) "buffer-manager calls: the leaf's" 1 (g2 - g1);
  Alcotest.(check int) "busy cycles: the first search's, less its fallbacks"
    (b1 - b0
    - ((g1 - g0 - 1) * (cost.Fpb_simmem.Cost_model.c_bufcall + cost.latch_cycles)))
    (b2 - b1)

let kinds =
  [
    ("disk_opt", Fpb_experiments.Setup.Disk_opt);
    ("micro", Fpb_experiments.Setup.Micro);
    ("disk_first", Fpb_experiments.Setup.Disk_first);
    ("cache_first", Fpb_experiments.Setup.Cache_first);
  ]

let suite =
  prop_indexes_equivalent :: prop_search_batch_equiv :: prop_held_int
  :: prop_held_varkey
  :: prop_jump_array_model :: prop_slotted_model :: prop_indexes_work_at_64kb
  :: List.map
       (fun (name, kind) ->
         Alcotest.test_case (name ^ ": tiny pool thrash") `Slow (test_tiny_pool kind))
       kinds
  @ List.map
      (fun (name, kind) ->
        Alcotest.test_case
          (name ^ ": one root access per batch")
          `Quick
          (test_batch_one_root_access kind))
      kinds
  @ List.map
      (fun (name, kind, roomy, tiny) ->
        Alcotest.test_case
          (name ^ ": search_batch cost pinned")
          `Quick
          (test_batch_cost_pinned kind ~roomy ~tiny))
      [
        ( "disk_opt", Fpb_experiments.Setup.Disk_opt,
          [ 25836; 1; 17; 88; 0; 1; 39 ],
          [ 231462228; 13; 27; 248; 127; 13; 43 ] );
        ( "micro", Fpb_experiments.Setup.Micro,
          [ 23978; 1; 20; 92; 0; 1; 35 ],
          [ 255756197; 13; 30; 253; 109; 13; 38 ] );
        ( "disk_first", Fpb_experiments.Setup.Disk_first,
          [ 29168; 1; 20; 91; 0; 1; 36 ],
          [ 247031291; 13; 31; 252; 113; 13; 39 ] );
        ( "cache_first", Fpb_experiments.Setup.Cache_first,
          [ 24638; 1; 19; 129; 0; 1; 8; 54 ],
          [ 286720544; 13; 58; 437; 159; 13; 39; 55 ] );
      ]
  @ List.map
      (fun (name, kind, root_only) ->
        Alcotest.test_case (name ^ ": held nonleaf pages, exact search cost")
          `Quick
          (test_held_search_cost kind ~root_only))
      [
        ("disk_opt", Fpb_experiments.Setup.Disk_opt, 667);
        ("micro", Fpb_experiments.Setup.Micro, 681);
        ("disk_first", Fpb_experiments.Setup.Disk_first, 749);
        ("cache_first", Fpb_experiments.Setup.Cache_first, 725);
      ]
  @ (let module B = Fpb_varkey.Vk_btree in
     let module D = Fpb_varkey.Vk_disk_first in
     [
       Alcotest.test_case "vk_btree: held nonleaf pages, exact search cost"
         `Quick
         (test_vk_held_search_cost B.create B.bulkload B.search B.height);
       Alcotest.test_case "vk_disk_first: held nonleaf pages, exact search cost"
         `Quick
         (test_vk_held_search_cost (fun p -> D.create p) D.bulkload D.search
            D.height);
     ])
  @ [ Alcotest.test_case "cache_first: leaf hint from a held frame" `Quick
        test_leaf_hint ]
  @ List.map
      (fun (name, pins) ->
        Alcotest.test_case (name ^ ": range scan cost pinned") `Quick
          (test_scan_cost_pinned pins))
      scan_pins
