(* Unit tests for the storage substrate: page store, disk model, buffer
   pool (SIEVE, pinning, prefetchers, failure injection). *)

open Fpb_simmem
open Fpb_storage
module Driver = Fpb_workload.Driver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let cv = Fpb_obs.Counter.value

let test_vec () =
  let v = Vec.create ~dummy:0 in
  for i = 0 to 99 do
    Vec.push v i
  done;
  check_int "length" 100 (Vec.length v);
  check_int "get" 42 (Vec.get v 42);
  Vec.set v 42 (-1);
  check_int "set" (-1) (Vec.get v 42);
  let sum = ref 0 in
  Vec.iteri (fun i x -> sum := !sum + i + x) v;
  Alcotest.(check bool) "iteri" true (!sum > 0);
  Alcotest.check_raises "oob" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 100))

let test_page_store_alloc_free () =
  let s = Page_store.create ~page_size:4096 ~n_disks:3 in
  let a = Page_store.alloc s in
  let b = Page_store.alloc s in
  let c = Page_store.alloc s in
  Alcotest.(check bool) "ids distinct & non-nil" true
    (a <> b && b <> c && a <> Page_store.nil);
  check_int "live" 3 (Page_store.live_pages s);
  (* pages stripe round-robin across disks *)
  let da, _ = Page_store.location s a in
  let db, _ = Page_store.location s b in
  let dc, _ = Page_store.location s c in
  Alcotest.(check (list int)) "striping" [ 0; 1; 2 ] [ da; db; dc ];
  Bytes.set (Page_store.bytes s b) 0 'x';
  Page_store.free s b;
  check_int "live after free" 2 (Page_store.live_pages s);
  let b' = Page_store.alloc s in
  check_int "freed page reused" b b';
  Alcotest.(check char) "reused page zeroed" '\000' (Bytes.get (Page_store.bytes s b') 0)

let test_disk_model () =
  let clock = Clock.create () in
  let d = Disk_model.create ~transfer_ns:100 ~n_disks:2 clock in
  let random = Disk_model.default_seek_ns + 100 in
  let c1 = Disk_model.read d ~disk:0 ~phys:5 () in
  check_int "random read = seek+transfer" random c1;
  let c2 = Disk_model.read d ~disk:0 ~phys:6 () in
  check_int "sequential read = transfer only" (c1 + 100) c2;
  let c3 = Disk_model.read d ~disk:0 ~phys:0 () in
  check_int "back to random" (c2 + random) c3;
  (* the other disk is idle: requests run in parallel *)
  let c4 = Disk_model.read d ~disk:1 ~phys:0 () in
  check_int "parallel disk" random c4;
  (* deferred start, past the disk's busy time *)
  let earliest = c4 + 10_000 in
  let c5 = Disk_model.read d ~earliest ~disk:1 ~phys:1 () in
  check_int "earliest honoured" (earliest + 100) c5;
  check_int "reads counted" 5 (Disk_model.reads d)

let test_buffer_pool_hits_misses () =
  let sim, store, _disks, pool = Util.make_system ~capacity:8 () in
  let p1 = Page_store.alloc store in
  let p2 = Page_store.alloc store in
  let r = Buffer_pool.get pool p1 in
  Mem.write_i32 sim r 0 7;
  Buffer_pool.mark_dirty pool p1;
  Buffer_pool.unpin pool p1;
  ignore (Buffer_pool.get pool p2);
  Buffer_pool.unpin pool p2;
  ignore (Buffer_pool.get pool p1);
  Buffer_pool.unpin pool p1;
  let s = Buffer_pool.stats pool in
  check_int "misses" 2 (cv s.Buffer_pool.misses);
  check_int "hits" 1 (cv s.Buffer_pool.hits);
  (* contents survive eviction via the store *)
  Buffer_pool.clear pool;
  let r = Buffer_pool.get pool p1 in
  check_int "contents persist" 7 (Mem.read_i32 sim r 0);
  Buffer_pool.unpin pool p1

let test_buffer_pool_eviction () =
  let _sim, store, disks, pool = Util.make_system ~capacity:4 () in
  let pages = Array.init 10 (fun _ -> Page_store.alloc store) in
  Array.iter
    (fun p ->
      ignore (Buffer_pool.get pool p);
      Buffer_pool.unpin pool p)
    pages;
  check_int "resident bounded by capacity" 4 (Buffer_pool.resident_pages pool);
  check_int "all reads went to disk" 10 (Disk_model.reads disks)

(* A frame keeps one region while it holds a page: two [get]s of a
   resident page return the same region, and after an eviction and
   reload the frame's region carries the new page's bytes and span. *)
let test_buffer_pool_region_per_frame () =
  let sim, store, _disks, pool = Util.make_system ~capacity:1 () in
  let a = Page_store.alloc store and b = Page_store.alloc store in
  let get p =
    let r = Buffer_pool.get pool p in
    Buffer_pool.unpin pool p;
    r
  in
  let carries p r =
    r.Mem.bytes == Page_store.bytes store p
    && r.Mem.span == Page_store.span store p
  in
  let ra = get a in
  check_bool "a read carries the page" true (carries a ra);
  let r1 = get a in
  let r2 = get a in
  check_bool "resident page: the same region" true (r1 == r2 && carries a r1);
  let rb = get b in
  check_bool "the reload carries the new page" true (carries b rb);
  check_int "same frame" r1.Mem.base rb.Mem.base;
  let rb1 = get b in
  check_bool "the frame's region carries the new page" true
    (carries b rb1 && rb1 != r1 && get b == rb1);
  (* a charged write through the reloaded page's region widens its span *)
  Mem.Span.clear (Page_store.span store a);
  ignore (get a : Mem.region);
  let ra1 = get a in
  check_bool "reloaded page's region" true (carries a ra1 && ra1 != r1);
  Mem.write_i32 sim ra1 8 42;
  let sp = Page_store.span store a in
  check_int "span start" 8 sp.Mem.Span.lo;
  check_int "span end" 12 sp.Mem.Span.hi

let test_buffer_pool_pinned_exhaustion () =
  let _sim, store, _disks, pool = Util.make_system ~capacity:2 () in
  let p1 = Page_store.alloc store in
  let p2 = Page_store.alloc store in
  let p3 = Page_store.alloc store in
  ignore (Buffer_pool.get pool p1);
  ignore (Buffer_pool.get pool p2);
  Alcotest.check_raises "exhausted"
    (Buffer_pool.Overloaded { page = p3; scans = 3 })
    (fun () -> ignore (Buffer_pool.get pool p3));
  Buffer_pool.unpin pool p2;
  ignore (Buffer_pool.get pool p3);
  Buffer_pool.unpin pool p3;
  Buffer_pool.unpin pool p1

let test_prefetch_overlap () =
  (* Prefetching n pages on n disks overlaps their seeks: the elapsed
     simulated time is far less than n sequential reads. *)
  let sim, store, _disks, pool = Util.make_system ~n_disks:4 ~capacity:64 () in
  let pages = Array.init 4 (fun _ -> Page_store.alloc store) in
  Buffer_pool.clear pool;
  let t0 = Clock.now sim.Sim.clock in
  Array.iter (Buffer_pool.prefetch pool) pages;
  Array.iter
    (fun p ->
      ignore (Buffer_pool.get pool p);
      Buffer_pool.unpin pool p)
    pages;
  let elapsed = Clock.now sim.Sim.clock - t0 in
  let one_read = Disk_model.default_seek_ns in
  Alcotest.(check bool)
    (Printf.sprintf "4 overlapped reads ~1 seek (elapsed %d)" elapsed)
    true
    (elapsed < 2 * one_read);
  let s = Buffer_pool.stats pool in
  check_int "prefetch issued" 4 (cv s.Buffer_pool.prefetch_issued);
  check_int "prefetch hits" 4 (cv s.Buffer_pool.prefetch_hits);
  check_int "no demand misses" 0 (cv s.Buffer_pool.misses)

let test_prefetcher_limit () =
  (* With a single prefetcher, prefetch reads serialise even on many
     disks. *)
  let sim, store, _, pool =
    Util.make_system ~n_disks:8 ~capacity:64 ~n_prefetchers:1 ()
  in
  let pages = Array.init 8 (fun _ -> Page_store.alloc store) in
  let t0 = Clock.now sim.Sim.clock in
  Array.iter (Buffer_pool.prefetch pool) pages;
  Array.iter
    (fun p ->
      ignore (Buffer_pool.get pool p);
      Buffer_pool.unpin pool p)
    pages;
  let elapsed = Clock.now sim.Sim.clock - t0 in
  Alcotest.(check bool) "serialised by single prefetcher" true
    (elapsed >= 8 * Disk_model.default_seek_ns)

let test_create_and_free_page () =
  let sim, _store, disks, pool = Util.make_system ~capacity:8 () in
  let p, r = Buffer_pool.create_page pool in
  Mem.write_i32 sim r 0 5;
  check_int "no disk read for fresh page" 0 (Disk_model.reads disks);
  Buffer_pool.unpin pool p;
  Buffer_pool.free_page pool p;
  Alcotest.(check bool) "not resident after free" false (Buffer_pool.is_resident pool p)

let test_dirty_writeback () =
  let _sim, store, disks, pool = Util.make_system ~capacity:2 () in
  let p1 = Page_store.alloc store in
  ignore (Buffer_pool.get pool p1);
  Buffer_pool.mark_dirty pool p1;
  Buffer_pool.unpin pool p1;
  Buffer_pool.clear pool;
  check_int "dirty page written back" 1 (Disk_model.writes disks)

let test_page_at_inverse () =
  let s = Page_store.create ~page_size:4096 ~n_disks:3 in
  let pages = Array.init 20 (fun _ -> Page_store.alloc s) in
  Array.iter
    (fun p ->
      let disk, phys = Page_store.location s p in
      check_int "page_at inverts location" p (Page_store.page_at s ~disk ~phys))
    pages;
  check_int "unallocated slot is nil" Page_store.nil
    (Page_store.page_at s ~disk:0 ~phys:999)

let test_sequential_readahead () =
  let sim, store, _disks, pool = Util.make_system ~n_disks:2 ~capacity:64 () in
  let pages = Array.init 12 (fun _ -> Page_store.alloc store) in
  Buffer_pool.set_sequential_readahead pool 4;
  (* miss on the first page of disk 0 kicks off readahead of the next 4
     physically-consecutive pages on that disk *)
  ignore (Buffer_pool.get pool pages.(0));
  Buffer_pool.unpin pool pages.(0);
  let s = Buffer_pool.stats pool in
  check_int "one demand miss" 1 (cv s.Buffer_pool.misses);
  check_int "readahead issued" 4 (cv s.Buffer_pool.prefetch_issued);
  (* the next page on the same disk (striped: pages.(2)) is now in flight;
     getting it is a prefetch hit, not a miss *)
  Fpb_simmem.Clock.advance sim.Fpb_simmem.Sim.clock 100_000_000;
  ignore (Buffer_pool.get pool pages.(2));
  Buffer_pool.unpin pool pages.(2);
  let s = Buffer_pool.stats pool in
  check_int "still one miss" 1 (cv s.Buffer_pool.misses);
  check_int "prefetch hit" 1 (cv s.Buffer_pool.prefetch_hits)

let test_exhaustion_drains_prefetch () =
  (* Every frame holds an in-flight prefetch and nothing is pinned: a
     demand get must wait for the earliest completion and reuse that
     frame, not report pool exhaustion. *)
  let _sim, store, _disks, pool = Util.make_system ~capacity:2 () in
  let p1 = Page_store.alloc store in
  let p2 = Page_store.alloc store in
  let p3 = Page_store.alloc store in
  Buffer_pool.prefetch pool p1;
  Buffer_pool.prefetch pool p2;
  ignore (Buffer_pool.get pool p3);
  Buffer_pool.unpin pool p3;
  Alcotest.(check bool) "demand read landed" true
    (Buffer_pool.is_resident pool p3)

let test_free_invalidates_pool_state () =
  let sim, store, disks, pool = Util.make_system ~capacity:4 () in
  let p, r = Buffer_pool.create_page pool in
  Mem.write_i32 sim r 0 99;
  Buffer_pool.unpin pool p;
  (* free through the store directly: the pool's free observer must drop
     the frame and dirty bit, so the dead page is never written back *)
  let w0 = Disk_model.writes disks in
  Page_store.free store p;
  Alcotest.(check bool) "not resident after store free" false
    (Buffer_pool.is_resident pool p);
  Buffer_pool.clear pool;
  check_int "freed page never written back" w0 (Disk_model.writes disks);
  let p' = Page_store.alloc store in
  check_int "id reused" p p';
  let r' = Buffer_pool.get pool p' in
  check_int "reused page reads zeroed" 0 (Mem.read_i32 sim r' 0);
  (* freeing while pinned is a bug in the caller, not silent corruption *)
  Alcotest.check_raises "freeing pinned raises"
    (Invalid_argument "Buffer_pool: freeing a pinned page") (fun () ->
      Page_store.free store p');
  Buffer_pool.unpin pool p'

(* --- Sharded pool ----------------------------------------------------------- *)

let test_single_client_shard_invariance () =
  (* One client, resident working set: hit/miss counters must not depend
     on the shard count, and a single client can never conflict with
     itself on a shard latch. *)
  let run n_shards =
    let _sim, store, _disks, pool = Util.make_system ~capacity:64 ~n_shards () in
    let pages = Array.init 32 (fun _ -> Page_store.alloc store) in
    for i = 0 to 199 do
      let p = pages.(i * 13 mod 32) in
      ignore (Buffer_pool.get pool p);
      Buffer_pool.unpin pool p
    done;
    let s = Buffer_pool.stats pool in
    ( cv s.Buffer_pool.hits,
      cv s.Buffer_pool.misses,
      cv s.Buffer_pool.shard_conflicts )
  in
  let h1, m1, c1 = run 1 in
  let h8, m8, c8 = run 8 in
  check_int "hits shard-invariant" h1 h8;
  check_int "misses shard-invariant" m1 m8;
  check_int "no conflicts at 1 shard" 0 c1;
  check_int "no conflicts at 8 shards" 0 c8

let test_shard_latch_contention () =
  (* Four interleaved clients on a resident working set: with one shard
     every access queues on the same latch; spreading the table over
     eight shards must cut both the conflict count and the waited time. *)
  let run n_shards =
    let sim, store, _disks, pool = Util.make_system ~capacity:64 ~n_shards () in
    let pages = Array.init 32 (fun _ -> Page_store.alloc store) in
    Array.iter
      (fun p ->
        ignore (Buffer_pool.get pool p);
        Buffer_pool.unpin pool p)
      pages;
    Buffer_pool.reset_stats pool;
    ignore
      (Driver.run ~sim
         (Driver.config ~n_clients:4 (Driver.Closed { ops_per_client = 50 }))
         (Driver.each (fun ~client ~seq ->
              let p = pages.((client + (7 * seq)) mod Array.length pages) in
              ignore (Buffer_pool.get pool p);
              Buffer_pool.unpin pool p))
        : Driver.stats);
    let s = Buffer_pool.stats pool in
    (cv s.Buffer_pool.shard_conflicts, cv s.Buffer_pool.shard_waits_ns)
  in
  let c1, w1 = run 1 in
  let c8, w8 = run 8 in
  Alcotest.(check bool) "single shard conflicts under 4 clients" true
    (c1 > 0 && w1 > 0);
  Alcotest.(check bool)
    (Printf.sprintf "sharding cuts conflicts (%d -> %d)" c1 c8)
    true (c8 < c1);
  Alcotest.(check bool)
    (Printf.sprintf "sharding cuts latch waits (%d -> %d)" w1 w8)
    true (w8 < w1)

let test_latch_released_across_io () =
  (* Client A demand-misses page [p] at t0 (one disk read of several ms);
     client B is then replayed at t0 + 1 us on the same shard.  B's hit
     on a resident page must not wait out A's read behind the latch, and
     B's get of [p] must wait for A's read to land, as I/O wait. *)
  let sim, store, _disks, pool = Util.make_system ~capacity:64 ~n_shards:4 () in
  let clock = sim.Sim.clock in
  let p = Page_store.alloc store in
  let rec same_shard () =
    let q = Page_store.alloc store in
    if Buffer_pool.shard_of_page pool q = Buffer_pool.shard_of_page pool p
    then q
    else same_shard ()
  in
  let q = same_shard () in
  ignore (Buffer_pool.get pool q);
  Buffer_pool.unpin pool q;
  Buffer_pool.reset_stats pool;
  let t0 = Clock.now clock in
  Clock.set clock t0;
  ignore (Buffer_pool.get pool p);
  Buffer_pool.unpin pool p;
  let s = Buffer_pool.stats pool in
  let read_landed = t0 + cv s.Buffer_pool.io_wait_ns in
  Alcotest.(check bool) "A's read takes milliseconds" true
    (read_landed - t0 > 1_000_000);
  Buffer_pool.reset_stats pool;
  let tb = t0 + 1_000 in
  Clock.set clock tb;
  ignore (Buffer_pool.get pool q);
  Buffer_pool.unpin pool q;
  Alcotest.(check bool)
    (Printf.sprintf "B's hit waits < 1 us on the latch (%d ns)"
       (cv s.Buffer_pool.shard_waits_ns))
    true
    (cv s.Buffer_pool.shard_waits_ns < 1_000);
  Alcotest.(check bool) "B's hit is not held up by A's read" true
    (Clock.now clock - tb < 1_000_000);
  Buffer_pool.reset_stats pool;
  let tb = Clock.now clock in
  ignore (Buffer_pool.get pool p);
  Buffer_pool.unpin pool p;
  Alcotest.(check bool) "B's get of p completes after A's read" true
    (Clock.now clock >= read_landed);
  Alcotest.(check bool) "B waited for the read as I/O" true
    (cv s.Buffer_pool.io_wait_ns >= read_landed - tb);
  check_int "no latch conflict for B" 0 (cv s.Buffer_pool.shard_conflicts);
  check_int "no latch wait for B" 0 (cv s.Buffer_pool.shard_waits_ns)

let test_latch_overlap_counted () =
  (* A hold's length is known only at release.  Client A, dispatched at
     t0, holds the latch briefly at t0 and again 100 us later, and keeps
     its only frame pinned.  Client B, replayed at t0 + 10 us, takes the
     latch in the gap between A's holds and then rescans for a victim
     under it (every frame pinned) for hundreds of us, past the start of
     A's second hold.  Both hold the latch at once in simulated time: B
     sees no conflict, and the pool counts the overlap. *)
  let sim, store, _disks, pool = Util.make_system ~capacity:1 ~n_shards:1 () in
  let clock = sim.Sim.clock in
  let q = Page_store.alloc store and p = Page_store.alloc store in
  ignore (Buffer_pool.get pool q);
  Buffer_pool.unpin pool q;
  Buffer_pool.reset_stats pool;
  let t0 = Clock.now clock in
  Clock.set clock t0;
  ignore (Buffer_pool.get pool q);
  Clock.advance clock 100_000;
  ignore (Buffer_pool.get pool q);
  let s = Buffer_pool.stats pool in
  check_int "A alone overlaps nothing" 0 (cv s.Buffer_pool.shard_overlaps);
  Clock.set clock (t0 + 10_000);
  (match Buffer_pool.get pool p with
  | _ -> Alcotest.fail "B found a frame"
  | exception Buffer_pool.Overloaded _ -> ());
  Alcotest.(check bool) "B held the latch past A's second hold" true
    (Clock.now clock > t0 + 100_000);
  check_int "B saw no conflict" 0 (cv s.Buffer_pool.shard_conflicts);
  check_int "B's hold overlapped A's" 1 (cv s.Buffer_pool.shard_overlaps);
  Buffer_pool.unpin pool q;
  Buffer_pool.unpin pool q

let test_multi_client_pin_evict () =
  (* Clients hold a pin while faulting other pages in, so the sweep keeps
     evicting around live pins on every shard.  No read may ever see
     stale bytes and residency must stay bounded. *)
  let sim, store, _disks, pool = Util.make_system ~capacity:8 ~n_shards:4 () in
  let pages = Array.init 24 (fun _ -> Page_store.alloc store) in
  Array.iteri
    (fun i p ->
      let r = Buffer_pool.get pool p in
      Mem.write_i32 sim r 0 (1000 + i);
      Buffer_pool.mark_dirty pool p;
      Buffer_pool.unpin pool p)
    pages;
  Buffer_pool.clear pool;
  let bad = ref 0 in
  ignore
    (Driver.run ~sim
       (Driver.config ~n_clients:3 (Driver.Closed { ops_per_client = 60 }))
       (Driver.each @@ fun ~client ~seq ->
         let i = (client + (3 * seq)) mod Array.length pages in
         let j = (i + 7) mod Array.length pages in
         let r = Buffer_pool.get pool pages.(i) in
         let r2 = Buffer_pool.get pool pages.(j) in
         if Mem.read_i32 sim r2 0 <> 1000 + j then incr bad;
         Buffer_pool.unpin pool pages.(j);
         if Mem.read_i32 sim r 0 <> 1000 + i then incr bad;
         Buffer_pool.unpin pool pages.(i);
         if Buffer_pool.resident_pages pool > 8 then incr bad)
      : Driver.stats);
  check_int "no stale reads or over-residency" 0 !bad

let prop_sharded_pool_equivalent =
  (* Observational equivalence: an N-shard pool must behave exactly like
     N independent pools, each of 1/N the capacity, each fed the
     sub-trace of pages hashing to its shard.  Counters and final
     residency must agree, access order within a shard being preserved
     by construction. *)
  Util.qtest ~count:40 "N-shard pool == N independent per-shard pools"
    QCheck2.Gen.(list_size (10 -- 120) (0 -- 19))
    (fun accesses ->
      let n_shards = 4 in
      let _sim, store, _, pool = Util.make_system ~capacity:8 ~n_shards () in
      let pages = Array.init 20 (fun _ -> Page_store.alloc store) in
      let refs =
        Array.init n_shards (fun _ ->
            let _, st, _, p = Util.make_system ~capacity:2 () in
            let ps = Array.init 20 (fun _ -> Page_store.alloc st) in
            assert (ps = pages);
            p)
      in
      List.iter
        (fun i ->
          let page = pages.(i) in
          ignore (Buffer_pool.get pool page);
          Buffer_pool.unpin pool page;
          let s = Buffer_pool.shard_of_page pool page in
          ignore (Buffer_pool.get refs.(s) page);
          Buffer_pool.unpin refs.(s) page)
        accesses;
      let tot f p = cv (f (Buffer_pool.stats p)) in
      let sum f = Array.fold_left (fun a p -> a + tot f p) 0 refs in
      tot (fun s -> s.Buffer_pool.hits) pool = sum (fun s -> s.Buffer_pool.hits)
      && tot (fun s -> s.Buffer_pool.misses) pool
         = sum (fun s -> s.Buffer_pool.misses)
      && tot (fun s -> s.Buffer_pool.evictions) pool
         = sum (fun s -> s.Buffer_pool.evictions)
      && Array.for_all
           (fun page ->
             Buffer_pool.is_resident pool page
             = Buffer_pool.is_resident
                 refs.(Buffer_pool.shard_of_page pool page)
                 page)
           pages)

let prop_never_past_capacity =
  Util.qtest ~count:50 "resident pages never exceed capacity"
    QCheck2.Gen.(list_size (10 -- 80) (0 -- 19))
    (fun accesses ->
      let _sim, store, _, pool = Util.make_system ~capacity:5 () in
      let pages = Array.init 20 (fun _ -> Page_store.alloc store) in
      List.iter
        (fun i ->
          ignore (Buffer_pool.get pool pages.(i));
          Buffer_pool.unpin pool pages.(i);
          assert (Buffer_pool.resident_pages pool <= 5))
        accesses;
      true)

(* Eight keys for a 16-slot [Page_table] whose probes collide: three
   homed at the last slot and three at the one before it, so their
   chains wrap round to slot 0, where two more keys are homed. *)
let page_table_keys =
  let t = Page_table.create 16 in
  assert (Page_table.capacity t = 16);
  let take home n =
    let rec go k acc n =
      if n = 0 then List.rev acc
      else if Page_table.home t k = home then go (k + 1) (k :: acc) (n - 1)
      else go (k + 1) acc n
    in
    go 1 [] n
  in
  Array.of_list (take 15 3 @ take 14 3 @ take 0 2)

type page_table_op = Replace of int * int | Remove of int

(* [Page_table] against a [Hashtbl] model: after every replace or
   remove (often of a key in the middle of a wrapped chain), [find],
   [mem] and [length] agree with the model on every key, and a ninth
   mapping is refused. *)
let prop_page_table_matches_hashtbl =
  let open QCheck2.Gen in
  let keys = page_table_keys in
  let gen =
    let key = map (Array.get keys) (0 -- (Array.length keys - 1)) in
    let op =
      frequency
        [
          (3, map2 (fun k v -> Replace (k, v)) key (0 -- 1000));
          (2, map (fun k -> Remove k) key);
        ]
    in
    list_size (1 -- 200) op
  in
  Util.qtest ~count:500 "page table == Hashtbl model" gen (fun ops ->
      let t = Page_table.create 16 and model = Hashtbl.create 16 in
      let agrees op =
        (match op with
        | Replace (k, v) ->
            Page_table.replace t k v;
            Hashtbl.replace model k v
        | Remove k ->
            Page_table.remove t k;
            Hashtbl.remove model k);
        Page_table.length t = Hashtbl.length model
        && Array.for_all
             (fun k ->
               let want = Option.value ~default:(-1) (Hashtbl.find_opt model k) in
               Page_table.find t k = want && Page_table.mem t k = Hashtbl.mem model k)
             keys
      in
      (* all eight keys fill half the slots; key 0 is not one of them *)
      let refuses_ninth () =
        Array.iter (fun k -> Page_table.replace t k 0) keys;
        match Page_table.replace t 0 0 with
        | () -> false
        | exception Invalid_argument _ -> Page_table.length t = 8
      in
      List.for_all agrees ops && refuses_ninth ())

(* --- Held frames ------------------------------------------------------------ *)

(* A nonleaf [pin] then [unpin]; returns the counter deltas the call
   made: (held hits, hits + misses + prefetch hits). *)
let held_pin pool h p =
  let s = Buffer_pool.stats pool in
  let got () =
    ( cv s.Buffer_pool.held_hits,
      cv s.hits + cv s.misses + cv s.prefetch_hits )
  in
  let h0, g0 = got () in
  let r = Buffer_pool.pin pool h p ~leaf:false ~off:0 ~len:0 in
  Buffer_pool.unpin pool p;
  let h1, g1 = got () in
  (r, (h1 - h0, g1 - g0))

let check_held label pool h p =
  Alcotest.(check (pair int int)) (label ^ ": held hit") (1, 0)
    (snd (held_pin pool h p))

let check_fallback label pool h p =
  Alcotest.(check (pair int int)) (label ^ ": falls back to get") (0, 1)
    (snd (held_pin pool h p));
  check_held (label ^ ", then refreshed") pool h p

(* A held hit skips the page table, the buffer-manager call and the
   shard latch: exactly its two validation loads of busy time, no latch
   conflict even inside another client's hold, and a [pool.held_hits]
   count instead of a [pool.hits] one. *)
let test_held_hit_cost () =
  let sim, store, _disks, pool = Util.make_system ~capacity:4 ~n_shards:1 () in
  let clock = sim.Sim.clock in
  let p = Page_store.alloc store in
  let h = Buffer_pool.held () in
  check_fallback "cold" pool h p;
  let busy () = cv sim.Sim.stats.Stats.busy in
  let s = Buffer_pool.stats pool in
  let b0 = busy () and t0 = Clock.now clock in
  check_held "warm" pool h p;
  check_int "busy cycles" (2 * sim.Sim.cost.Cost_model.c_access) (busy () - b0);
  check_int "simulated time" (2 * sim.Sim.cost.Cost_model.c_access)
    (Clock.now clock - t0);
  (* Client A takes the latch at t0 with a plain get; client B, replayed
     inside A's hold, enters through the held frame without waiting.  A
     plain get at the same time does wait: the hold is real. *)
  let t0 = Clock.now clock in
  Clock.set clock t0;
  ignore (Buffer_pool.get pool p);
  Buffer_pool.unpin pool p;
  let inside = t0 + sim.Sim.cost.Cost_model.latch_cycles + 10 in
  Clock.set clock inside;
  let c0 = cv s.Buffer_pool.shard_conflicts in
  check_held "inside another client's hold" pool h p;
  check_int "no latch conflict" c0 (cv s.Buffer_pool.shard_conflicts);
  Clock.set clock inside;
  ignore (Buffer_pool.get pool p);
  Buffer_pool.unpin pool p;
  check_int "a plain get there conflicts" (c0 + 1) (cv s.Buffer_pool.shard_conflicts)

(* Every way the held frame can stop holding the page, or hold it before
   it may be read, sends a nonleaf [pin] back to [get], which refreshes the
   record. *)
let test_held_fallbacks () =
  let _sim, store, _disks, pool = Util.make_system ~capacity:4 () in
  let p = Page_store.alloc store in
  let h = Buffer_pool.held () in
  check_fallback "first use" pool h p;
  Buffer_pool.clear pool;
  check_fallback "after clear" pool h p;
  Buffer_pool.drop_all pool;
  check_fallback "after drop_all" pool h p;
  let others = Array.init 8 (fun _ -> Page_store.alloc store) in
  (* Each thrash page is used twice, as [p] was: SIEVE evicts pages used
     once before a page used again. *)
  let thrash () =
    Array.iter
      (fun q ->
        for _ = 1 to 2 do
          ignore (Buffer_pool.get pool q);
          Buffer_pool.unpin pool q
        done)
      others
  in
  thrash ();
  check_bool "thrash evicted the page" false (Buffer_pool.is_resident pool p);
  check_fallback "after eviction" pool h p;
  (* the page evicted, another one now in its frame *)
  thrash ();
  ignore (Buffer_pool.get pool p);
  Buffer_pool.unpin pool p;
  check_fallback "after a reload into another frame" pool h p;
  (* a pinned-full pool refuses the fallback as it refuses a get *)
  Buffer_pool.clear pool;
  Array.iter (fun q -> ignore (Buffer_pool.get pool q)) (Array.sub others 0 4);
  (match Buffer_pool.pin pool h p ~leaf:false ~off:0 ~len:0 with
  | _ -> Alcotest.fail "a pinned-full pool served the held page"
  | exception Buffer_pool.Overloaded _ -> ());
  Array.iter (Buffer_pool.unpin pool) (Array.sub others 0 4)

(* One memo remembers a frame per page, ids past its first size
   included: after each page's first pin taught it, every page is a held
   hit, and a batch pinned through it is all held hits. *)
let test_held_memo () =
  let _sim, store, _disks, pool = Util.make_system ~capacity:8 () in
  let ids = Array.init 300 (fun _ -> Page_store.alloc store) in
  let pages = [| ids.(0); ids.(70); ids.(299) |] in
  let h = Buffer_pool.held () in
  Array.iter (fun p -> check_fallback (Printf.sprintf "page %d" p) pool h p) pages;
  Array.iter (fun p -> check_held (Printf.sprintf "page %d again" p) pool h p) pages;
  let s = Buffer_pool.stats pool in
  let h0 = cv s.Buffer_pool.held_hits and g0 = cv s.hits + cv s.misses in
  ignore (Buffer_pool.get_batch pool h ~leaf:false pages);
  Array.iter (Buffer_pool.unpin pool) pages;
  check_int "batch: held hits" (h0 + 3) (cv s.Buffer_pool.held_hits);
  check_int "batch: no buffer-manager call" g0 (cv s.hits + cv s.misses)

(* The page is freed and its id reallocated into another frame: the held
   frame is empty, so the fallback finds the new page, zeroed.  (A fresh
   record names frame 0, where the pool put the page: a held hit.) *)
let test_held_free_realloc () =
  let sim, _store, _disks, pool = Util.make_system ~capacity:2 () in
  let p, r = Buffer_pool.create_page pool in
  Mem.write_i32 sim r 0 99;
  Buffer_pool.unpin pool p;
  let h = Buffer_pool.held () in
  check_held "the page in frame 0" pool h p;
  Buffer_pool.free_page pool p;
  let p', _ = Buffer_pool.create_page pool in
  Buffer_pool.unpin pool p';
  check_int "id reused" p p';
  let r, got = held_pin pool h p in
  Alcotest.(check (pair int int)) "falls back to get" (0, 1) got;
  check_int "the new page's bytes" 0 (Mem.read_i32 sim r 0);
  check_held "then refreshed" pool h p

(* A client replayed before the held page's read landed waits for it
   through [get], as I/O. *)
let test_held_read_in_flight () =
  let sim, store, _disks, pool = Util.make_system ~capacity:4 () in
  let clock = sim.Sim.clock in
  let p = Page_store.alloc store in
  let h = Buffer_pool.held () in
  let t0 = Clock.now clock in
  Clock.set clock t0;
  check_int "cold read" 1 (snd (snd (held_pin pool h p)));
  let landed = Clock.now clock in
  Clock.set clock (t0 + 1_000);
  let s = Buffer_pool.stats pool in
  let w0 = cv s.Buffer_pool.io_wait_ns in
  Alcotest.(check (pair int int)) "read in flight: falls back to get" (0, 1)
    (snd (held_pin pool h p));
  check_bool "waited for the read" true (Clock.now clock >= landed);
  check_bool "as I/O" true (cv s.Buffer_pool.io_wait_ns > w0);
  check_held "then held" pool h p

(* A prefetch landed in the held frame but no get has verified its bytes
   yet: the fallback's get verifies them, as a prefetch hit. *)
let test_held_prefetch_arrival () =
  let sim, store, _disks, pool = Util.make_system ~capacity:1 () in
  let p = Page_store.alloc store in
  let h = Buffer_pool.held () in
  check_fallback "first use" pool h p;
  Buffer_pool.clear pool;
  Buffer_pool.prefetch pool p;
  Clock.advance sim.Sim.clock 100_000_000;
  let s = Buffer_pool.stats pool in
  let ph0 = cv s.Buffer_pool.prefetch_hits in
  Alcotest.(check (pair int int)) "arrival: falls back to get" (0, 1)
    (snd (held_pin pool h p));
  check_int "verified as a prefetch hit" (ph0 + 1) (cv s.Buffer_pool.prefetch_hits);
  check_held "then held" pool h p

(* ----------------------------- SIEVE ------------------------------- *)

let touch pool p =
  ignore (Buffer_pool.get pool p);
  Buffer_pool.unpin pool p

let check_resident label pool pages want =
  List.iter
    (fun (name, p) ->
      check_bool
        (Printf.sprintf "%s: %s resident" label name)
        (List.mem name want)
        (Buffer_pool.is_resident pool p))
    pages

(* A pool of [capacity] frames and eight pages named a to h.  Pages used
   once each fill the pool oldest to newest, and leave the hand on the
   oldest: each frame moves to the newest end as it takes its page, and
   the hand stays on the frame after it. *)
let named_pages ~capacity =
  let sim, store, _disks, pool = Util.make_system ~capacity () in
  let pages =
    List.map
      (fun n -> (n, Page_store.alloc store))
      [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]
  in
  (sim, pool, pages, fun n -> List.assoc n pages)

(* A run of pages used once does not evict a page used twice: each new
   page enters unvisited, and the hand, just past the page used twice,
   evicts the run in the order it came. *)
let test_sieve_once_used_leave_first () =
  let _sim, store, _disks, pool = Util.make_system ~capacity:4 () in
  let p = Page_store.alloc store in
  touch pool p;
  touch pool p;
  let run = Array.init 12 (fun _ -> Page_store.alloc store) in
  Array.iter (touch pool) run;
  check_bool "the page used twice stays" true (Buffer_pool.is_resident pool p);
  check_int "evictions" 9 (cv (Buffer_pool.stats pool).Buffer_pool.evictions);
  Array.iteri
    (fun i q ->
      check_bool (Printf.sprintf "run page %d" i) (i >= 9)
        (Buffer_pool.is_resident pool q))
    run

(* The hand walks from the oldest frame to the newest, clearing visited
   bits, then wraps to the oldest. *)
let test_sieve_hand_wraps () =
  let _sim, pool, pages, pg = named_pages ~capacity:4 in
  List.iter (fun n -> touch pool (pg n)) [ "a"; "b"; "c"; "d" ];
  List.iter (fun n -> touch pool (pg n)) [ "b"; "c"; "d" ];
  touch pool (pg "e");
  check_resident "the oldest, unvisited, goes" pool pages
    [ "b"; "c"; "d"; "e" ];
  (* b c d lose their bits; e, the newest, goes; the hand wraps to b *)
  touch pool (pg "f");
  check_resident "past the visited run to the newest" pool pages
    [ "b"; "c"; "d"; "f" ];
  touch pool (pg "g");
  check_resident "wrapped to the oldest" pool pages [ "c"; "d"; "f"; "g" ];
  (* every page visited: a full lap clears them all and the oldest goes *)
  List.iter (fun n -> touch pool (pg n)) [ "c"; "d"; "f"; "g" ];
  touch pool (pg "h");
  check_resident "a full lap, then the oldest" pool pages [ "d"; "f"; "g"; "h" ]

(* The hand passes a pinned frame, and a frame whose read has not landed
   at the sweeping client's time, without clearing their bits: the next
   lap still finds them visited. *)
let test_sieve_skipped_frames_keep_bits () =
  let _sim, pool, pages, pg = named_pages ~capacity:3 in
  List.iter (fun n -> touch pool (pg n)) [ "a"; "b"; "c" ];
  ignore (Buffer_pool.get pool (pg "a"));
  (* a is visited and pinned: the hand passes it, and b goes *)
  touch pool (pg "d");
  check_resident "pinned a skipped" pool pages [ "a"; "c"; "d" ];
  Buffer_pool.unpin pool (pg "a");
  List.iter (fun n -> touch pool (pg n)) [ "c"; "d" ];
  touch pool (pg "e");
  check_resident "a kept its bit while pinned" pool pages [ "a"; "d"; "e" ];
  let sim, pool, pages, pg = named_pages ~capacity:3 in
  let clock = sim.Sim.clock in
  List.iter (fun n -> touch pool (pg n)) [ "a"; "b" ];
  let before_c = Clock.now clock in
  touch pool (pg "c");
  List.iter (fun n -> touch pool (pg n)) [ "a"; "b"; "c" ];
  (* a client replayed before c's read landed: it clears a and b, passes
     c with its bit, and wraps to a *)
  Clock.set clock before_c;
  touch pool (pg "d");
  check_resident "in-flight c skipped" pool pages [ "b"; "c"; "d" ];
  Clock.advance clock 100_000_000;
  touch pool (pg "b");
  touch pool (pg "e");
  check_resident "c kept its bit while in flight" pool pages [ "b"; "c"; "e" ]

(* While a write-back would force the log, a prefetch takes a clean
   frame, passing dirty ones, and leaves the hand on the first dirty
   frame it passed: the next demand miss evicts that frame. *)
let test_sieve_prefetch_parks_hand () =
  let sim, pool, pages, pg = named_pages ~capacity:4 in
  Buffer_pool.set_wal_hooks pool
    (Some
       {
         Buffer_pool.on_page_dirty = ignore;
         before_page_write = ignore;
         on_page_write = ignore;
         on_page_alloc = ignore;
         on_page_free = ignore;
         page_lsn = (fun _ -> 0);
         write_forces_log = (fun () -> true);
       });
  List.iter (fun n -> touch pool (pg n)) [ "a"; "b"; "c"; "d" ];
  Buffer_pool.mark_dirty pool (pg "a");
  Buffer_pool.mark_dirty pool (pg "b");
  Buffer_pool.prefetch pool (pg "e");
  Clock.advance sim.Sim.clock 100_000_000;
  check_resident "the prefetch took clean c" pool pages [ "a"; "b"; "d"; "e" ];
  let s = Buffer_pool.stats pool in
  let dv0 = cv s.Buffer_pool.demand_dirty_victims in
  touch pool (pg "f");
  check_resident "the demand miss took dirty a" pool pages
    [ "b"; "d"; "e"; "f" ];
  check_int "a dirty victim" (dv0 + 1) (cv s.Buffer_pool.demand_dirty_victims)

(* After [clear] or [drop_all] the hand restarts at the oldest frame,
   so a cold search fills every empty frame before it evicts a page it
   just read, and a replay of the search reads nothing.  Before the
   wipe, a visited a sends the sweep for d past it to evict b, so the
   hand stays on the frame after b's, c's, in the middle of the queue.
   A hand left there would take c's frame for e, b's for f, and then
   come back to e's frame for g while a's is still empty. *)
let test_sieve_hand_restarts_after_wipe () =
  List.iter
    (fun (label, wipe) ->
      let _sim, pool, pages, pg = named_pages ~capacity:3 in
      List.iter (fun n -> touch pool (pg n)) [ "a"; "b"; "c"; "a" ];
      touch pool (pg "d");
      check_resident (label ^ ": visited a kept") pool pages [ "a"; "c"; "d" ];
      wipe pool;
      let s = Buffer_pool.stats pool in
      let search () = List.iter (fun n -> touch pool (pg n)) [ "e"; "f"; "g" ] in
      let e0 = cv s.Buffer_pool.evictions in
      search ();
      check_int (label ^ ": the cold search evicts nothing") e0
        (cv s.Buffer_pool.evictions);
      let m0 = cv s.Buffer_pool.misses in
      search ();
      check_int (label ^ ": the replay reads nothing") m0 (cv s.Buffer_pool.misses))
    [ ("clear", Buffer_pool.clear); ("drop_all", Buffer_pool.drop_all) ]

(* A reference SIEVE model of a one-shard pool with no log: its frames
   oldest first, each holding a page (or -1), a visited bit, a pin count
   and whether it is a prefetch no get has seen, and the hand as an
   index into that order. *)
type slot = {
  mutable page : int;
  mutable visited : bool;
  mutable pins : int;
  mutable arrival : bool;
}

type model = {
  mutable slots : slot array;
  mutable hand : int;
  mutable evicted : int;
}

(* The victim slot for [page], which becomes the newest; the hand stays
   on the slot after the victim.  Only called with a frame unpinned. *)
let model_take m page ~arrival ~pins =
  let n = Array.length m.slots in
  let rec go i =
    let sl = m.slots.(i) in
    if sl.pins > 0 then go ((i + 1) mod n)
    else if sl.visited then begin
      sl.visited <- false;
      go ((i + 1) mod n)
    end
    else i
  in
  let i = go m.hand in
  let sl = m.slots.(i) in
  if sl.page >= 0 then m.evicted <- m.evicted + 1;
  m.slots <-
    Array.concat
      [ Array.sub m.slots 0 i; Array.sub m.slots (i + 1) (n - i - 1); [| sl |] ];
  m.hand <- (if i = n - 1 then 0 else i);
  sl.page <- page;
  sl.visited <- false;
  sl.pins <- pins;
  sl.arrival <- arrival

type op = Get of int | Unpin of int | Prefetch of int | Clear | Drop_all

let show_op = function
  | Get i -> Printf.sprintf "get %d" i
  | Unpin i -> Printf.sprintf "unpin #%d" i
  | Prefetch i -> Printf.sprintf "prefetch %d" i
  | Clear -> "clear"
  | Drop_all -> "drop_all"

(* Random gets, unpins, prefetches, clears and crashes on a pool of 3-8
   frames agree with the model, step by step, on which pages are
   resident and on [pool.evictions].  Ops that would need a frame while
   every frame is pinned are skipped, and each prefetch is let land
   before the next op, so no sweep ever comes up empty. *)
let prop_sieve_matches_model =
  let n_pages = 12 in
  let gen =
    QCheck2.Gen.(
      pair (3 -- 8)
        (list_size (1 -- 80)
           (frequency
              [
                (6, map (fun i -> Get i) (0 -- (n_pages - 1)));
                (4, map (fun i -> Unpin i) (0 -- 7));
                (2, map (fun i -> Prefetch i) (0 -- (n_pages - 1)));
                (1, pure Clear);
                (1, pure Drop_all);
              ])))
  in
  Util.qtest ~count:300 "SIEVE matches a reference model" gen
    ~print:(fun (cap, ops) ->
      Printf.sprintf "%d frames: %s" cap
        (String.concat "; " (List.map show_op ops)))
    (fun (capacity, ops) ->
      let sim, store, _, pool = Util.make_system ~capacity ~n_shards:1 () in
      let pages = Array.init n_pages (fun _ -> Page_store.alloc store) in
      let m =
        {
          slots =
            Array.init capacity (fun _ ->
                { page = -1; visited = false; pins = 0; arrival = false });
          hand = 0;
          evicted = 0;
        }
      in
      let find p = Array.find_opt (fun sl -> sl.page = p) m.slots in
      let full () = Array.for_all (fun sl -> sl.pins > 0) m.slots in
      let pinned () =
        Array.to_list m.slots
        |> List.concat_map (fun sl -> List.init sl.pins (fun _ -> sl))
      in
      let unpin sl =
        Buffer_pool.unpin pool sl.page;
        sl.pins <- sl.pins - 1
      in
      let empty sl =
        sl.page <- -1;
        sl.visited <- false;
        sl.pins <- 0;
        sl.arrival <- false
      in
      let step = function
        | Get i -> (
            let p = pages.(i) in
            match find p with
            | Some sl ->
                ignore (Buffer_pool.get pool p);
                if sl.arrival then sl.arrival <- false else sl.visited <- true;
                sl.pins <- sl.pins + 1
            | None ->
                if not (full ()) then begin
                  ignore (Buffer_pool.get pool p);
                  model_take m p ~arrival:false ~pins:1
                end)
        | Unpin k -> (
            match pinned () with
            | [] -> ()
            | l -> unpin (List.nth l (k mod List.length l)))
        | Prefetch i ->
            let p = pages.(i) in
            if find p = None && not (full ()) then begin
              Buffer_pool.prefetch pool p;
              Clock.advance sim.Sim.clock 100_000_000;
              model_take m p ~arrival:true ~pins:0
            end
        | Clear ->
            List.iter unpin (pinned ());
            Buffer_pool.clear pool;
            Array.iter empty m.slots;
            m.hand <- 0
        | Drop_all ->
            Buffer_pool.drop_all pool;
            Array.iter empty m.slots;
            m.hand <- 0
      in
      List.for_all
        (fun op ->
          step op;
          Array.for_all
            (fun p -> Buffer_pool.is_resident pool p = (find p <> None))
            pages
          && cv (Buffer_pool.stats pool).Buffer_pool.evictions = m.evicted)
        ops)

let suite =
  [
    Alcotest.test_case "vec" `Quick test_vec;
    Alcotest.test_case "page store alloc/free" `Quick test_page_store_alloc_free;
    Alcotest.test_case "disk model timing" `Quick test_disk_model;
    Alcotest.test_case "buffer pool hits/misses" `Quick test_buffer_pool_hits_misses;
    Alcotest.test_case "buffer pool eviction" `Quick test_buffer_pool_eviction;
    Alcotest.test_case "buffer pool keeps one region per frame" `Quick
      test_buffer_pool_region_per_frame;
    Alcotest.test_case "pinned exhaustion" `Quick test_buffer_pool_pinned_exhaustion;
    Alcotest.test_case "prefetch overlaps seeks" `Quick test_prefetch_overlap;
    Alcotest.test_case "prefetcher limit" `Quick test_prefetcher_limit;
    Alcotest.test_case "create/free page" `Quick test_create_and_free_page;
    Alcotest.test_case "dirty writeback" `Quick test_dirty_writeback;
    Alcotest.test_case "page_at inverse" `Quick test_page_at_inverse;
    Alcotest.test_case "sequential readahead" `Quick test_sequential_readahead;
    Alcotest.test_case "exhaustion drains in-flight prefetch" `Quick
      test_exhaustion_drains_prefetch;
    Alcotest.test_case "store free invalidates pool state" `Quick
      test_free_invalidates_pool_state;
    Alcotest.test_case "single client is shard-invariant" `Quick
      test_single_client_shard_invariance;
    Alcotest.test_case "shard latch contention" `Quick
      test_shard_latch_contention;
    Alcotest.test_case "latch released across another client's read"
      `Quick test_latch_released_across_io;
    Alcotest.test_case "latch hold overlapping another client's" `Quick
      test_latch_overlap_counted;
    Alcotest.test_case "multi-client pin/evict interleaving" `Quick
      test_multi_client_pin_evict;
    Alcotest.test_case "held hit: two loads, no latch" `Quick test_held_hit_cost;
    Alcotest.test_case "held frame: clear, drop, eviction" `Quick
      test_held_fallbacks;
    Alcotest.test_case "held memo: one frame per page" `Quick test_held_memo;
    Alcotest.test_case "held frame: free + realloc" `Quick test_held_free_realloc;
    Alcotest.test_case "held frame: read in flight" `Quick test_held_read_in_flight;
    Alcotest.test_case "held frame: prefetch arrival" `Quick
      test_held_prefetch_arrival;
    Alcotest.test_case "sieve: pages used once leave first" `Quick
      test_sieve_once_used_leave_first;
    Alcotest.test_case "sieve: hand walks oldest to newest, wraps" `Quick
      test_sieve_hand_wraps;
    Alcotest.test_case "sieve: pinned and in-flight frames keep bits" `Quick
      test_sieve_skipped_frames_keep_bits;
    Alcotest.test_case "sieve: clean prefetch sweep parks the hand" `Quick
      test_sieve_prefetch_parks_hand;
    Alcotest.test_case "sieve: hand restarts at the oldest after a wipe" `Quick
      test_sieve_hand_restarts_after_wipe;
    prop_sharded_pool_equivalent;
    prop_never_past_capacity;
    prop_sieve_matches_model;
    prop_page_table_matches_hashtbl;
  ]
