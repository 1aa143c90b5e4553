(* Unit tests for the storage substrate: page store, disk model, buffer
   pool (CLOCK, pinning, prefetchers, failure injection). *)

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
  let d = Disk_model.create ~seek_ns:1000 ~transfer_ns:100 ~n_disks:2 clock in
  let c1 = Disk_model.read d ~disk:0 ~phys:5 () in
  check_int "random read = seek+transfer" 1100 c1;
  let c2 = Disk_model.read d ~disk:0 ~phys:6 () in
  check_int "sequential read = transfer only" (c1 + 100) c2;
  let c3 = Disk_model.read d ~disk:0 ~phys:0 () in
  check_int "back to random" (c2 + 1100) c3;
  (* the other disk is idle: requests run in parallel *)
  let c4 = Disk_model.read d ~disk:1 ~phys:0 () in
  check_int "parallel disk" 1100 c4;
  (* deferred start *)
  let c5 = Disk_model.read d ~earliest:10_000 ~disk:1 ~phys:1 () in
  check_int "earliest honoured" 10_100 c5;
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
  (* Clients hold a pin while faulting other pages in, so CLOCK keeps
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

let prop_clock_never_past_capacity =
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
    prop_sharded_pool_equivalent;
    prop_clock_never_past_capacity;
    prop_page_table_matches_hashtbl;
  ]
