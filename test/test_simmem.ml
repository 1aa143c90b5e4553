(* Unit tests for the simulated memory hierarchy: analytic prefetch costs,
   cache hit/miss behaviour, invalidation, miss-handler bounds. *)

open Fpb_simmem

let cfg = Config.default

let fresh () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  (clock, stats, Cache.create cfg clock stats)

let check_int = Alcotest.(check int)
let cv = Fpb_obs.Counter.value

let test_clock () =
  let c = Clock.create () in
  Clock.advance c 10;
  check_int "advance" 10 (Clock.now c);
  Clock.advance_to c 5;
  check_int "no backwards" 10 (Clock.now c);
  Clock.advance_to c 50;
  check_int "advance_to" 50 (Clock.now c);
  check_int "monotone floor is now" 50 (Clock.floor c);
  Clock.set c 20;
  Clock.advance c 100;
  check_int "replay floor is the last set" 20 (Clock.floor c);
  Alcotest.check_raises "set below the floor"
    (Invalid_argument "Clock.set: 19 is below the previous dispatch 20")
    (fun () -> Clock.set c 19);
  Clock.join c 300;
  check_int "join moves the clock" 300 (Clock.now c);
  check_int "joined floor is now" 300 (Clock.floor c);
  Clock.set c 250;
  check_int "a new replay may start below the join" 250 (Clock.floor c)

let test_cold_miss_latency () =
  let clock, stats, cache = fresh () in
  Cache.access cache 0;
  check_int "first miss costs T1" cfg.Config.mem_latency (Clock.now clock);
  check_int "one memory miss" 1 (cv stats.Stats.mem_misses);
  Cache.access cache 0;
  check_int "hit is free" cfg.Config.mem_latency (Clock.now clock);
  check_int "one L1 hit" 1 (cv stats.Stats.l1_hits)

let test_prefetched_node_cost () =
  (* The pB+-Tree cost model: a w-line node prefetched in full costs
     T1 + (w-1)*Tnext once accessed. *)
  List.iter
    (fun w ->
      let clock, _stats, cache = fresh () in
      for l = 0 to w - 1 do
        Cache.prefetch cache (l * cfg.Config.line_size)
      done;
      (* touch every line of the node *)
      for l = 0 to w - 1 do
        Cache.access cache (l * cfg.Config.line_size)
      done;
      let expected = cfg.Config.mem_latency + ((w - 1) * cfg.Config.mem_gap) in
      check_int (Printf.sprintf "w=%d" w) expected (Clock.now clock))
    [ 1; 2; 3; 8; 16 ]

let test_unprefetched_node_cost () =
  (* Without prefetch, each line is a dependent full miss. *)
  let clock, _stats, cache = fresh () in
  let w = 4 in
  for l = 0 to w - 1 do
    Cache.access cache (l * cfg.Config.line_size)
  done;
  (* misses pipeline through the memory system only if issued while an
     earlier one is outstanding; demand misses here are serial, so each
     costs T1. *)
  check_int "serial misses" (w * cfg.Config.mem_latency) (Clock.now clock)

let test_l2_hit () =
  let clock, stats, cache = fresh () in
  Cache.access cache 0;
  let t0 = Clock.now clock in
  (* evict from L1 by filling its set: addresses that map to the same L1
     set are line_size * l1_sets apart *)
  let l1_sets = cfg.Config.l1_size / (cfg.Config.line_size * cfg.Config.l1_assoc) in
  let stride = cfg.Config.line_size * l1_sets in
  (* choose conflicting addresses that do NOT conflict in L2 *)
  Cache.access cache stride;
  Cache.access cache (2 * stride);
  ignore t0;
  Cache.access cache 0;
  (* 0 was evicted from L1 (2-way set, 2 newer residents) but lives in L2 *)
  Alcotest.(check bool) "l2 hit recorded" true (cv stats.Stats.l2_hits >= 1)

let test_invalidate () =
  let _clock, stats, cache = fresh () in
  Cache.access cache 0;
  Cache.invalidate_range cache 0 cfg.Config.line_size;
  Cache.access cache 0;
  check_int "miss again after invalidate" 2 (cv stats.Stats.mem_misses)

let test_miss_handler_bound () =
  let _clock, stats, cache = fresh () in
  (* more outstanding prefetches than handlers forces issue stalls *)
  for l = 0 to (2 * cfg.Config.miss_handlers) - 1 do
    Cache.prefetch cache (l * cfg.Config.line_size)
  done;
  Alcotest.(check bool) "prefetch waits happened" true
    (cv stats.Stats.prefetch_waits > 0)

let test_flush () =
  let _clock, stats, cache = fresh () in
  Cache.access cache 0;
  Cache.flush cache;
  Cache.access cache 0;
  check_int "miss after flush" 2 (cv stats.Stats.mem_misses)

let test_mem_accessors () =
  let sim = Sim.create () in
  let r = Mem.make ~bytes:(Bytes.create 4096) ~base:0 in
  Mem.write_i32 sim r 0 (-123456);
  Mem.write_u16 sim r 100 65535;
  Mem.write_u8 sim r 200 255;
  Alcotest.(check int) "i32 roundtrip" (-123456) (Mem.read_i32 sim r 0);
  Alcotest.(check int) "u16 roundtrip" 65535 (Mem.read_u16 sim r 100);
  Alcotest.(check int) "u8 roundtrip" 255 (Mem.read_u8 sim r 200);
  Mem.write_i32 sim r 0 77;
  Mem.blit sim r 0 r 500 4;
  Alcotest.(check int) "blit copies" 77 (Mem.read_i32 sim r 500);
  Mem.fill_zero sim r 500 4;
  Alcotest.(check int) "fill zero" 0 (Mem.read_i32 sim r 500);
  Alcotest.(check int) "peek matches" 77 (Mem.peek_i32 r 0)

(* Charged writes widen the region's written span; reads do not, a
   zero-length move does not, and a span marked whole absorbs every
   later write until it is cleared. *)
let test_mem_span () =
  let sim = Sim.create () in
  let r = Mem.make ~bytes:(Bytes.create 4096) ~base:0 in
  let span = Alcotest.(pair int int) in
  let check label want =
    Alcotest.check span label want (r.Mem.span.Mem.Span.lo, r.Mem.span.hi)
  in
  Alcotest.(check bool) "fresh span is empty" true
    (r.Mem.span.Mem.Span.lo >= r.Mem.span.hi);
  Mem.write_u16 sim r 100 1;
  check "u16" (100, 102);
  Mem.write_i32 sim r 40 1;
  Mem.write_u8 sim r 101 1;
  check "i32 below, u8 inside" (40, 102);
  Mem.blit sim r 0 r 500 8;
  check "blit destination" (40, 508);
  Mem.fill_zero sim r 600 0;
  ignore (Mem.read_i32 sim r 1000 : int);
  check "empty fill and reads" (40, 508);
  Mem.fill_zero sim r 504 16;
  check "fill_zero" (40, 520);
  Mem.move_in sim r ~off:700 ~len:10 "abc" ~at:701;
  check "move_in: the string's bytes" (40, 704);
  Mem.Span.clear r.Mem.span;
  Mem.write_i32 sim r 9 1;
  check "cleared, then i32" (9, 13);
  Mem.Span.mark_all r.Mem.span;
  Mem.write_i32 sim r 4000 1;
  Alcotest.(check bool) "whole absorbs writes" true (Mem.Span.is_all r.Mem.span)

let test_busy_accounting () =
  let sim = Sim.create () in
  Sim.charge_busy sim 42;
  Alcotest.(check int) "busy charged" 42 (cv sim.Sim.stats.Stats.busy);
  Alcotest.(check int) "clock advanced" 42 (Sim.now sim);
  let s0 = Stats.snapshot sim.Sim.stats in
  Sim.charge_busy sim 8;
  let b, st, _ = Stats.since sim.Sim.stats s0 in
  Alcotest.(check (pair int int)) "delta" (8, 0) (b, st)

let prop_prefetch_batch_cost =
  Util.qtest "prefetched batch never dearer than serial misses"
    QCheck2.Gen.(1 -- 30)
    (fun w ->
      let clock1, _, cache1 = fresh () in
      for l = 0 to w - 1 do
        Cache.prefetch cache1 (l * 64)
      done;
      for l = 0 to w - 1 do
        Cache.access cache1 (l * 64)
      done;
      let clock2, _, cache2 = fresh () in
      for l = 0 to w - 1 do
        Cache.access cache2 (l * 64)
      done;
      Clock.now clock1 <= Clock.now clock2)

let test_create_rejects_no_miss_handlers () =
  let cfg = { Config.default with Config.miss_handlers = 0 } in
  Alcotest.check_raises "miss_handlers = 0"
    (Invalid_argument "Cache.create: 0 miss handlers, need at least 1")
    (fun () -> ignore (Cache.create cfg (Clock.create ()) (Stats.create ())))

let test_create_rejects_l1_sets () =
  (* 48 KB, 2-way, 64 B lines: 384 sets *)
  let cfg = { Config.default with Config.l1_size = 48 * 1024 } in
  Alcotest.check_raises "384 L1 sets"
    (Invalid_argument "Cache.create: 384 L1 sets is not a power of two")
    (fun () -> ignore (Cache.create cfg (Clock.create ()) (Stats.create ())))

let test_create_rejects_l2_lines () =
  (* 3 MB of 64 B lines: 49 152 lines *)
  let cfg = { Config.default with Config.l2_size = 3 * 1024 * 1024 } in
  Alcotest.check_raises "49152 L2 lines"
    (Invalid_argument "Cache.create: 49152 L2 lines is not a power of two")
    (fun () -> ignore (Cache.create cfg (Clock.create ()) (Stats.create ())))

(* Differential test of [Cache] against [Ref_cache], the hash-table and
   queue implementation it replaced.  Both run the same steps, each on
   its own clock and statistics, and must agree on the clock and on all
   eight counters after every step.  Lines are drawn from a small pool
   built to collide: [a + 512 b + 32768 c] shares an L1 set across [b]
   and [c] and an L2 line across [c]. *)
type step =
  | Access of int  (* byte address *)
  | Prefetch of int
  | Access_range of int * int  (* address, length *)
  | Prefetch_range of int * int * int  (* busy per line, address, length *)
  | Touch of int * int * int  (* busy, address, length *)
  | Burst of int * int  (* first line, count: prefetches back to back *)
  | Invalidate of int * int
  | Flush
  | Advance of int
  | Until of int  (* advance to the replay floor plus this *)
  | Set of int  (* rewind to the replay floor plus this *)
  | Join of int  (* end the replay this far after now *)
  | Stale of int * int * bool * int
      (* lines [x] and [l], [conflict], delay [d]: prefetch [x] late in a
         replay; rewound, prefetch and access [l], evict it (by two
         accesses that collide in L1 and L2 if [conflict], else by
         invalidation), then prefetch it again just before [x]
         completes, while its dead slot is still queued behind [x];
         access [l] [d] later *)
  | Scan of int * int * int * int * int * int
      (* [x], [k], [a], [b], [n], [d]: prefetch lines [x .. x + k - 1]
         back to back, then replay [n] entries of a leaf scan whose keys
         sit in line [a] and values in line [b]: per entry a busy-1
         4-byte [Touch] of each, then [Advance d].  The touches run
         while the burst's slots complete, on lines that may be in
         flight, share an L1 set with each other or be evicted by a
         retiring slot *)
  | Pairs of int * int * int * int * int * int * bool
      (* [x], [k], [a], [b], [busy], [n], [warm]: with [warm] access
         lines [a] and [b] first; prefetch lines [x .. x + k - 1] back to
         back; then [Cache.touch_pairs] of [n] pairs on byte addresses in
         lines [a] and [b], against [n] times a busy-[busy] access of
         each.  Lines [a] and [b] may be one line, share an L1 set or be
         in the burst, and the burst's slots may fall due mid-run *)

let line_size = cfg.Config.line_size

let pp_step = function
  | Access a -> Printf.sprintf "Access %d" a
  | Prefetch a -> Printf.sprintf "Prefetch %d" a
  | Access_range (a, l) -> Printf.sprintf "Access_range (%d, %d)" a l
  | Prefetch_range (b, a, l) -> Printf.sprintf "Prefetch_range (%d, %d, %d)" b a l
  | Touch (b, a, l) -> Printf.sprintf "Touch (%d, %d, %d)" b a l
  | Burst (l, n) -> Printf.sprintf "Burst (%d, %d)" l n
  | Invalidate (a, l) -> Printf.sprintf "Invalidate (%d, %d)" a l
  | Flush -> "Flush"
  | Advance d -> Printf.sprintf "Advance %d" d
  | Until d -> Printf.sprintf "Until %d" d
  | Set d -> Printf.sprintf "Set %d" d
  | Join d -> Printf.sprintf "Join %d" d
  | Stale (x, l, c, d) -> Printf.sprintf "Stale (%d, %d, %b, %d)" x l c d
  | Scan (x, k, a, b, n, d) ->
      Printf.sprintf "Scan (%d, %d, %d, %d, %d, %d)" x k a b n d
  | Pairs (x, k, a, b, busy, n, warm) ->
      Printf.sprintf "Pairs (%d, %d, %d, %d, %d, %d, %b)" x k a b busy n warm

let gen_steps =
  let open QCheck2.Gen in
  let line =
    map3 (fun a b c -> a + (512 * b) + (32768 * c)) (0 -- 7) (0 -- 3) (0 -- 2)
  in
  let addr = map2 (fun l off -> (l * line_size) + off) line (0 -- (line_size - 1)) in
  let len = oneof [ 1 -- 8; 1 -- (4 * line_size) ] in
  let handlers = cfg.Config.miss_handlers in
  let pairs =
    let* x = line and* k = 1 -- handlers in
    (* a line of the burst, else one from the pool *)
    let near = oneof [ line; map (fun i -> x + i) (0 -- (k - 1)) ] in
    let* a = near in
    let* b = oneof [ pure a; map (fun j -> a + (512 * j)) (1 -- 3); near ]
    and* busy = 0 -- 3
    and* n = oneof [ 1 -- 4; 1 -- 64 ]
    and* warm = bool
    and* oa = 0 -- (line_size - 1)
    and* ob = 0 -- (line_size - 1) in
    pure (Pairs (x, k, (a * line_size) + oa, (b * line_size) + ob, busy, n, warm))
  in
  let step =
    frequency
      [
        (6, map (fun a -> Access a) addr);
        (6, map (fun a -> Prefetch a) addr);
        (2, map2 (fun a l -> Access_range (a, l)) addr len);
        (2, map3 (fun b a l -> Prefetch_range (b, a, l)) (0 -- 2) addr len);
        (3, map3 (fun b a l -> Touch (b, a, l)) (0 -- 3) addr len);
        (1, map2 (fun l n -> Burst (l, n)) line ((handlers + 1) -- ((2 * handlers) + 8)));
        (2, map2 (fun a l -> Invalidate (a, l)) addr len);
        (1, pure Flush);
        (4, map (fun d -> Advance d) (oneof [ 0 -- 40; 0 -- 400; 0 -- 4000 ]));
        (1, map (fun d -> Until d) (0 -- 600));
        (2, map (fun d -> Set d) (0 -- 600));
        (1, map (fun d -> Join d) (0 -- 200));
        (2, map4 (fun x l c d -> Stale (x, l, c, d)) line line bool (0 -- 300));
        ( 2,
          map3
            (fun (x, k) (a, b) (n, d) -> Scan (x, k, a, b, n, d))
            (pair line (1 -- handlers))
            (pair line line)
            (pair (1 -- 48) (0 -- 30)) );
        (3, pairs);
      ]
  in
  list_size (1 -- 80) step

let prop_cache_matches_reference =
  Util.qtest ~count:2000
    ~print:(fun steps -> String.concat "; " (List.map pp_step steps))
    "cache == hash-table/queue reference model" gen_steps (fun steps ->
      let clock = Clock.create () and stats = Stats.create () in
      let cache = Cache.create cfg clock stats in
      let rclock = Clock.create () and rstats = Stats.create () in
      let rcache = Ref_cache.create cfg rclock rstats in
      let ref_charge busy =
        if busy > 0 then begin
          Fpb_obs.Counter.add rstats.Stats.busy busy;
          Clock.advance rclock busy
        end
      in
      let both f g =
        f cache;
        g rcache;
        Clock.now clock = Clock.now rclock && Stats.kv stats = Stats.kv rstats
      in
      let clocks f = both (fun _ -> f clock) (fun _ -> f rclock) in
      let at l = l * line_size in
      let rec run = function
        | Access a -> both (fun c -> Cache.access c a) (fun c -> Ref_cache.access c a)
        | Prefetch a -> both (fun c -> Cache.prefetch c a) (fun c -> Ref_cache.prefetch c a)
        | Access_range (a, l) ->
            both (fun c -> Cache.access_range c a l) (fun c -> Ref_cache.access_range c a l)
        | Prefetch_range (b, a, l) ->
            both
              (fun c -> Cache.prefetch_range c ~busy_per_line:b a l)
              (fun c ->
                ref_charge (b * Ref_cache.lines_in c a l);
                Ref_cache.prefetch_range c a l)
        | Touch (b, a, l) ->
            both
              (fun c -> Cache.touch c ~busy:b a l)
              (fun c ->
                ref_charge b;
                Ref_cache.access_range c a l)
        | Burst (l, n) ->
            List.for_all (fun k -> run (Prefetch (at (l + k)))) (List.init n Fun.id)
        | Invalidate (a, l) ->
            both
              (fun c -> Cache.invalidate_range c a l)
              (fun c -> Ref_cache.invalidate_range c a l)
        | Flush -> both Cache.flush Ref_cache.flush
        | Advance d -> clocks (fun k -> Clock.advance k d)
        | Until d -> clocks (fun k -> Clock.advance_to k (Clock.floor k + d))
        | Set d -> clocks (fun k -> Clock.set k (Clock.floor k + d))
        | Join d -> clocks (fun k -> Clock.join k (Clock.now k + d))
        | Stale (x, l, conflict, d) ->
            let evict =
              if conflict then [ Access (at (l + 32768)); Access (at (l + 65536)) ]
              else [ Invalidate (at l, 1) ]
            in
            List.for_all run
              ([ Set 0; Advance 3000; Prefetch (at x); Set 0 ]
              @ [ Prefetch (at l); Access (at l) ]
              @ evict
              @ [ Until 3100; Prefetch (at l); Advance d; Access (at l) ])
        | Scan (x, k, a, b, n, d) ->
            run (Burst (x, k))
            && List.for_all run
                 (List.concat
                    (List.init n (fun i ->
                         let off = 4 * i mod line_size in
                         [ Touch (1, at a + off, 4); Touch (1, at b + off, 4); Advance d ])))
        | Pairs (x, k, a, b, busy, n, warm) ->
            (not warm || (run (Access a) && run (Access b)))
            && run (Burst (x, k))
            && both
                 (fun c -> Cache.touch_pairs c ~busy a b n)
                 (fun c ->
                   for _ = 1 to n do
                     ref_charge busy;
                     Ref_cache.access c a;
                     ref_charge busy;
                     Ref_cache.access c b
                   done)
      in
      List.for_all run steps)

(* Naive model of a timeline: one flag per time unit, never pruned.
   Spans are the maximal busy runs, so touching spans are one span, as in
   [Timeline].  The floor only rises and every request starts at or
   above it, so spans the timeline drops below the floor must not change
   any answer.  Adds scatter short spans over a wide window so the
   arrays must both grow and make room.  Wide enough for 60 chained
   12-unit slots past the last start. *)
let horizon = 2048

let prop_timeline_model =
  let open QCheck2.Gen in
  let op =
    oneof
      [
        map2 (fun a l -> `Add (a, l)) (0 -- 200) (0 -- 6);
        map2 (fun a l -> `Fit (a, l)) (0 -- 40) (0 -- 12);
        map (fun a -> `Free a) (0 -- 40);
        map2 (fun a l -> `Slot (a, l)) (0 -- 40) (0 -- 12);
        map (fun d -> `Floor d) (0 -- 8);
      ]
  in
  Util.qtest ~count:300 "timeline == boolean-array model"
    (list_size (1 -- 100) op)
    (fun ops ->
      let floor = ref 0 in
      let tl = Timeline.create ~floor:(fun () -> !floor) in
      let busy = Array.make horizon false in
      let free_from at =
        let t = ref at in
        while busy.(!t) do incr t done;
        !t
      in
      let rec fit at len =
        let s = free_from at in
        let rec clear k = k >= len || ((not busy.(s + k)) && clear (k + 1)) in
        if clear 0 then s else fit (s + 1) len
      in
      let runs () =
        let n = ref 0 in
        for t = 0 to horizon - 1 do
          if busy.(t) && (t = 0 || not busy.(t - 1)) then incr n
        done;
        !n
      in
      List.for_all
        (fun op ->
          (match op with
          | `Add (a, l) ->
              let s = !floor + a in
              let overlaps = Array.exists Fun.id (Array.sub busy s l) in
              Array.fill busy s l true;
              Timeline.add tl s (s + l) = overlaps
          | `Fit (a, len) ->
              let at = !floor + a in
              Timeline.fit tl ~at ~len = fit at (max len 1)
          | `Free a ->
              Timeline.free_from tl (!floor + a) = free_from (!floor + a)
          | `Slot (a, len) ->
              (* the memory pipeline's step: fit a slot, then take it *)
              let at = !floor + a in
              let s = fit at (max len 1) in
              Array.fill busy s len true;
              let s' = Timeline.fit tl ~at ~len in
              (not (Timeline.add tl s' (s' + len))) && s' = s
          | `Floor d ->
              floor := !floor + d;
              true)
          && Timeline.length tl <= runs ())
        ops)

(* On a clock that never goes backwards, the slot timeline of the memory
   pipeline reproduces the paper's [max (now + T1) (last + Tnext)], and
   pruning keeps it within its initial arrays. *)
let prop_timeline_monotone_pipeline =
  let open QCheck2.Gen in
  Util.qtest ~count:300 "monotone slot timeline == max (now+T1) (last+Tnext)"
    (triple (0 -- 300) (0 -- 40) (list_size (1 -- 100) (0 -- 60)))
    (fun (t1, gap, steps) ->
      let now = ref 0 and last = ref (min_int / 2) in
      let tl = Timeline.create ~floor:(fun () -> !now + t1 - gap) in
      List.for_all
        (fun dt ->
          now := !now + dt;
          let s = Timeline.fit tl ~at:(!now + t1 - gap) ~len:gap in
          ignore (Timeline.add tl s (s + gap) : bool);
          let c = s + gap in
          let expect = max (!now + t1) (!last + gap) in
          last := expect;
          c = expect && Timeline.length tl <= 8)
        steps)

(* [Mem.walk_pairs] against the per-entry loop it replaced: peek the
   key, stop above [hi], else a charged read of the key and then of the
   value.  Arrays sit at any byte offset, so keys and values may
   straddle lines, and prefetches issued first fall due mid-walk.  Both
   runs must make the same callbacks, return the same index and leave
   the same clock and counters. *)
let prop_walk_pairs_matches_reads =
  let open QCheck2.Gen in
  let gen =
    let* n = 1 -- 64 in
    let* keys = 0 -- 300 and* values = 0 -- 300 and* i = 0 -- (n - 1)
    (* often every key, so walks cross lines *)
    and* hi = oneof [ 0 -- 60; pure 100 ]
    and* prefetch = list_size (0 -- 20) (0 -- 700)
    and* seed = int in
    pure (n, keys, values, i, hi, prefetch, seed)
  in
  Util.qtest ~count:500 "walk_pairs == per-entry key and value reads" gen
    (fun (n, keys, values, i, hi, prefetch, seed) ->
      let page = Bytes.create 1024 in
      let rng = Random.State.make [| seed |] in
      for j = 0 to 255 do
        Bytes.set_int32_le page (4 * j) (Int32.of_int (Random.State.int rng 50))
      done;
      let walk run =
        let sim = Sim.create () in
        let r = Mem.make ~bytes:page ~base:8192 in
        List.iter (fun off -> Mem.prefetch sim r ~off ~len:4) prefetch;
        let seen = ref [] in
        let j = run sim r (fun k v -> seen := (k, v) :: !seen) in
        (j, !seen, Sim.now sim, Stats.kv sim.Sim.stats)
      in
      let by_entry sim r f =
        let rec go i =
          if i >= n then i
          else
            let k = Mem.peek_i32 r (keys + (4 * i)) in
            if k > hi then i
            else begin
              let k = Mem.read_i32 sim r (keys + (4 * i)) in
              f k (Mem.read_i32 sim r (values + (4 * i)));
              go (i + 1)
            end
        in
        go i
      in
      walk (fun sim r f -> Mem.walk_pairs sim r ~keys ~values ~n ~hi i f)
      = walk by_entry)

(* [Mem.write_pairs] against the per-entry loop it replaced: [write_i32]
   of each key, then of its value.  Two sims are prepared alike: warm
   lines in the written region and in two regions that share its L1 sets,
   prefetches issued between busy gaps so they fall due at varied times
   during the writes.  Arrays start at any byte, so entries straddle
   lines.  Both runs must leave the same bytes, span, clock and counters,
   and a follow-up run of reads over the three regions, which evicts by
   LRU order, must cost the same and read the same. *)
let prop_write_pairs_matches_writes =
  let open QCheck2.Gen in
  let region_off = pair (0 -- 2) (0 -- 4092) in
  let prep_op =
    oneof
      [
        map (fun ro -> `Warm ro) region_off;
        map2 (fun off len -> `Prefetch (off, len)) (0 -- 4000) (1 -- 96);
        map (fun c -> `Busy c) (0 -- 400);
      ]
  in
  let gen =
    let* n = 0 -- 200 in
    let* keys = 0 -- 1200 and* values = 0 -- 1200
    and* pos = 0 -- 5
    and* prep = list_size (0 -- 60) prep_op
    and* after = list_size (0 -- 80) region_off
    and* seed = int in
    pure (n, keys, values, pos, prep, after, seed)
  in
  Util.qtest ~count:500 "write_pairs == per-entry key and value writes" gen
    (fun (n, keys, values, pos, prep, after, seed) ->
      let rng = Random.State.make [| seed |] in
      let src =
        Array.init (pos + n) (fun _ -> (Random.State.bits rng, Random.State.bits rng - (1 lsl 29)))
      in
      let init = Bytes.init 4096 (fun _ -> Char.chr (Random.State.int rng 256)) in
      let run write =
        let sim = Sim.create () in
        let set = sim.Sim.cfg.Config.l1_size / sim.cfg.l1_assoc in
        let regions =
          Array.init 3 (fun i ->
              Mem.make ~bytes:(Bytes.copy init) ~base:(8192 + (i * set)))
        in
        let r = regions.(0) in
        List.iter
          (function
            | `Warm (i, off) -> ignore (Mem.read_u8 sim regions.(i) off)
            | `Prefetch (off, len) -> Mem.prefetch sim r ~off ~len
            | `Busy c -> Sim.charge_busy sim c)
          prep;
        write sim r;
        let state =
          (Bytes.to_string r.bytes, r.span.lo, r.span.hi, Sim.now sim, Stats.kv sim.stats)
        in
        let reads = List.map (fun (i, off) -> Mem.read_i32 sim regions.(i) off) after in
        (state, reads, Sim.now sim, Stats.kv sim.stats)
      in
      let by_entry sim r =
        for j = 0 to n - 1 do
          let k, v = src.(pos + j) in
          Mem.write_i32 sim r (keys + (4 * j)) k;
          Mem.write_i32 sim r (values + (4 * j)) v
        done
      in
      run (fun sim r -> Mem.write_pairs sim r ~keys ~values src pos n) = run by_entry)

let suite =
  [
    Alcotest.test_case "clock" `Quick test_clock;
    Alcotest.test_case "cold miss latency" `Quick test_cold_miss_latency;
    Alcotest.test_case "prefetched node T1+(w-1)Tnext" `Quick test_prefetched_node_cost;
    Alcotest.test_case "unprefetched node serial misses" `Quick test_unprefetched_node_cost;
    Alcotest.test_case "L2 hit after L1 eviction" `Quick test_l2_hit;
    Alcotest.test_case "invalidate range" `Quick test_invalidate;
    Alcotest.test_case "miss handler bound" `Quick test_miss_handler_bound;
    Alcotest.test_case "flush" `Quick test_flush;
    Alcotest.test_case "mem accessors" `Quick test_mem_accessors;
    Alcotest.test_case "busy accounting" `Quick test_busy_accounting;
    Alcotest.test_case "create rejects 0 miss handlers" `Quick
      test_create_rejects_no_miss_handlers;
    Alcotest.test_case "create rejects non-power-of-two L1 sets" `Quick
      test_create_rejects_l1_sets;
    Alcotest.test_case "create rejects non-power-of-two L2 lines" `Quick
      test_create_rejects_l2_lines;
    prop_prefetch_batch_cost;
    prop_cache_matches_reference;
    prop_walk_pairs_matches_reads;
    prop_write_pairs_matches_writes;
    prop_timeline_model;
    prop_timeline_monotone_pipeline;
    Alcotest.test_case "mem written span" `Quick test_mem_span;
  ]
