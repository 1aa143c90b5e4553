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
    prop_prefetch_batch_cost;
    prop_timeline_model;
    prop_timeline_monotone_pipeline;
  ]
