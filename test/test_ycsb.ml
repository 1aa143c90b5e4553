(* YCSB workload suite tests: distribution shape against closed-form
   targets, mix proportion convergence, and the open-loop queueing
   semantics of [Driver] (latency measured from arrival, so an
   overloaded schedule must show p99 far above the service time). *)

open Fpb_workload

let p h q = Fpb_obs.Histogram.percentile h q

(* Prng.float in [0, 1); Prng.exponential positive with the right mean. *)
let test_float_exponential () =
  let rng = Prng.create 17 in
  for _ = 1 to 10_000 do
    let f = Prng.float rng in
    if f < 0. || f >= 1. then Alcotest.failf "float out of [0,1): %f" f
  done;
  let mean = 5.0 and n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let x = Prng.exponential rng ~mean in
    if x < 0. then Alcotest.failf "negative exponential draw %f" x;
    sum := !sum +. x
  done;
  let emp = !sum /. float_of_int n in
  if abs_float (emp -. mean) > 0.05 *. mean then
    Alcotest.failf "exponential mean %f, want ~%f" emp mean

(* The power-law sampler has the closed-form CDF
   P(rank < r) = (r/n)^(1-theta); check the empirical CDF against it,
   and that head frequencies are monotone non-increasing. *)
let test_zipf_shape () =
  let n = 1000 and theta = 0.99 and draws = 200_000 in
  let rng = Prng.create 23 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Keygen.zipf_rank rng ~n ~theta in
    counts.(r) <- counts.(r) + 1
  done;
  for r = 1 to 4 do
    if counts.(r) > counts.(r - 1) then
      Alcotest.failf "head not monotone: count(%d)=%d > count(%d)=%d" r
        counts.(r) (r - 1) counts.(r - 1)
  done;
  List.iter
    (fun r ->
      let below = ref 0 in
      for i = 0 to r - 1 do below := !below + counts.(i) done;
      let emp = float_of_int !below /. float_of_int draws in
      let target = (float_of_int r /. float_of_int n) ** (1. -. theta) in
      if abs_float (emp -. target) > 0.01 then
        Alcotest.failf "CDF at rank %d: empirical %.4f, target %.4f" r emp
          target)
    [ 1; 10; 100; 1000 ]

(* Higher theta concentrates more mass on the hottest 1% of ranks. *)
let test_zipf_theta_orders_skew () =
  let n = 10_000 and draws = 50_000 in
  let top1 theta =
    let rng = Prng.create 29 in
    let hot = ref 0 in
    for _ = 1 to draws do
      if Keygen.zipf_rank rng ~n ~theta < n / 100 then incr hot
    done;
    float_of_int !hot /. float_of_int draws
  in
  let low = top1 0.5 and mid = top1 0.8 and high = top1 0.99 in
  if not (low < mid && mid < high) then
    Alcotest.failf "top-1%% mass not ordered by theta: %.3f %.3f %.3f" low mid
      high;
  (* Closed form: (0.01)^(1-theta) = 0.955 at theta = 0.99. *)
  if high < 0.9 then Alcotest.failf "theta 0.99 head mass %.3f, want > 0.9" high

(* The FNV scramble is deterministic, lands in [0, n), and spreads the
   hot head ranks across the whole position space. *)
let test_scramble () =
  let n = 1000 in
  let images = Array.init 100 (fun r -> Keygen.scramble ~n r) in
  Array.iteri
    (fun r img ->
      if img < 0 || img >= n then Alcotest.failf "scramble(%d) = %d" r img;
      if img <> Keygen.scramble ~n r then Alcotest.failf "not deterministic")
    images;
  let distinct = List.sort_uniq compare (Array.to_list images) in
  if List.length distinct < 90 then
    Alcotest.failf "only %d distinct images of 100 ranks"
      (List.length distinct);
  let lo = Array.fold_left min max_int images
  and hi = Array.fold_left max 0 images in
  if hi - lo < n / 2 then
    Alcotest.failf "hot ranks not spread: images span [%d, %d] of %d" lo hi n

(* [Latest] anchors at the newest position: almost all draws land in
   the top 1% of the key-age array. *)
let test_latest_head () =
  let n = 1000 and draws = 10_000 in
  let rng = Prng.create 31 in
  let dist = Keygen.Latest { theta = Keygen.default_theta } in
  let hot = ref 0 in
  for _ = 1 to draws do
    if Keygen.draw_pos dist rng ~n >= n - (n / 100) then incr hot
  done;
  let frac = float_of_int !hot /. float_of_int draws in
  if frac < 0.9 then Alcotest.failf "latest head mass %.3f, want > 0.9" frac

(* Under mix D the read side keeps up with the insert frontier: late in
   the run, most reads target keys that were inserted during the run
   rather than bulk-loaded. *)
let test_latest_tracks_frontier () =
  let rng = Prng.create 37 in
  let pairs = Keygen.bulk_pairs rng 2_000 in
  let loaded = Hashtbl.create 4096 in
  Array.iter (fun (k, _) -> Hashtbl.replace loaded k ()) pairs;
  let gen = Mix.generator ~seed:41 Mix.d pairs in
  let fresh_reads = ref 0 and late_reads = ref 0 in
  for i = 1 to 4_000 do
    match Mix.next gen with
    | Mix.Read k when i > 2_000 ->
        incr late_reads;
        if not (Hashtbl.mem loaded k) then incr fresh_reads
    | _ -> ()
  done;
  Alcotest.(check bool) "inserts grew the key set" true
    (Mix.live_keys gen > 2_000);
  let frac = float_of_int !fresh_reads /. float_of_int (max 1 !late_reads) in
  if frac < 0.5 then
    Alcotest.failf "only %.2f of late reads hit run-inserted keys" frac

(* Drawn proportions converge to the mix percentages. *)
let test_mix_proportions () =
  let rng = Prng.create 43 in
  let pairs = Keygen.bulk_pairs rng 5_000 in
  let check mix =
    let gen = Mix.generator ~seed:47 mix pairs in
    let n = 20_000 in
    for _ = 1 to n do ignore (Mix.next gen) done;
    let r, u, i, s, m = Mix.drawn_counts gen in
    let pct c = 100. *. float_of_int c /. float_of_int n in
    List.iter
      (fun (kind, got, want) ->
        if abs_float (got -. float_of_int want) > 2. then
          Alcotest.failf "%s: %s drawn %.1f%%, mix says %d%%" mix.Mix.name kind
            got want)
      [
        ("read", pct r, mix.Mix.read);
        ("update", pct u, mix.Mix.update);
        ("insert", pct i, mix.Mix.insert);
        ("scan", pct s, mix.Mix.scan);
        ("rmw", pct m, mix.Mix.rmw);
      ]
  in
  List.iter check Mix.all

(* Open-loop semantics against a synthetic fixed-service-time op
   (1 ms), 4 clients, so capacity is exactly 4000 ops/s.

   Below saturation with fixed arrivals there is no queueing at all:
   recorded latency is exactly the service time.  At twice capacity the
   backlog grows linearly and recorded latency — measured from
   *arrival* — must dwarf the service time.  A closed-loop driver
   cannot show this difference; see docs/WORKLOADS.md. *)
let test_open_loop_queueing () =
  let service_ns = 1_000_000 in
  let run rate =
    let sim = Fpb_simmem.Sim.create () in
    Driver.run ~sim
      (Driver.config ~n_clients:4 ~seed:7
         (Driver.open_loop ~discipline:Driver.Fixed ~n_ops:2_000 rate))
      (Driver.each (fun ~client:_ ~seq:_ ->
           Fpb_simmem.Clock.advance sim.Fpb_simmem.Sim.clock service_ns))
  in
  let calm = run 1_000. in
  Alcotest.(check int) "no queueing below saturation" 0
    (Fpb_obs.Histogram.max_value calm.Driver.queue_ns);
  Alcotest.(check int) "calm p99 = service time"
    (p calm.Driver.service_ns 99.)
    (p calm.Driver.latency 99.);
  let hot = run 8_000. in
  if p hot.Driver.latency 99. < 50 * p hot.Driver.service_ns 99. then
    Alcotest.failf "overloaded p99 %d ns not >> service p99 %d ns"
      (p hot.Driver.latency 99.)
      (p hot.Driver.service_ns 99.);
  if hot.Driver.max_backlog < 100 then
    Alcotest.failf "overloaded backlog %d, want growth" hot.Driver.max_backlog;
  (* Overloaded makespan is set by capacity, not the offered rate. *)
  let want = 2_000 * service_ns / 4 in
  if abs (hot.Driver.makespan_ns - want) > want / 10 then
    Alcotest.failf "makespan %d ns, want ~%d ns" hot.Driver.makespan_ns want

(* Every op is dispatched exactly once, in per-client FIFO order. *)
let test_open_loop_dispatches_all () =
  let sim = Fpb_simmem.Sim.create () in
  let seen = Array.make 500 0 in
  let stats =
    Driver.run ~sim
      (Driver.config ~n_clients:3 ~seed:11
         (Driver.open_loop ~n_ops:500 100_000.))
      (Driver.each (fun ~client ~seq ->
           Alcotest.(check int) "round-robin client" (seq mod 3) client;
           seen.(seq) <- seen.(seq) + 1))
  in
  Array.iteri
    (fun j c -> if c <> 1 then Alcotest.failf "op %d dispatched %d times" j c)
    seen;
  Alcotest.(check int) "ops counted" 500 stats.Driver.ops

(* Batch server against the same synthetic oracle: ONE server whose
   per-dispatch service time is a fixed 1 ms however many ops the batch
   holds, so capacity is exactly [batch * 1000] ops/s and every queueing
   figure has a closed form under fixed arrivals. *)
let batch_oracle ~rate ~batch ~batch_wait_ns ?(n_ops = 2_000) ?on_batch () =
  let service_ns = 1_000_000 in
  let sim = Fpb_simmem.Sim.create () in
  Driver.run ~sim
    (Driver.config ~seed:7 ~batch ~batch_wait_ns
       (Driver.open_loop ~discipline:Driver.Fixed ~n_ops rate))
    (fun ~client:_ seqs ->
      (match on_batch with Some f -> f seqs | None -> ());
      Fpb_simmem.Clock.advance sim.Fpb_simmem.Sim.clock service_ns)

(* Below saturation, size-triggered: at 500 ops/s (2 ms gaps) a batch of
   4 fills in exactly 3 gaps, so the head waits exactly 6 ms and every
   dispatch is full. *)
let test_batch_size_trigger () =
  let s =
    batch_oracle ~rate:500. ~batch:4 ~batch_wait_ns:10_000_000 ()
  in
  Alcotest.(check int) "all ops served" 2_000 s.Driver.ops;
  Alcotest.(check int) "full batches" 500 s.Driver.batches;
  Alcotest.(check int)
    "head waits exactly 3 arrival gaps" 6_000_000
    (Fpb_obs.Histogram.max_value s.Driver.queue_ns);
  Alcotest.(check int)
    "freshest op never waits" 0
    (Fpb_obs.Histogram.min_value s.Driver.queue_ns)

(* Below saturation, timeout-triggered: with the size trigger out of
   reach the oldest op waits exactly [batch_wait_ns], and the batch
   holds just the ops that arrived inside the window. *)
let test_batch_timeout_trigger () =
  let s =
    batch_oracle ~rate:500. ~batch:64 ~batch_wait_ns:3_000_000 ()
  in
  Alcotest.(check int) "all ops served" 2_000 s.Driver.ops;
  Alcotest.(check int) "two ops arrive per 3 ms window" 1_000 s.Driver.batches;
  Alcotest.(check int)
    "head waits exactly the timeout" 3_000_000
    (Fpb_obs.Histogram.max_value s.Driver.queue_ns)

(* Around capacity: at 8000 ops/s a batch-8 server (capacity 8000)
   keeps the backlog bounded and finishes with the arrival schedule,
   while batch 4 (capacity 4000) queues for the whole run and its
   makespan is set by service capacity, not the offered rate. *)
let test_batch_capacity () =
  let keeps_up = batch_oracle ~rate:8_000. ~batch:8 ~batch_wait_ns:10_000_000 () in
  if keeps_up.Driver.max_backlog > 32 then
    Alcotest.failf "backlog %d at capacity, want bounded"
      keeps_up.Driver.max_backlog;
  let hot = batch_oracle ~rate:8_000. ~batch:4 ~batch_wait_ns:10_000_000 () in
  if hot.Driver.max_backlog < 100 then
    Alcotest.failf "overloaded backlog %d, want growth" hot.Driver.max_backlog;
  let want = 2_000 / 4 * 1_000_000 in
  if abs (hot.Driver.makespan_ns - want) > want / 10 then
    Alcotest.failf "overloaded makespan %d ns, want ~%d ns"
      hot.Driver.makespan_ns want;
  if p hot.Driver.latency 99. < 50 * p hot.Driver.service_ns 99. then
    Alcotest.failf "overloaded p99 %d ns not >> service p99 %d ns"
      (p hot.Driver.latency 99.)
      (p hot.Driver.service_ns 99.)

(* Every op is dispatched exactly once, batches in arrival order. *)
let test_batch_dispatches_all () =
  let seen = Array.make 500 0 in
  let last = ref (-1) in
  let s =
    batch_oracle ~rate:100_000. ~batch:8 ~batch_wait_ns:1_000_000 ~n_ops:500
      ~on_batch:(fun seqs ->
        Array.iter
          (fun seq ->
            if seq <= !last then
              Alcotest.failf "seq %d after %d: not arrival order" seq !last;
            last := seq;
            seen.(seq) <- seen.(seq) + 1)
          seqs)
      ()
  in
  Array.iteri
    (fun j c -> if c <> 1 then Alcotest.failf "op %d dispatched %d times" j c)
    seen;
  Alcotest.(check int) "ops counted" 500 s.Driver.ops

(* Out-of-range parameters (the ones [fpb ycsb] used to crash on) come
   back from [Driver.check] as an error, and [Driver.run] refuses them
   before touching the clock. *)
let test_driver_check () =
  let open_ ?(rate = 1_000.) () = Driver.open_loop ~n_ops:10 rate in
  let closed = Driver.Closed { ops_per_client = 10 } in
  List.iter
    (fun (name, cfg) ->
      match Driver.check cfg with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s accepted" name)
    [
      ("0 clients", Driver.config ~n_clients:0 closed);
      ("-2 clients", Driver.config ~n_clients:(-2) closed);
      ("rate 0", Driver.config (open_ ~rate:0. ()));
      ("rate -5", Driver.config (open_ ~rate:(-5.) ()));
      ("deadline 0", Driver.config ~deadline_ns:0 (open_ ()));
      ("batch wait -1", Driver.config ~batch:4 ~batch_wait_ns:(-1) (open_ ()));
    ];
  Alcotest.(check bool)
    "in-range config accepted" true
    (Driver.check (Driver.config ~n_clients:3 ~batch:4 ~deadline_ns:1 closed)
    = Ok ());
  let sim = Fpb_simmem.Sim.create () in
  match
    Driver.run ~sim (Driver.config ~n_clients:0 closed) (fun ~client:_ _ -> ())
  with
  | _ -> Alcotest.fail "run accepted 0 clients"
  | exception Invalid_argument _ -> ()

(* Exact stats of every driver on a fixed grid of configurations, so
   that a change to any dispatch decision shows up as a changed figure.
   The synthetic op charges some CPU time and then holds one shared
   resource that keeps an absolute free-at time (like a disk), so the
   order in which the drivers interleave clients changes every number
   below.  A batch holds the resource longer per op it carries. *)
let shared_op sim =
  let clock = sim.Fpb_simmem.Sim.clock in
  let free_at = ref 0 in
  fun ~key ~k ->
    Fpb_simmem.Clock.advance clock (20_000 + (key * 7_919 mod 60_000));
    let start = max (Fpb_simmem.Clock.now clock) !free_at in
    free_at := start + 30_000 + (k * 10_000) + (key * 104_729 mod 40_000);
    Fpb_simmem.Clock.advance_to clock !free_at

let pinned_cells =
  let lat h =
    Printf.sprintf "lat %d/%d/%d" (Fpb_obs.Histogram.count h)
      (Fpb_obs.Histogram.sum h) (p h 99.)
  in
  let clock sim =
    Printf.sprintf " clock %d" (Fpb_simmem.Clock.now sim.Fpb_simmem.Sim.clock)
  in
  let closed n =
    ( Printf.sprintf "closed c%d" n,
      fun () ->
        let sim = Fpb_simmem.Sim.create () in
        let op = shared_op sim in
        let s =
          Driver.run ~sim
            (Driver.config ~n_clients:n (Driver.Closed { ops_per_client = 40 }))
            (Driver.each (fun ~client ~seq ->
                 op ~key:((client * 1000) + seq) ~k:1))
        in
        Printf.sprintf "makespan %d %s" s.makespan_ns (lat s.latency)
        ^ clock sim )
  in
  let opened ?rate_change name discipline admission retry =
    ( name,
      fun () ->
        let sim = Fpb_simmem.Sim.create () in
        let op = shared_op sim in
        let s =
          Driver.run ~sim
            (Driver.config ~n_clients:3 ~seed:5 ~deadline_ns:1_000_000
               ~admission ~retry
               (Driver.open_loop ~discipline ?rate_change ~n_ops:300 20_000.))
            (Driver.each (fun ~client ~seq ->
                 op ~key:((client * 1000) + seq) ~k:1))
        in
        Printf.sprintf
          "makespan %d %s backlog %d done %d good %d shed %d expired %d \
           retries %d dropped %d"
          s.makespan_ns (lat s.latency) s.max_backlog s.completed s.good s.shed
          s.expired s.retries s.dropped
        ^ clock sim )
  in
  let batched batch wait =
    ( Printf.sprintf "batch B%d wait %d" batch wait,
      fun () ->
        let sim = Fpb_simmem.Sim.create () in
        let op = shared_op sim in
        let s =
          Driver.run ~sim
            (Driver.config ~seed:5 ~batch ~batch_wait_ns:wait
               (Driver.open_loop ~n_ops:300 20_000.))
            (fun ~client:_ seqs -> op ~key:seqs.(0) ~k:(Array.length seqs))
        in
        Printf.sprintf "makespan %d %s backlog %d batches %d" s.makespan_ns
          (lat s.latency) s.max_backlog s.batches
        ^ clock sim )
  in
  let jitter =
    {
      Retry.discipline =
        Retry.Backoff { base_ns = 200_000; mult = 2; jitter = true };
      budget = 3;
    }
  in
  List.map closed [ 1; 3; 8 ]
  @ List.concat_map
      (fun (dn, d) ->
        List.concat_map
          (fun (an, a) ->
            List.map
              (fun (rn, r) ->
                opened (Printf.sprintf "open %s %s %s" dn an rn) d a r)
              [ ("none", Retry.none); ("jitter", jitter) ])
          [
            ("admit-all", Admission.Admit_all);
            ("cap4", Admission.Queue_cap 4);
            ("deadline", Admission.Deadline_aware);
          ])
      [ ("poisson", Driver.Poisson); ("fixed", Driver.Fixed) ]
  @ [
      opened ~rate_change:(150, 5_000.) "open rate-change" Driver.Poisson
        (Admission.Queue_cap 4) jitter;
    ]
  @ List.concat_map
      (fun b -> List.map (batched b) [ 0; 2_000_000 ])
      [ 1; 4; 16 ]

let pinned_expected =
  [
    ( "closed c1",
      "makespan 4305440 lat 40/4305440/147976 clock 4305440" );
    ( "closed c3",
      "makespan 7184860 lat 120/21376287/208895 clock 7184860" );
    ( "closed c8",
      "makespan 19227960 lat 320/152199612/536025 clock 19227960" );
    ( "open poisson admit-all none",
      "makespan 18201512 lat 300/288410940/1998847 backlog 32 \
       done 300 good 158 shed 0 expired 142 retries 0 dropped 0 \
       clock 18201512" );
    ( "open poisson admit-all jitter",
      "makespan 18201512 lat 300/288410940/1998847 backlog 32 \
       done 300 good 158 shed 0 expired 142 retries 0 dropped 0 \
       clock 18201512" );
    ( "open poisson cap4 none",
      "makespan 16938628 lat 280/158853216/958644 backlog 12 done \
       280 good 280 shed 20 expired 0 retries 0 dropped 20 clock \
       16938628" );
    ( "open poisson cap4 jitter",
      "makespan 17268983 lat 286/209081766/1998847 backlog 12 \
       done 286 good 261 shed 156 expired 25 retries 142 dropped \
       14 clock 17268983" );
    ( "open poisson deadline none",
      "makespan 17195893 lat 285/199774107/1146879 backlog 18 \
       done 285 good 248 shed 13 expired 39 retries 0 dropped 15 \
       clock 17195893" );
    ( "open poisson deadline jitter",
      "makespan 17210974 lat 285/207523452/1146879 backlog 18 \
       done 285 good 237 shed 60 expired 50 retries 47 dropped 15 \
       clock 17210974" );
    ( "open fixed admit-all none",
      "makespan 18122569 lat 300/486652331/3080191 backlog 49 \
       done 300 good 85 shed 0 expired 215 retries 0 dropped 0 \
       clock 18122569" );
    ( "open fixed admit-all jitter",
      "makespan 18122569 lat 300/486652331/3080191 backlog 49 \
       done 300 good 85 shed 0 expired 215 retries 0 dropped 0 \
       clock 18122569" );
    ( "open fixed cap4 none",
      "makespan 15749476 lat 261/190818490/933887 backlog 12 done \
       261 good 261 shed 39 expired 0 retries 0 dropped 39 clock \
       15749476" );
    ( "open fixed cap4 jitter",
      "makespan 16030796 lat 267/222061575/1671167 backlog 12 \
       done 267 good 225 shed 270 expired 42 retries 237 dropped \
       33 clock 16030796" );
    ( "open fixed deadline none",
      "makespan 16037187 lat 270/247501322/1146879 backlog 17 \
       done 270 good 89 shed 30 expired 181 retries 0 dropped 30 \
       clock 16037187" );
    ( "open fixed deadline jitter",
      "makespan 15982055 lat 267/239949847/1212415 backlog 17 \
       done 267 good 126 shed 137 expired 145 retries 108 dropped \
       33 clock 15982055" );
    ( "open rate-change",
      "makespan 40066591 lat 300/101702532/933887 backlog 12 done \
       300 good 300 shed 9 expired 0 retries 9 dropped 0 clock \
       40066591" );
    ( "batch B1 wait 0",
      "makespan 32917028 lat 300/2473041069/16515071 backlog 151 \
       batches 300 clock 32917028" );
    ( "batch B1 wait 2000000",
      "makespan 32917028 lat 300/2473041069/16515071 backlog 151 \
       batches 300 clock 32917028" );
    ( "batch B4 wait 0",
      "makespan 16385514 lat 300/62591354/401407 backlog 10 \
       batches 126 clock 16385514" );
    ( "batch B4 wait 2000000",
      "makespan 16408515 lat 300/70333003/483327 backlog 7 \
       batches 75 clock 16408515" );
    ( "batch B16 wait 0",
      "makespan 16431994 lat 300/58753887/303103 backlog 7 \
       batches 125 clock 16431994" );
    ( "batch B16 wait 2000000",
      "makespan 17867690 lat 300/215576535/2064383 backlog 16 \
       batches 19 clock 17867690" );
  ]

let test_drivers_pinned () =
  List.iter2
    (fun (name, cell) (name', want) ->
      Alcotest.(check string) name name' name;
      Alcotest.(check string) name want (cell ()))
    pinned_cells pinned_expected

let suite =
  [
    Alcotest.test_case "prng float and exponential" `Quick
      test_float_exponential;
    Alcotest.test_case "zipf matches closed-form CDF" `Quick test_zipf_shape;
    Alcotest.test_case "zipf theta orders skew" `Quick
      test_zipf_theta_orders_skew;
    Alcotest.test_case "scramble deterministic and spreading" `Quick
      test_scramble;
    Alcotest.test_case "latest is frontier-anchored" `Quick test_latest_head;
    Alcotest.test_case "latest tracks insert frontier" `Quick
      test_latest_tracks_frontier;
    Alcotest.test_case "mix proportions converge" `Quick test_mix_proportions;
    Alcotest.test_case "open loop records queueing delay" `Quick
      test_open_loop_queueing;
    Alcotest.test_case "open loop dispatches every op once" `Quick
      test_open_loop_dispatches_all;
    Alcotest.test_case "batch server: size trigger fills batches" `Quick
      test_batch_size_trigger;
    Alcotest.test_case "batch server: timeout caps the head wait" `Quick
      test_batch_timeout_trigger;
    Alcotest.test_case "batch server: capacity scales with the batch" `Quick
      test_batch_capacity;
    Alcotest.test_case "batch server dispatches every op once" `Quick
      test_batch_dispatches_all;
    Alcotest.test_case "driver rejects out-of-range parameters" `Quick
      test_driver_check;
    Alcotest.test_case "drivers pinned" `Quick test_drivers_pinned;
  ]
