(* Overload-control tests: the queue-cap loss oracle against its
   closed form, deadline-aware dispatch semantics, retry-budget
   termination under random rates (qcheck), the typed [Overloaded]
   surface at pool exhaustion, and background-work backpressure. *)

open Fpb_workload
module Sim = Fpb_simmem.Sim
module Clock = Fpb_simmem.Clock
module Buffer_pool = Fpb_storage.Buffer_pool
module Page_store = Fpb_storage.Page_store
module Scrub = Fpb_storage.Scrub

(* Synthetic fixed-service op: with [n_clients] clients the system's
   capacity is exactly n_clients / service. *)
let service_ns = 1_000_000

let run_fixed ?deadline_ns ?admission ?retry ?(n_ops = 2_000)
    ?(n_clients = 4) ?batch rate =
  let sim = Sim.create () in
  Driver.run ~sim
    (Driver.config ~n_clients ?batch ~seed:7 ?deadline_ns ?admission ?retry
       (Driver.open_loop ~discipline:Driver.Fixed ~n_ops rate))
    (Driver.each (fun ~client:_ ~seq:_ ->
         Clock.advance sim.Sim.clock service_ns))

(* Queue-cap loss oracle.  Deterministic arrivals at twice capacity
   against bounded queues: once the queues fill, the system admits at
   exactly its service rate, so over the arrival window it admits
   ops x (capacity/offered) plus the n_clients x cap ops that filled
   the queues.  Everything else is shed. *)
let test_queue_cap_loss_closed_form () =
  let n_ops = 2_000 and cap = 8 and n_clients = 4 in
  let st =
    run_fixed ~n_ops ~n_clients ~admission:(Admission.Queue_cap cap) 8_000.
  in
  let want_shed = (n_ops / 2) - (n_clients * cap) in
  let tolerance = n_ops / 40 in
  if abs (st.Driver.shed - want_shed) > tolerance then
    Alcotest.failf "shed %d, closed form ~%d (+-%d)" st.Driver.shed want_shed
      tolerance;
  Alcotest.(check int) "no retries: every op completes or is shed"
    st.Driver.ops
    (st.Driver.completed + st.Driver.dropped);
  Alcotest.(check int) "every shed op is dropped" st.Driver.shed
    st.Driver.dropped;
  (* The cap binds the backlog where admit-all would let it run away. *)
  if st.Driver.max_backlog > n_clients * cap then
    Alcotest.failf "backlog %d above the %d-slot bound" st.Driver.max_backlog
      (n_clients * cap)

(* Deadline-aware dispatch: an op is never *started* past its deadline,
   so no completion can be later than deadline + one dispatch's service
   time (one op, or a batch of [batch] ops served in turn); ops it
   cannot serve in time are shed or expired, never silently lost. *)
let test_deadline_aware_never_serves_stale () =
  let deadline_ns = 10 * service_ns in
  List.iter
    (fun batch ->
      let st =
        run_fixed ~deadline_ns ~admission:Admission.Deadline_aware ~batch
          12_000.
      in
      let worst = Fpb_obs.Histogram.max_value st.Driver.latency in
      if worst > deadline_ns + (batch * service_ns) then
        Alcotest.failf "batch %d: completion at %d ns, deadline %d + %d x %d"
          batch worst deadline_ns batch service_ns;
      Alcotest.(check int) "completed + dropped = offered" st.Driver.ops
        (st.Driver.completed + st.Driver.dropped);
      if st.Driver.good > st.Driver.completed then
        Alcotest.failf "good %d > completed %d" st.Driver.good
          st.Driver.completed;
      if st.Driver.shed = 0 then
        Alcotest.failf "3x capacity with deadline admission must shed";
      if batch > 1 && st.Driver.mean_batch <= 1. then
        Alcotest.failf "batch %d: dispatches never batched" batch)
    [ 1; 4 ]

(* Backlog telemetry: past capacity the backlog peaks and the run
   spends real time above the watermark; below capacity with fixed
   arrivals it never leaves zero. *)
let test_backlog_accounting () =
  let hot = run_fixed 8_000. in
  if hot.Driver.max_backlog = 0 then Alcotest.failf "no backlog at 2x";
  if hot.Driver.backlog_peak_at_ns <= 0 then
    Alcotest.failf "peak at %d ns" hot.Driver.backlog_peak_at_ns;
  if hot.Driver.backlog_peak_at_ns > hot.Driver.makespan_ns then
    Alcotest.failf "peak after the run ended";
  if hot.Driver.time_above_watermark_ns <= 0 then
    Alcotest.failf "2x run spent no time above watermark %d"
      hot.Driver.backlog_watermark;
  let calm = run_fixed 1_000. in
  Alcotest.(check int) "below capacity never crosses the watermark" 0
    calm.Driver.time_above_watermark_ns

(* Retry budgets terminate: whatever the rate, discipline and budget,
   every op either completes or is dropped, and the re-entry count is
   bounded by ops x budget. *)
let test_retry_budget_terminates =
  Util.qtest ~count:25 "retry budget terminates (no livelock)"
    QCheck2.Gen.(
      triple (int_range 500 20_000) (int_range 0 12) bool)
    (fun (rate, budget, jitter) ->
      let retry =
        if budget = 0 then Retry.none
        else if jitter then
          {
            Retry.discipline =
              Retry.Backoff { base_ns = 200_000; mult = 2; jitter = true };
            budget;
          }
        else { Retry.discipline = Retry.Fixed 200_000; budget }
      in
      let st =
        run_fixed ~n_ops:300 ~deadline_ns:(4 * service_ns)
          ~admission:(Admission.Queue_cap 4) ~retry (float_of_int rate)
      in
      st.Driver.completed + st.Driver.dropped = st.Driver.ops
      && st.Driver.retries <= st.Driver.ops * budget
      && st.Driver.dropped <= st.Driver.shed)

(* A fully-pinned pool refuses demand work with the typed [Overloaded]
   (counting it) at every capacity, and serves again after one unpin. *)
let test_overloaded_surfaces () =
  List.iter
    (fun frames ->
      let _sim, store, _disks, pool = Util.make_system ~capacity:frames () in
      let pages = Array.init (frames + 1) (fun _ -> Page_store.alloc store) in
      for i = 0 to frames - 1 do
        ignore (Buffer_pool.get pool pages.(i))
      done;
      let target = pages.(frames) in
      Alcotest.check_raises
        (Printf.sprintf "overloaded at %d frames" frames)
        (Buffer_pool.Overloaded { page = target; scans = 3 })
        (fun () -> ignore (Buffer_pool.get pool target));
      let v c = Fpb_obs.Counter.value c in
      Alcotest.(check int) "pool.overloaded counted" 1
        (v (Buffer_pool.stats pool).Buffer_pool.overloaded);
      if v (Buffer_pool.stats pool).Buffer_pool.overload_wait_ns <= 0 then
        Alcotest.failf "rescan waits not charged";
      Buffer_pool.unpin pool pages.(0);
      ignore (Buffer_pool.get pool target);
      Buffer_pool.unpin pool target)
    [ 1; 2; 4 ]

(* Scrub stands down while the backpressure probe reports load — no
   pages checked, cursor held — and resumes when it lifts. *)
let test_scrub_backpressure () =
  let _sim, store, _disks, pool = Util.make_system ~capacity:8 () in
  for _ = 1 to 6 do ignore (Page_store.alloc store) done;
  let sched = Scrub.scheduler ~pages_per_tick:2 pool in
  let loaded = ref true in
  Scrub.set_backpressure sched (Some (fun () -> !loaded));
  for _ = 1 to 3 do
    let r = Scrub.tick sched in
    Alcotest.(check int) "no pages checked under pressure" 0 r.Scrub.scanned
  done;
  Alcotest.(check int) "yields counted" 3 (Scrub.yields sched);
  loaded := false;
  let r = Scrub.tick sched in
  Alcotest.(check int) "resumes from the held cursor" 2 r.Scrub.scanned;
  Alcotest.(check int) "no further yields" 3 (Scrub.yields sched)

let suite =
  [
    Alcotest.test_case "queue-cap loss matches closed form" `Quick
      test_queue_cap_loss_closed_form;
    Alcotest.test_case "deadline-aware never serves stale" `Quick
      test_deadline_aware_never_serves_stale;
    Alcotest.test_case "backlog peak and watermark accounting" `Quick
      test_backlog_accounting;
    test_retry_budget_terminates;
    Alcotest.test_case "Overloaded surfaces and recovers" `Quick
      test_overloaded_surfaces;
    Alcotest.test_case "scrub yields to backpressure" `Quick
      test_scrub_backpressure;
  ]
