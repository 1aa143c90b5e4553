(* Extension experiment: overload control under open-loop traffic.

   PR 6 showed the failure (ycsb-c: open loop past capacity has an
   exploding tail); this experiment shows the defenses and the one
   failure mode the defenses themselves can create.  Four tables:

     overload-a  admission policy x offered rate (0.5x-3x the measured
                 closed-loop capacity), YCSB-A with per-op deadlines.
                 Admit-all collapses: past capacity nearly everything
                 completes after its deadline, so goodput -> 0 even
                 though throughput stays at capacity.  A queue cap
                 bounds the damage; deadline-aware admission sheds
                 exactly the ops it cannot serve in time and keeps the
                 admitted p99 near the deadline with goodput degrading
                 smoothly.

     overload-b  the retry storm.  A 3x-capacity burst, then the rate
                 drops well below capacity.  Without retries the system
                 recovers instantly.  Clients that retry shed ops on a
                 short fixed timer with a generous budget keep the
                 queues full long after the burst ends (each fresh op
                 re-offers itself budget+1 times: the classic
                 metastable failure); exponential backoff with full
                 jitter and a small budget dissipates the same burst.

     overload-c  graceful degradation in storage: a buffer pool whose
                 every frame is pinned refuses demand work with the
                 typed [Overloaded] (after bounded, clock-charged
                 victim rescans) instead of crashing the process, and
                 serves again as soon as a pin drops.

     overload-d  background work yields to foreground pressure: while
                 the arrival backlog sits above its watermark, scrub
                 ticks and fuzzy-checkpoint ticks do nothing (counted
                 as yields); once the backlog drains both make
                 progress again. *)

open Fpb_btree_common
open Fpb_storage
open Fpb_wal
module W = Fpb_workload
module Shadow = Fpb_snapshot.Shadow
module Histogram = Fpb_obs.Histogram

let bulk_entries = function
  | Scale.Tiny -> 10_000
  | Scale.Quick -> 30_000
  | Scale.Full -> 100_000

let total_ops = function
  | Scale.Tiny -> 500
  | Scale.Quick -> 2_500
  | Scale.Full -> 10_000

(* Per-client queue bound for the Queue_cap sweep cells: roomy enough
   that the heavy-tailed service (disk misses) rarely fills it below
   capacity, tight enough to bound the backlog past it. *)
let queue_cap = 16

(* The storm runs with tighter queues: a full queue's drain time must
   exceed the (tight) storm deadline, so an op admitted off a retry is
   already stale and its service is pure waste — the fuel of the
   metastable loop. *)
let storm_queue_cap = 8

(* A fresh test bed + YCSB-A workload per cell, warmed to steady state;
   [k] receives the system and the per-arrival operation. *)
let with_system scale ~pool_pages k =
  let b = Bed.make (Bed.system ~pool_pages) (Bed.pairs (bulk_entries scale)) in
  let w = Bed.workload ~mix:W.Mix.a b (Bed.wal b) in
  let r = k b w in
  Index_sig.check b.idx;
  r

(* Closed-loop probe: capacity (best throughput) and its p99, which
   sizes the deadline every open-loop cell uses.  A deadline of ~5x the
   unloaded p99 is the conventional "generous but real" SLO: reachable
   under light queueing, hopeless once the queue grows unbounded. *)
let probe scale ~pool_pages =
  with_system scale ~pool_pages (fun b w ->
      let n_clients = Bed.clients scale in
      let st = Bed.closed b ~n_clients ~n_ops:(total_ops scale) w.Bed.op in
      ( st.W.Driver.throughput_ops_per_s,
        Histogram.percentile st.W.Driver.latency 99. ))

let policy_slug = function
  | W.Admission.Admit_all -> "admit-all"
  | W.Admission.Queue_cap _ -> "queue-cap"
  | W.Admission.Deadline_aware -> "deadline"

(* ------------------- overload-a: policy x rate sweep ------------------ *)

let run_cell scale ~pool_pages ~deadline_ns ~admission ?retry ?rate_change
    ?n_ops ~rate_ops_per_s () =
  let n_ops = Option.value ~default:(total_ops scale) n_ops in
  with_system scale ~pool_pages (fun b w ->
      W.Driver.run ~sim:b.Bed.sys.Setup.sim
        (W.Driver.config ~n_clients:(Bed.clients scale) ~deadline_ns
           ~admission ?retry
           (W.Driver.open_loop ?rate_change ~n_ops rate_ops_per_s))
        (W.Driver.each w.Bed.op))

let good_pct (st : W.Driver.stats) =
  100. *. float_of_int st.W.Driver.good /. float_of_int (max 1 st.W.Driver.ops)

let policy_sweep scale ~pool_pages ~capacity ~deadline_ns =
  let policies =
    [ W.Admission.Admit_all; W.Admission.Queue_cap queue_cap;
      W.Admission.Deadline_aware ]
  in
  let pcts = [ 50; 100; 150; 200; 300 ] in
  let rows =
    List.concat_map
      (fun admission ->
        let slug = policy_slug admission in
        List.map
          (fun pct ->
            let rate = capacity *. float_of_int pct /. 100. in
            let st =
              run_cell scale ~pool_pages ~deadline_ns ~admission
                ~rate_ops_per_s:rate ()
            in
            let key m = Printf.sprintf "overload.a.%s.r%d.%s" slug pct m in
            let p99 = Histogram.percentile st.W.Driver.latency 99. in
            Telemetry.add (key "goodput")
              (int_of_float st.W.Driver.goodput_ops_per_s);
            Telemetry.add (key "good_pct") (int_of_float (good_pct st));
            Telemetry.add (key "shed") st.W.Driver.shed;
            Telemetry.add (key "expired") st.W.Driver.expired;
            Telemetry.add (key "p99_ns") p99;
            Telemetry.add (key "max_backlog") st.W.Driver.max_backlog;
            Telemetry.add (key "above_wm_ns")
              st.W.Driver.time_above_watermark_ns;
            [
              W.Admission.name admission;
              Table.cell_i pct;
              Table.cell_f (st.W.Driver.offered_ops_per_s /. 1e3);
              Table.cell_f (st.W.Driver.goodput_ops_per_s /. 1e3);
              Table.cell_f (good_pct st);
              Table.cell_i st.W.Driver.shed;
              Table.cell_i st.W.Driver.expired;
              Table.cell_i p99;
              Table.cell_i st.W.Driver.max_backlog;
              Table.cell_i st.W.Driver.time_above_watermark_ns;
            ])
          pcts)
      policies
  in
  Table.make ~id:"overload-a"
    ~title:
      (Printf.sprintf
         "Admission policy x offered rate, YCSB-A open loop (capacity = \
          %.1f Kops/s closed loop, deadline = %d ns = 5x unloaded p99, %d \
          ops).  Admit-all keeps serving ops nobody waits for (goodput \
          collapses past capacity); deadline-aware sheds early and keeps \
          the admitted p99 near the deadline"
         (capacity /. 1e3) deadline_ns (total_ops scale))
    ~header:
      [ "policy"; "rate %cap"; "offered Kops/s"; "goodput Kops/s"; "good %";
        "shed"; "expired"; "p99 ns"; "max backlog"; "t>wm ns" ]
    rows

(* ---------------------- overload-b: retry storm ----------------------- *)

let storm scale ~pool_pages ~capacity ~deadline_ns =
  (* 4x the sweep's op count, 3/4 of it burst: sheds cost no service
     here, so a retry storm persists for as long as the pending-retry
     pool built up during the burst takes to drain through the server —
     the burst must pend enough ops that the naive pool outlives the
     whole calm phase, while the small-budget pool dies in a few
     delays. *)
  let n_ops = 4 * total_ops scale in
  (* 3x burst, then well below capacity: an undefended system (no
     retries) drains its queue and recovers within one queue-drain of
     the rate change. *)
  let burst = capacity *. 3. in
  let calm = capacity *. 0.3 in
  let change_at = 3 * n_ops / 4 in
  (* A deadline tighter than a full queue's drain time: an op admitted
     off the back of a saturated queue completes stale, so in the bad
     state the server's whole capacity goes to answers nobody is
     waiting for.  (The sweep's 5x-p99 deadline is too forgiving — a
     few quick retries then complete in time and retries look like a
     cure even when naive.) *)
  let deadline_ns = max 1 (deadline_ns / 4) in
  (* The storm needs the amplified re-offer rate to exceed capacity on
     its own: fresh calm-phase rate x (budget+1) = 0.3 x 33 ~ 10x, with
     a short synchronised timer keeping it concentrated.  The cure
     drops the bound below capacity (0.3 x 3 = 0.9x) and de-bunches
     what remains. *)
  let naive =
    { W.Retry.discipline = W.Retry.Fixed (deadline_ns / 2); budget = 32 }
  in
  let cured =
    {
      W.Retry.discipline =
        W.Retry.Backoff { base_ns = deadline_ns / 2; mult = 2; jitter = true };
      budget = 2;
    }
  in
  let legs =
    [ ("no-retry", W.Retry.none); ("naive", naive); ("jitter", cured) ]
  in
  let rows =
    List.map
      (fun (slug, retry) ->
        let st =
          run_cell scale ~pool_pages ~deadline_ns
            ~admission:(W.Admission.Queue_cap storm_queue_cap) ~retry
            ~rate_change:(change_at, calm) ~n_ops ~rate_ops_per_s:burst ()
        in
        let w = Option.get st.W.Driver.recovery in
        let w_good_pct =
          100. *. float_of_int w.W.Driver.w_good
          /. float_of_int (max 1 w.W.Driver.w_offered)
        in
        let key m = Printf.sprintf "overload.b.%s.%s" slug m in
        Telemetry.add (key "retries") st.W.Driver.retries;
        Telemetry.add (key "dropped") st.W.Driver.dropped;
        Telemetry.add (key "shed") st.W.Driver.shed;
        Telemetry.add (key "recovery_good_pct") (int_of_float w_good_pct);
        Telemetry.add (key "recovery_goodput")
          (int_of_float w.W.Driver.w_goodput_ops_per_s);
        Telemetry.add (key "recovery_shed") w.W.Driver.w_shed;
        [
          (slug ^ " " ^ W.Retry.name retry);
          Table.cell_i st.W.Driver.retries;
          Table.cell_i st.W.Driver.shed;
          Table.cell_i st.W.Driver.dropped;
          Table.cell_i w.W.Driver.w_offered;
          Table.cell_f w_good_pct;
          Table.cell_f (w.W.Driver.w_goodput_ops_per_s /. 1e3);
          Table.cell_i w.W.Driver.w_shed;
        ])
      legs
  in
  Table.make ~id:"overload-b"
    ~title:
      (Printf.sprintf
         "Retry storm: 3x-capacity burst for %d ops, then 0.3x (capacity \
          = %.1f Kops/s, queue cap %d, deadline %d ns).  Recovery columns \
          cover the post-burst phase only.  Short fixed retries with a \
          big budget keep the burst alive after its cause is gone \
          (metastable); backoff+jitter with a small budget dissipates it"
         change_at (capacity /. 1e3) storm_queue_cap deadline_ns)
    ~header:
      [ "retry policy"; "retries"; "shed"; "dropped"; "recov offered";
        "recov good %"; "recov goodput Kops/s"; "recov shed" ]
    rows

(* ------------- overload-c: typed refusal at pool exhaustion ----------- *)

let exhaustion_cell frames =
  let sys =
    Setup.make ~n_disks:1 ~pool_pages:frames ~n_shards:1
      ~page_size:Bed.page_size ()
  in
  let pool = sys.Setup.pool in
  (* More live pages than frames, none pinned yet. *)
  let pages =
    Array.init (frames + 2) (fun _ ->
        let id, _ = Buffer_pool.create_page pool in
        Buffer_pool.unpin pool id;
        id)
  in
  (* Pin one page per frame: the pool is now exhausted for demand work. *)
  for i = 0 to frames - 1 do
    ignore (Buffer_pool.get pool pages.(i))
  done;
  let attempts = 4 in
  let shed = ref 0 and scans = ref 0 in
  for _ = 1 to attempts do
    match Buffer_pool.get pool pages.(frames) with
    | _ -> Buffer_pool.unpin pool pages.(frames)
    | exception Buffer_pool.Overloaded { scans = s; _ } ->
        incr shed;
        scans := s
  done;
  (* Dropping one pin is all it takes to serve again. *)
  Buffer_pool.unpin pool pages.(0);
  let recovered =
    match Buffer_pool.get pool pages.(frames) with
    | _ ->
        Buffer_pool.unpin pool pages.(frames);
        1
    | exception Buffer_pool.Overloaded _ -> 0
  in
  let v c = Fpb_obs.Counter.value c in
  let p = Buffer_pool.stats pool in
  (frames, attempts, !shed, !scans, v p.Buffer_pool.overloaded,
   v p.Buffer_pool.overload_wait_ns, recovered)

let exhaustion_table () =
  let rows =
    List.map
      (fun frames ->
        let f, att, shed, scans, ovl, wait_ns, rec_ = exhaustion_cell frames in
        let key m = Printf.sprintf "overload.c.f%d.%s" f m in
        Telemetry.add (key "shed") shed;
        Telemetry.add (key "pool_overloaded") ovl;
        Telemetry.add (key "recovered") rec_;
        [
          Table.cell_i f; Table.cell_i att; Table.cell_i shed;
          Table.cell_i scans; Table.cell_i ovl; Table.cell_i wait_ns;
          Table.cell_i rec_;
        ])
      [ 1; 2; 4 ]
  in
  Table.make ~id:"overload-c"
    ~title:
      "Typed refusal at pool exhaustion: every frame pinned, demand gets \
       raise Overloaded after bounded clock-charged victim rescans (shed \
       must equal attempts, recovered must be 1 after one unpin)"
    ~header:
      [ "frames"; "attempts"; "shed"; "scans/refusal"; "pool.overloaded";
        "overload wait ns"; "recovered" ]
    rows

(* ------------- overload-d: background work yields to load ------------- *)

let background_table scale =
  let pairs = Bed.pairs (max 2_000 (bulk_entries scale / 5)) in
  let sys =
    Setup.make ~n_disks:Bed.n_disks ~pool_pages:64 ~n_shards:1
      ~page_size:Bed.page_size ()
  in
  let b = Bed.make sys pairs in
  let idx = b.idx in
  (* Strict durability so checkpoint worklist pages are hardenable. *)
  let wal = Bed.wal ~group_commit_bytes:0 b in
  let sh = Shadow.attach ~meta:(Index_sig.meta idx) wal sys.Setup.pool in
  let mix = W.Mix.a in
  let gen =
    W.Mix.generator ~dist:(W.Mix.default_dist mix) ~seed:31337 mix pairs
  in
  let committed = ref 0 in
  let commit () =
    incr committed;
    Wal.commit wal ~op:!committed ~meta:(Index_sig.meta idx)
  in
  (* Dirty the pool so the next checkpoint has real write-back to do. *)
  for _ = 1 to 200 do
    W.Mix.execute idx ~commit (W.Mix.next gen)
  done;
  let sched = Scrub.scheduler ~pages_per_tick:4 sys.Setup.pool in
  let backlog = ref 0 in
  let watermark = 8 in
  let probe = Some (fun () -> !backlog > watermark) in
  Scrub.set_backpressure sched probe;
  Shadow.set_backpressure sh probe;
  let meta () = Index_sig.meta idx in
  Shadow.checkpoint_begin sh;
  let worklist_before = Shadow.worklist_remaining sh in
  (* Foreground loaded: both background jobs must stand down. *)
  backlog := 100;
  let loaded_ticks = 12 in
  let scrub_loaded = ref 0 in
  for _ = 1 to loaded_ticks do
    let r = Scrub.tick sched in
    scrub_loaded := !scrub_loaded + r.Scrub.scanned;
    if Shadow.checkpoint_in_progress sh then
      ignore (Shadow.checkpoint_tick ~pages:2 sh ~meta:(meta ()))
  done;
  let worklist_during = Shadow.worklist_remaining sh in
  (* Backlog drained: both resume and the checkpoint completes. *)
  backlog := 0;
  let flipped = ref 0 in
  while Shadow.checkpoint_in_progress sh do
    if Shadow.checkpoint_tick ~pages:2 sh ~meta:(meta ()) then incr flipped
  done;
  let scrub_drained = (Scrub.tick sched).Scrub.scanned in
  let scrub_yields = Scrub.yields sched in
  let ckpt_yields = Fpb_obs.Counter.value (Shadow.stats sh).Shadow.yields in
  Telemetry.add "overload.d.scrub_yields" scrub_yields;
  Telemetry.add "overload.d.ckpt_yields" ckpt_yields;
  Telemetry.add "overload.d.scrub_scanned_loaded" !scrub_loaded;
  Telemetry.add "overload.d.scrub_scanned_drained" scrub_drained;
  Telemetry.add "overload.d.flipped" !flipped;
  Index_sig.check idx;
  Table.make ~id:"overload-d"
    ~title:
      (Printf.sprintf
         "Background work under foreground pressure (%d loaded ticks, \
          backlog watermark %d): scrub and fuzzy-checkpoint ticks yield \
          while loaded (scanned/hardened must be 0, worklist held) and \
          resume once the backlog drains"
         loaded_ticks watermark)
    ~header:
      [ "loaded ticks"; "scrub yields"; "scrub pages (loaded)";
        "ckpt yields"; "worklist before"; "worklist during"; "flipped";
        "scrub pages (drained)" ]
    [
      [
        Table.cell_i loaded_ticks; Table.cell_i scrub_yields;
        Table.cell_i !scrub_loaded; Table.cell_i ckpt_yields;
        Table.cell_i worklist_before; Table.cell_i worklist_during;
        Table.cell_i !flipped; Table.cell_i scrub_drained;
      ];
    ]

let run scale =
  let pool_pages = Bed.pool_pages ~share:2 (Bed.pairs (bulk_entries scale)) in
  let capacity, p99_closed = probe scale ~pool_pages in
  let deadline_ns = max 1 (5 * p99_closed) in
  Telemetry.add "overload.capacity_ops_per_s" (int_of_float capacity);
  Telemetry.add "overload.deadline_ns" deadline_ns;
  [
    policy_sweep scale ~pool_pages ~capacity ~deadline_ns;
    storm scale ~pool_pages ~capacity ~deadline_ns;
    exhaustion_table ();
    background_table scale;
  ]
