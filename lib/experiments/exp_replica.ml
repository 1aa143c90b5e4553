(* Extension experiment: WAL log-shipping replication.

   A primary ships every durable log record to two replicas over
   simulated links; commits either return at local log durability
   (async) or block until replica acks cover their LSN (semi-sync).
   Three tables:

     replica-a  durability mode x offered rate (0.5x/1x/2x the measured
                closed-loop capacity), YCSB-A open loop.  The commit
                barrier is charged to simulated time, so
                wal.commit_latency shows the true price of semi-sync:
                one network round trip plus the replica's log append,
                paid on every commit — and past capacity that price
                compounds into the arrival tail.

     replica-b  failover blackout.  Mid-run the primary is power-cut;
                the most advanced replica is promoted (failure-detection
                timeout charged), the index handle rebuilt from the
                replicated root metadata, and the surviving replica
                re-attached to the new primary.  Under semi-sync every
                client-acked commit must survive (lost acked = 0); the
                open-loop driver keeps arrivals coming during the
                blackout, so the dip and the drain both show up in the
                backlog and recovery-window stats.

     replica-c  snapshot catch-up vs full-log re-ship.  A replica goes
                dark, the workload runs on, and fuzzy checkpoints
                advance the WAL's retention — the shipping archive
                releases the same records ({!Replica.trim_archive}), so
                log catch-up is refused (`Retention_exceeded`) and the
                replica bootstraps from a shadow snapshot: frozen pages
                over the wire, then the short log tail after the cut.
                An untrimmed control re-ships the full log for the same
                lag; the snapshot path must be cheaper in simulated
                time. *)

open Fpb_btree_common
open Fpb_simmem
open Fpb_wal
module W = Fpb_workload
module Replica = Fpb_replica.Replica
module Net = Fpb_replica.Net
module Shadow = Fpb_snapshot.Shadow
module Histogram = Fpb_obs.Histogram

let kind = Setup.Disk_first

let bulk_entries = function
  | Scale.Tiny -> 10_000
  | Scale.Quick -> 30_000
  | Scale.Full -> 100_000

let total_ops = function
  | Scale.Tiny -> 400
  | Scale.Quick -> 2_000
  | Scale.Full -> 8_000

let mode_slug = function
  | Replica.Async -> "async"
  | Replica.Semi_sync k -> Printf.sprintf "semi-sync-%d" k

let mode_name = function
  | Replica.Async -> "async"
  | Replica.Semi_sync k -> Printf.sprintf "semi-sync k=%d" k

(* Fresh test bed + replication group (two replicas on healthy links)
   + YCSB-A workload, warmed to steady state.  [k] gets everything and
   is responsible for final index checks (the failover leg retires the
   original handle). *)
let with_system scale ~pool_pages ~mode k =
  let pairs = Bed.pairs (bulk_entries scale) in
  let b = Bed.make ~kind (Bed.system ~pool_pages) pairs in
  let wal = Bed.wal b in
  let group =
    Replica.create
      ~config:{ Replica.default_config with Replica.mode }
      ~prng:(W.Prng.create 0xfa11)
      ~profiles:[ Net.default_profile; Net.default_profile ]
      (wal, b.sys.Setup.pool)
  in
  let w = Bed.workload ~mix:W.Mix.a b wal in
  k b wal group w

(* Closed-loop capacity with the mode's replication attached.  Semi-sync
   forces a log flush + replica round trip per commit, so its capacity
   is far below async's (which group-commits); each mode's open-loop
   sweep is therefore rated against its own capacity — that is what
   makes the 0.5x/1x/2x cells comparable across modes. *)
let probe scale ~pool_pages ~mode =
  with_system scale ~pool_pages ~mode (fun b _ group w ->
      let n_clients = Bed.clients scale in
      let st = Bed.closed b ~n_clients ~n_ops:(total_ops scale) w.Bed.op in
      Index_sig.check b.idx;
      Replica.detach group;
      st.W.Driver.throughput_ops_per_s)

(* ------------------ replica-a: mode x offered rate ------------------- *)

let mode_cell scale ~pool_pages ~mode ~rate =
  with_system scale ~pool_pages ~mode (fun b wal group w ->
      let st =
        W.Driver.run ~sim:b.Bed.sys.Setup.sim
          (W.Driver.config ~n_clients:(Bed.clients scale)
             (W.Driver.open_loop ~n_ops:(total_ops scale) rate))
          (W.Driver.each w.Bed.op)
      in
      Index_sig.check b.idx;
      Telemetry.add_kv (Replica.kv group);
      let r =
        (st, Wal.commit_latency wal, Replica.ack_wait group)
      in
      Replica.detach group;
      r)

let mode_sweep scale ~pool_pages ~capacities =
  let pcts = [ 50; 100; 200 ] in
  let rows =
    List.concat_map
      (fun (mode, capacity) ->
        Telemetry.add
          (Printf.sprintf "replica.a.%s.capacity" (mode_slug mode))
          (int_of_float capacity);
        List.map
          (fun pct ->
            let rate = capacity *. float_of_int pct /. 100. in
            let st, cl, aw = mode_cell scale ~pool_pages ~mode ~rate in
            let pc h p = Histogram.percentile h p in
            let key m =
              Printf.sprintf "replica.a.%s.r%d.%s" (mode_slug mode) pct m
            in
            Telemetry.add (key "commit_p50_ns") (pc cl 50.);
            Telemetry.add (key "commit_p99_ns") (pc cl 99.);
            Telemetry.add (key "ack_wait_p99_ns") (pc aw 99.);
            Telemetry.add (key "p99_ns")
              (pc st.W.Driver.latency 99.);
            Telemetry.add (key "throughput")
              (int_of_float st.W.Driver.throughput_ops_per_s);
            Telemetry.add (key "max_backlog") st.W.Driver.max_backlog;
            [
              mode_name mode;
              Table.cell_f (capacity /. 1e3);
              Table.cell_i pct;
              Table.cell_f (st.W.Driver.offered_ops_per_s /. 1e3);
              Table.cell_f (st.W.Driver.throughput_ops_per_s /. 1e3);
              Table.cell_i (pc cl 50.);
              Table.cell_i (pc cl 99.);
              Table.cell_i (pc aw 99.);
              Table.cell_i (pc st.W.Driver.latency 99.);
              Table.cell_i st.W.Driver.max_backlog;
            ])
          pcts)
      capacities
  in
  Table.make ~id:"replica-a"
    ~title:
      (Printf.sprintf
         "Durability mode x offered rate (0.5x/1x/2x the mode's own \
          closed-loop capacity), YCSB-A open loop, 2 replicas, %d ops.  \
          Semi-sync pays a per-commit log flush plus a network round trip \
          and the replica's log append (wal.commit_latency shows the \
          price); async acks at group-commit speed"
         (total_ops scale))
    ~header:
      [ "mode"; "cap Kops/s"; "rate %cap"; "offered Kops/s"; "Kops/s";
        "commit p50"; "commit p99"; "ack wait p99"; "arrival p99";
        "max backlog" ]
    rows

(* -------------------- replica-b: failover blackout ------------------- *)

let failover scale ~pool_pages ~capacity =
  let rate = capacity *. 0.8 in
  let n_ops = total_ops scale in
  let kill_at = n_ops / 2 in
  with_system scale ~pool_pages ~mode:(Replica.Semi_sync 1)
    (fun b wal group w ->
      let sys = b.Bed.sys and idx = b.idx and gen = w.Bed.gen in
      let clock = sys.Setup.sim.Sim.clock in
      let idx_r = ref idx and wal_r = ref wal and group_r = ref group in
      let committed = ref 0 in
      let acked_at_kill = ref 0 in
      let promoted_op = ref 0 in
      let truncated = ref 0 in
      let blackout = ref 0 in
      let commit () =
        incr committed;
        Wal.commit !wal_r ~op:!committed ~meta:(Index_sig.meta !idx_r)
      in
      let op ~client:(_ : int) ~seq =
        if seq = kill_at then begin
          (* Power-cut the primary.  Ops on other open-loop clients may
             still be in flight at this instant — their acks lie beyond
             the kill horizon, so the acked count comes from the
             library's oracle, not from how many commits have executed. *)
          let t0 = Clock.now clock in
          Wal.crash_now !wal_r;
          Replica.kill !group_r;
          let horizon = Option.get (Replica.killed_at !group_r) in
          acked_at_kill := Replica.acked_op !group_r ~horizon;
          let p = Replica.promote !group_r in
          let g = Replica.resume !group_r p in
          let idx' = Run.adopt kind p.Replica.pool ~meta:p.Replica.meta in
          promoted_op := p.Replica.committed_op;
          truncated := p.Replica.truncated_records;
          committed := p.Replica.committed_op;
          idx_r := idx';
          wal_r := p.Replica.wal;
          group_r := g;
          blackout := Clock.now clock - t0
        end;
        W.Mix.execute !idx_r ~commit (W.Mix.next gen)
      in
      let st =
        W.Driver.run ~sim:sys.Setup.sim
          (W.Driver.config ~n_clients:(Bed.clients scale)
             (W.Driver.open_loop ~n_ops rate
                ~rate_change:(kill_at, rate) (* same rate: phase 2 isolates
                                                the post-failover recovery
                                                window *)))
          (W.Driver.each op)
      in
      Index_sig.check !idx_r;
      let survivor_op = Replica.sync_node !group_r (Replica.node !group_r 0) in
      let lost = max 0 (!acked_at_kill - !promoted_op) in
      let w = Option.get st.W.Driver.recovery in
      Telemetry.add_kv (Replica.kv !group_r);
      Telemetry.add "replica.b.blackout_ns" !blackout;
      Telemetry.add "replica.b.acked_at_kill" !acked_at_kill;
      Telemetry.add "replica.b.promoted_op" !promoted_op;
      Telemetry.add "replica.b.lost_acked" lost;
      Telemetry.add "replica.b.truncated_records" !truncated;
      Telemetry.add "replica.b.max_backlog" st.W.Driver.max_backlog;
      Telemetry.add "replica.b.backlog_peak_at_ns"
        st.W.Driver.backlog_peak_at_ns;
      Telemetry.add "replica.b.recovery_goodput"
        (int_of_float w.W.Driver.w_goodput_ops_per_s);
      Telemetry.add "replica.b.p99_ns"
        (Histogram.percentile st.W.Driver.latency 99.);
      Telemetry.add "replica.b.survivor_synced"
        (if survivor_op = !committed then 1 else 0);
      Replica.detach !group_r;
      Table.make ~id:"replica-b"
        ~title:
          (Printf.sprintf
             "Failover blackout: primary power-cut at op %d of %d under \
              YCSB-A open loop at 0.8x the semi-sync capacity, k=1, 2 replicas \
              (detection timeout %d ns).  Lost acked must be 0; the backlog \
              peak localises the blackout and the recovery columns cover \
              the post-failover phase"
             kill_at n_ops (Replica.config !group_r).Replica.detect_timeout_ns)
        ~header:
          [ "offered Kops/s"; "blackout ms"; "acked@kill"; "promoted op";
            "lost acked"; "truncated"; "max backlog"; "peak at ms";
            "recov goodput Kops/s"; "arrival p99" ]
        [
          [
            Table.cell_f (st.W.Driver.offered_ops_per_s /. 1e3);
            Table.cell_f (float_of_int !blackout /. 1e6);
            Table.cell_i !acked_at_kill;
            Table.cell_i !promoted_op;
            Table.cell_i lost;
            Table.cell_i !truncated;
            Table.cell_i st.W.Driver.max_backlog;
            Table.cell_f (float_of_int st.W.Driver.backlog_peak_at_ns /. 1e6);
            Table.cell_f (w.W.Driver.w_goodput_ops_per_s /. 1e3);
            Table.cell_i (Histogram.percentile st.W.Driver.latency 99.);
          ];
        ])

(* ------------- replica-c: snapshot catch-up vs log re-ship ----------- *)

let catchup scale =
  let n_bulk = max 2_000 (bulk_entries scale / 5) in
  let n1 = max 20 (total_ops scale / 4) in
  let n2 = total_ops scale in
  (* Deterministic committed insert stream; [trim] mirrors the WAL's
     retention into the shipping archive after every flip. *)
  let run_phase ~trim =
    let sys =
      Setup.make ~n_disks:2 ~pool_pages:96 ~n_shards:1 ~page_size:Bed.page_size
        ()
    in
    let idx = (Bed.make ~kind sys (Bed.pairs n_bulk)).idx in
    let wal = Wal.attach ~meta:(Index_sig.meta idx) sys.Setup.pool in
    let group =
      Replica.create ~config:Replica.default_config
        ~prng:(W.Prng.create 0xfa11)
        ~profiles:[ Net.default_profile; Net.default_profile ]
        (wal, sys.Setup.pool)
    in
    let sh = Shadow.attach ~meta:(Index_sig.meta idx) wal sys.Setup.pool in
    let committed = ref 0 in
    let key = ref 0x4000_0000 in
    let step () =
      incr key;
      ignore (Index_sig.insert idx !key (!key land 0xFFFF));
      incr committed;
      Wal.commit wal ~op:!committed ~meta:(Index_sig.meta idx)
    in
    for _ = 1 to n1 do
      step ()
    done;
    let dark = Replica.node group 1 in
    Replica.detach_replica group dark;
    let ckpt_every = max 1 (n2 / 4) in
    for i = 1 to n2 do
      step ();
      if i mod ckpt_every = 0 then begin
        Shadow.checkpoint_sync sh ~meta:(Index_sig.meta idx);
        if trim then
          ignore
            (Replica.trim_archive group ~below_lsn:(Shadow.retention_lsn sh)
              : int)
      end
    done;
    (idx, group, sh, dark, !committed)
  in
  let idx, group, sh, dark, final_op = run_phase ~trim:true in
  let refused =
    match Replica.catch_up_via_log group dark with
    | `Retention_exceeded -> 1
    | `Ok _ -> 0
  in
  let snap = Shadow.open_at_checkpoint sh in
  let pages, tail, snap_ns = Replica.catch_up_via_snapshot group dark ~snapshot:snap in
  Shadow.close snap;
  let caught_op = Replica.node_committed_op dark in
  Index_sig.check idx;
  Telemetry.add_kv (Replica.kv group);
  Telemetry.add_kv (Shadow.kv sh);
  (* Untrimmed control: the archive still holds everything, so the same
     lag is recoverable by brute-force log re-shipping. *)
  let _idx2, group2, _sh2, dark2, _ = run_phase ~trim:false in
  let log_records, log_ns =
    match Replica.catch_up_via_log group2 dark2 with
    | `Ok (r, ns) -> (r, ns)
    | `Retention_exceeded -> (0, 0)
  in
  let control_op = Replica.node_committed_op dark2 in
  Telemetry.add "replica.c.retention_exceeded" refused;
  Telemetry.add "replica.c.snapshot_pages" pages;
  Telemetry.add "replica.c.snapshot_tail_records" tail;
  Telemetry.add "replica.c.snapshot_ns" snap_ns;
  Telemetry.add "replica.c.log_records" log_records;
  Telemetry.add "replica.c.log_ns" log_ns;
  Telemetry.add "replica.c.caught_up"
    (if caught_op = final_op && control_op = final_op then 1 else 0);
  Table.make ~id:"replica-c"
    ~title:
      (Printf.sprintf
         "Catch-up after %d committed ops in the dark (replica detached, \
          %d ops before).  Retention (shadow flips -> Wal.truncate_to -> \
          trim_archive) forces the snapshot path: frozen pages + log tail \
          after the cut, vs the untrimmed control's full-log re-ship"
         n2 n1)
    ~header:
      [ "path"; "refused log?"; "pages"; "records"; "sim ms"; "caught up to" ]
    [
      [
        "snapshot (retention trimmed)";
        Table.cell_i refused;
        Table.cell_i pages;
        Table.cell_i tail;
        Table.cell_f (float_of_int snap_ns /. 1e6);
        Table.cell_i caught_op;
      ];
      [
        "full-log re-ship (control)";
        Table.cell_i 0;
        Table.cell_i 0;
        Table.cell_i log_records;
        Table.cell_f (float_of_int log_ns /. 1e6);
        Table.cell_i control_op;
      ];
    ]

let run scale =
  let pool_pages =
    Bed.pool_pages ~kind ~share:2 (Bed.pairs (bulk_entries scale))
  in
  let capacities =
    List.map
      (fun mode -> (mode, probe scale ~pool_pages ~mode))
      [ Replica.Async; Replica.Semi_sync 1; Replica.Semi_sync 2 ]
  in
  let semi1_capacity = List.assoc (Replica.Semi_sync 1) capacities in
  [
    mode_sweep scale ~pool_pages ~capacities;
    failover scale ~pool_pages ~capacity:semi1_capacity;
    catchup scale;
  ]
