(* fpb: command-line front end.

   fpb tune [--t1 N] [--tnext N] [--line N] [--page N]  node-size tuner
   fpb list                                             experiments
   fpb exp ID [--tiny|--full]                           run one experiment
   fpb check [--keys N] [--page N]                      build + verify all indexes
   fpb crashtest [--tiny] [--seed N]                    WAL fault-injection sweep
   fpb chaos [--tiny] [--seed N] [--log-mirrors K]
             [--log-rate R] [--scrub-bw N]              media-fault chaos harness
   fpb ycsb [--mix A..F] [--dist D] [--rate R] ...      YCSB-style workload run
   fpb demo                                             quickstart walk-through *)

open Cmdliner
open Fpb_btree_common

let tune_cmd =
  let t1 = Arg.(value & opt int 150 & info [ "t1" ] ~doc:"Full miss latency (cycles)") in
  let tnext = Arg.(value & opt int 10 & info [ "tnext" ] ~doc:"Pipelined miss gap (cycles)") in
  let line = Arg.(value & opt int 64 & info [ "line" ] ~doc:"Cache line size (bytes)") in
  let page =
    Arg.(value & opt (some int) None & info [ "page" ] ~doc:"Page size (bytes); default: 4K..32K sweep")
  in
  let run t1 tnext line page =
    let pages = match page with Some p -> [ p ] | None -> [ 4096; 8192; 16384; 32768 ] in
    List.iter
      (fun page_size ->
        let df = Tuning.disk_first ~t1 ~tnext ~line_size:line ~page_size () in
        let cf = Tuning.cache_first ~t1 ~tnext ~line_size:line ~page_size () in
        let mi = Tuning.micro_index ~t1 ~tnext ~line_size:line ~page_size () in
        Fmt.pr "page %dB:@." page_size;
        Fmt.pr "  disk-first : nonleaf %dB (%d entries), leaf %dB (%d entries), fan-out %d, cost ratio %.2f@."
          (df.Tuning.df_w * line) df.df_nonleaf_cap (df.df_x * line) df.df_leaf_cap
          df.df_fanout df.df_ratio;
        Fmt.pr "  cache-first: node %dB (leaf %d / nonleaf %d entries), fan-out %d, cost ratio %.2f@."
          (cf.Tuning.cf_w * line) cf.cf_leaf_cap cf.cf_nonleaf_cap cf.cf_fanout
          cf.cf_ratio;
        Fmt.pr "  micro-index: sub-array %dB, fan-out %d, cost ratio %.2f@."
          (mi.Tuning.mi_sub_lines * line) mi.mi_fanout mi.mi_ratio)
      pages
  in
  Cmd.v (Cmd.info "tune" ~doc:"Optimal node-size selection (paper Table 2)")
    Term.(const run $ t1 $ tnext $ line $ page)

let list_cmd =
  let run () =
    List.iter
      (fun e -> Fmt.pr "%-10s %s@." e.Fpb_experiments.Registry.id e.describes)
      Fpb_experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List reproducible tables/figures") Term.(const run $ const ())

let exp_cmd =
  let e =
    Arg.(required & pos 0 (some Fpb_cli.experiment) None & info [] ~docv:"ID")
  in
  let run e scale json =
    let open Fpb_experiments in
    let o = Registry.run_and_print Format.std_formatter scale e in
    (match json with
    | None -> ()
    | Some path -> Report.write path (Report.make ~scale [ o ]));
    match o.Registry.aborted with
    | Some why -> `Error (false, e.Registry.id ^ " aborted: " ^ why)
    | None -> `Ok ()
  in
  Cmd.v (Cmd.info "exp" ~doc:"Run one experiment")
    Term.(ret (const run $ e $ Fpb_cli.scale $ Fpb_cli.json))

let check_cmd =
  let keys = Arg.(value & opt int 200_000 & info [ "keys" ] ~doc:"Number of keys") in
  let page = Arg.(value & opt int 16384 & info [ "page" ] ~doc:"Page size (bytes)") in
  let run keys page =
    let rng = Fpb_workload.Prng.create 7 in
    let pairs = Fpb_workload.Keygen.bulk_pairs rng keys in
    List.iter
      (fun kind ->
        let open Fpb_experiments in
        let _sys, idx = Run.fresh ~page_size:page kind pairs ~fill:0.8 in
        let extra = Fpb_workload.Keygen.random_keys rng (keys / 10) in
        Array.iter (fun k -> ignore (Index_sig.insert idx k k)) extra;
        Index_sig.check idx;
        Fmt.pr "%-24s OK: height=%d pages=%d@." (Setup.kind_name kind)
          (Index_sig.height idx) (Index_sig.page_count idx))
      Fpb_experiments.Setup.all_kinds
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Build every index variant and verify structural invariants")
    Term.(const run $ keys $ page)

(* Serialise a standalone harness run (crashtest, chaos) in the same
   JSON shape `fpb exp --json` emits: one outcome whose [aborted] field
   carries the failure summary when the oracles broke, so CI can assert
   on a single convention for every leg. *)
let write_harness_json ~path ~scale ~id ~describes ~tables ~metrics ~wall_s
    ~failures =
  let open Fpb_experiments in
  let entry = { Registry.id; describes; run = (fun _ -> []) } in
  let aborted =
    match failures with
    | [] -> None
    | fs -> Some (Printf.sprintf "%d checker failures" (List.length fs))
  in
  let o = { Registry.entry; tables; metrics; wall_s; aborted } in
  Report.write path (Report.make ~scale [ o ])

let crashtest_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed") in
  let run scale seed json =
    let open Fpb_experiments in
    let t0 = Unix.gettimeofday () in
    let metrics, (results, table) =
      Telemetry.with_collector (fun () -> Crashtest.run_all ~seed scale)
    in
    Table.print Format.std_formatter table;
    let failures = List.concat_map (fun r -> r.Crashtest.failures) results in
    List.iter (fun (label, msg) -> Fmt.epr "FAIL %s: %s@." label msg) failures;
    (match json with
    | None -> ()
    | Some path ->
        write_harness_json ~path ~scale ~id:"crashtest"
          ~describes:
            "Crash fault injection: WAL byte boundaries, shadow flip \
             boundaries, replication kill sweep"
          ~tables:[ table ] ~metrics ~wall_s:(Unix.gettimeofday () -. t0)
          ~failures);
    if failures = [] then begin
      Fmt.pr "crashtest OK: %d crash points, 0 checker failures@."
        (List.fold_left (fun a r -> a + r.Crashtest.points) 0 results);
      `Ok ()
    end
    else `Error (false, Printf.sprintf "%d checker failures" (List.length failures))
  in
  Cmd.v
    (Cmd.info "crashtest"
       ~doc:
         "Fault-injection sweep: crash the simulated machine at every log \
          record boundary (and torn mid-record/torn-page variants), recover, \
          and verify every index structure; the replication sweep re-runs \
          every record boundary as a primary kill and verifies failover \
          loses no acked commit under semi-sync and exactly the unacked \
          suffix under async")
    Term.(ret (const run $ Fpb_cli.scale $ seed $ Fpb_cli.json))

let chaos_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload and fault-schedule seed") in
  let log_mirrors =
    Arg.(
      value & opt int 2
      & info [ "log-mirrors" ]
          ~doc:"Mirrored log disks in the log-fault leg (clamped to >= 2)")
  in
  let log_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "log-rate" ]
          ~doc:"Fault rate armed on log mirror 0 (default: the top data rate)")
  in
  let scrub_bw =
    Arg.(
      value
      & opt (some int) None
      & info [ "scrub-bw" ]
          ~doc:"Scrub bandwidth in pages per tick; 0 pauses the scrubber")
  in
  let run scale seed log_mirrors log_rate scrub_bw json =
    let open Fpb_experiments in
    let t0 = Unix.gettimeofday () in
    let metrics, legs =
      Telemetry.with_collector (fun () ->
          Chaos.legs ~seed ~log_mirrors ?log_rate ?scrub_bw scale)
    in
    List.iter (Table.print Format.std_formatter) legs.Chaos.tables;
    let failures = legs.Chaos.oracle_failures in
    List.iter (fun m -> Fmt.epr "FAIL %s@." m) failures;
    (match json with
    | None -> ()
    | Some path ->
        write_harness_json ~path ~scale ~id:"chaos"
          ~describes:
            "Media-fault chaos: transient/latent/corruption disk faults, \
             shadow checkpoint meta faults, replication failover under a \
             lossy reordering link, semi-sync commits through a partition \
             window"
          ~tables:legs.Chaos.tables ~metrics
          ~wall_s:(Unix.gettimeofday () -. t0) ~failures);
    if failures = [] then begin
      Fmt.pr "chaos OK: %d cells, %d pages repaired, %d errors detected, 0 oracle failures@."
        legs.Chaos.n_cells legs.Chaos.pages_repaired legs.Chaos.errors_detected;
      `Ok ()
    end
    else `Error (false, Printf.sprintf "%d oracle failures" (List.length failures))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Media-fault chaos harness: run search/update workloads against \
          disks injecting transient errors, latent sectors and silent \
          corruption; verify checksums detect all damage, the WAL repairs \
          covered pages (including from a mirrored log under log-disk \
          faults), scrub finds nothing unrecoverable, and replication \
          failover over a lossy reordering link loses no acked commit")
    Term.(
      ret
        (const run $ Fpb_cli.scale $ seed $ log_mirrors $ log_rate $ scrub_bw
       $ Fpb_cli.json))

let ycsb_cmd =
  let mix = Arg.(value & opt string "A" & info [ "mix" ] ~doc:"YCSB core mix (A..F)") in
  let dist =
    Arg.(
      value
      & opt (some string) None
      & info [ "dist" ]
          ~doc:
            "Key distribution: uniform, zipfian (scrambled), zipf-seq, \
             latest, hotspot (default: the mix's conventional one)")
  in
  let theta =
    Arg.(
      value
      & opt float Fpb_workload.Keygen.default_theta
      & info [ "theta" ] ~doc:"Zipfian constant, in (0, 1)")
  in
  let clients = Arg.(value & opt int 8 & info [ "clients" ] ~doc:"Logical clients") in
  let keys = Arg.(value & opt int 50_000 & info [ "keys" ] ~doc:"Bulk-loaded keys") in
  let ops = Arg.(value & opt int 5_000 & info [ "ops" ] ~doc:"Operations to run") in
  let tiny = Arg.(value & flag & info [ "tiny" ] ~doc:"Smoke-test size (overrides --keys/--ops)") in
  let rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ]
          ~doc:
            "Open-loop arrival rate (ops per simulated second); omit for \
             the closed-loop driver")
  in
  let fixed =
    Arg.(
      value & flag
      & info [ "fixed" ] ~doc:"Fixed-interval arrivals instead of Poisson")
  in
  let pool =
    Arg.(
      value
      & opt (some int) None
      & info [ "pool" ] ~doc:"Buffer-pool frames (default: half the tree)")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed") in
  let deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline" ] ~docv:"NS"
          ~doc:
            "Per-operation deadline in simulated ns, measured from first \
             arrival (open loop only)")
  in
  let policy =
    Arg.(
      value
      & opt (some string) None
      & info [ "policy" ]
          ~doc:
            "Admission policy at arrival: admit-all, queue-cap or deadline \
             (open loop only)")
  in
  let qcap =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ]
          ~doc:"Per-client queue bound for --policy queue-cap")
  in
  let retry =
    Arg.(
      value
      & opt (some string) None
      & info [ "retry" ]
          ~doc:
            "Client retry discipline for shed/expired ops: none, immediate, \
             fixed, backoff or backoff-jitter (open loop only)")
  in
  let retry_budget =
    Arg.(
      value & opt int 3
      & info [ "retry-budget" ] ~doc:"Retries per op before it is dropped")
  in
  let retry_base =
    Arg.(
      value & opt int 1_000_000
      & info [ "retry-base" ] ~docv:"NS"
          ~doc:"Base retry delay (simulated ns) for fixed/backoff")
  in
  let batch =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Serve reads as N-probe batched level-wise descents \
             ([search_batch]) through one size-or-timeout batch server; \
             writes fall back to singleton descents.  Open loop only; 1 \
             disables")
  in
  let batch_wait =
    Arg.(
      value & opt int 2_000_000
      & info [ "batch-wait" ] ~docv:"NS"
          ~doc:
            "Longest the oldest queued op waits for a full batch before \
             dispatch (simulated ns, with --batch)")
  in
  let run mix dist theta clients keys ops tiny rate fixed pool seed deadline
      policy qcap retry retry_budget retry_base batch batch_wait =
    let open Fpb_btree_common in
    let open Fpb_experiments in
    let module W = Fpb_workload in
    let keys = if tiny then 20_000 else keys in
    let ops = if tiny then 600 else ops in
    match W.Mix.of_string mix with
    | Error e -> `Error (false, e)
    | Ok mix -> (
        let dist_r =
          match dist with
          | None -> Ok (W.Mix.default_dist mix)
          | Some s -> W.Keygen.dist_of_string ~theta s
        in
        let admission_r =
          match policy with
          | None -> Ok None
          | Some s ->
              Result.map Option.some (W.Admission.of_string ~queue_cap:qcap s)
        in
        let retry_r =
          match retry with
          | None -> Ok None
          | Some s ->
              Result.map Option.some
                (W.Retry.of_string ~budget:retry_budget ~base_ns:retry_base s)
        in
        let discipline = if fixed then W.Driver.Fixed else W.Driver.Poisson in
        match (dist_r, admission_r, retry_r) with
        | Error e, _, _ | _, Error e, _ | _, _, Error e -> `Error (false, e)
        | Ok _, Ok _, Ok _ when batch > 1 && rate = None ->
            `Error
              (false, "--batch requires --rate: batched service is open-loop")
        | Ok dist, Ok admission, Ok retry -> (
            let source =
              match rate with
              | None ->
                  (* [max 1]: a zero client count is [check]'s to report *)
                  W.Driver.Closed
                    { ops_per_client = max 1 (ops / max 1 clients) }
              | Some rate -> W.Driver.open_loop ~discipline ~n_ops:ops rate
            in
            (* a batch server is one client *)
            let n_clients = if batch > 1 then min clients 1 else clients in
            let cfg =
              W.Driver.config ~n_clients ~batch ~batch_wait_ns:batch_wait
                ~seed:(seed + 3) ?deadline_ns:deadline ?admission ?retry source
            in
            match W.Driver.check cfg with
            | Error e -> `Error (true, e)
            | Ok () ->
            let pairs = Bed.pairs ~seed keys in
            let pool_pages =
              match pool with
              (* no floor beyond 1: undersized pools are exactly how you
                 demo the typed Overloaded refusal *)
              | Some p -> max 1 p
              | None -> Bed.pool_pages ~share:2 pairs
            in
            let sys = Bed.system ~pool_pages in
            let workload = ref None in
            match
              (* build + warm + drive, all under the pool's typed
                 overload escape: a deliberately undersized pool can
                 refuse even the bulkload's pinned descent *)
              let b = Bed.make sys pairs in
              let w =
                Bed.workload ~seed:(seed + 1) ~warm_seed:(seed + 2) ~dist ~mix
                  b (Bed.wal b)
              in
              workload := Some w;
              let exec =
                if batch = 1 then W.Driver.each w.Bed.op
                else fun ~client:_ seqs ->
                  (* each dispatch draws the batch's actions from the mix,
                     serves all reads as ONE level-wise descent wave and
                     everything else as singleton descents *)
                  let reads = ref [] in
                  Array.iter
                    (fun (_ : int) ->
                      match W.Mix.next w.gen with
                      | W.Mix.Read k -> reads := k :: !reads
                      | act -> W.Mix.execute b.idx ~commit:w.commit act)
                    seqs;
                  if !reads <> [] then
                    ignore (Index_sig.search_batch b.idx (Array.of_list !reads))
              in
              Fmt.pr "mix %s, %s, %d keys, %d ops, %d clients, pool %d frames@."
                mix.W.Mix.name (W.Keygen.dist_name dist) keys ops n_clients
                pool_pages;
              let s = W.Driver.run ~sim:sys.Setup.sim cfg exec in
              (match rate with
              | None -> Fmt.pr "closed loop:"
              | Some r ->
                  Fmt.pr "open loop (%s, offered %.1f):"
                    (W.Driver.discipline_name discipline) r);
              Fmt.pr
                " achieved %.1f, goodput %.1f ops per simulated second; \
                 makespan %.3f s@."
                s.W.Driver.throughput_ops_per_s s.W.Driver.goodput_ops_per_s
                (float_of_int s.W.Driver.makespan_ns /. 1e9);
              Fmt.pr
                "  completed %d (good %d), shed %d, expired %d, retries %d, \
                 dropped %d@."
                s.W.Driver.completed s.W.Driver.good s.W.Driver.shed
                s.W.Driver.expired s.W.Driver.retries s.W.Driver.dropped;
              Fmt.pr
                "  %d dispatches, mean fill %.2f of cap %d (wait cap %d ns); \
                 backlog peak %d at %.6f s, above watermark (%d) for %.6f s@."
                s.W.Driver.batches s.W.Driver.mean_batch batch batch_wait
                s.W.Driver.max_backlog
                (float_of_int s.W.Driver.backlog_peak_at_ns /. 1e9)
                s.W.Driver.backlog_watermark
                (float_of_int s.W.Driver.time_above_watermark_ns /. 1e9);
              if batch > 1 then begin
                let bv c = Fpb_obs.Counter.value c in
                Fmt.pr "  shared nodes %d, dup probes %d, pipeline stalls %d@."
                  (bv Batch_stats.shared_nodes)
                  (bv Batch_stats.dup_probes)
                  (bv Batch_stats.pipeline_stalls)
              end;
              List.iter
                (fun (name, h) ->
                  Fmt.pr "  %-12s p50 %8d  p90 %8d  p99 %8d  p999 %8d  (ns)@."
                    name
                    (Fpb_obs.Histogram.percentile h 50.)
                    (Fpb_obs.Histogram.percentile h 90.)
                    (Fpb_obs.Histogram.percentile h 99.)
                    (Fpb_obs.Histogram.percentile h 99.9))
                [
                  ("latency", s.W.Driver.latency);
                  ("queue", s.W.Driver.queue_ns);
                  ("service", s.W.Driver.service_ns);
                ];
              Index_sig.check b.idx;
              let r, u, i, s, m = W.Mix.drawn_counts w.gen in
              Fmt.pr
                "ops drawn: %d read, %d update, %d insert, %d scan, %d rmw; \
                 pool hit rate %.1f%%@."
                r u i s m (Bed.hit_pct b)
            with
            | () -> `Ok ()
            | exception Fpb_storage.Buffer_pool.Overloaded { page; scans } ->
                (* typed refusal from the storage layer: diagnose and
                   report the partial run instead of a backtrace *)
                let p = Fpb_storage.Buffer_pool.stats sys.Setup.pool in
                let v c = Fpb_obs.Counter.value c in
                Fmt.pr
                  "overloaded: the %d-frame pool refused page %d after %d \
                   victim scans (every frame pinned)@."
                  pool_pages page scans;
                Fmt.pr
                  "partial stats: %d committed ops; pool.overloaded %d, \
                   hits %d, misses %d@."
                  (match !workload with
                  | Some w -> !(w.Bed.committed)
                  | None -> 0)
                  (v p.Fpb_storage.Buffer_pool.overloaded)
                  (v p.Fpb_storage.Buffer_pool.hits)
                  (v p.Fpb_storage.Buffer_pool.misses);
                `Error
                  ( false,
                    "buffer pool overloaded — raise --pool, or shed load \
                     with --policy/--deadline" )))
  in
  Cmd.v
    (Cmd.info "ycsb"
       ~doc:
         "Run one YCSB-style workload (mix x distribution) against the \
          disk-first fpB+tree through the buffer pool and WAL, closed loop \
          or — with --rate — open loop (Poisson arrivals, latency measured \
          from arrival, so overload shows up as queueing delay); --batch N \
          swaps the open-loop driver for a size-or-timeout batch server \
          that serves reads as batched level-wise descents")
    Term.(
      ret
        (const run $ mix $ dist $ theta $ clients $ keys $ ops $ tiny $ rate
       $ fixed $ pool $ seed $ deadline $ policy $ qcap $ retry $ retry_budget
       $ retry_base $ batch $ batch_wait))

let demo_cmd =
  let run () =
    let open Fpb_simmem in
    let sim = Sim.create () in
    let pool = Fpb_core.Fpb.make_pool ~page_size:16384 ~n_disks:4 ~capacity:10_000 sim in
    let t = Fpb_core.Fpb.Disk_first.create pool in
    let pairs = Array.init 100_000 (fun i -> (2 * i, i)) in
    Fpb_core.Fpb.Disk_first.bulkload t pairs ~fill:0.8;
    Fmt.pr "bulkloaded 100000 keys: height=%d pages=%d@."
      (Fpb_core.Fpb.Disk_first.height t)
      (Fpb_core.Fpb.Disk_first.page_count t);
    Fmt.pr "search 123456 -> %a@." Fmt.(option ~none:(any "not found") int)
      (Fpb_core.Fpb.Disk_first.search t 123456);
    ignore (Fpb_core.Fpb.Disk_first.insert t 123457 42);
    Fmt.pr "inserted 123457; search -> %a@."
      Fmt.(option ~none:(any "not found") int)
      (Fpb_core.Fpb.Disk_first.search t 123457);
    let n =
      Fpb_core.Fpb.Disk_first.range_scan t ~start_key:1000 ~end_key:2000
        (fun _ _ -> ())
    in
    Fmt.pr "range scan [1000, 2000] -> %d entries@." n;
    Fmt.pr "simulated cycles so far: %d@." (Sim.now sim)
  in
  Cmd.v (Cmd.info "demo" ~doc:"Two-minute tour") Term.(const run $ const ())

let () =
  let doc = "Fractal Prefetching B+-Trees (SIGMOD 2002) reproduction" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "fpb" ~doc)
          [ tune_cmd; list_cmd; exp_cmd; check_cmd; crashtest_cmd; chaos_cmd;
            ycsb_cmd; demo_cmd ]))
