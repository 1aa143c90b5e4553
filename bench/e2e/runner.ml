(* One workload, one process: set up, run the measured phase, check the
   outputs, and turn what was observed into metrics.

   End-to-end metrics always come from an untraced run ([run]).  A
   traced run ([run_traced]) first repeats the untraced phase on a fresh
   system (the overhead baseline), then runs it again with every layer
   call bracketed by spans; both must leave byte-identical simulated
   results, since tracing charges no simulated time. *)

open Fpb_btree_common
open Fpb_storage
open Fpb_simmem
module W = Fpb_workload
module Setup = Fpb_experiments.Setup
module Json = Fpb_obs.Json

type metric = { name : string; value : float; unit : string; samples : int option }

type result = {
  workload : string;
  seed : int;
  seconds : int;
  traced : bool;
  error : string option;  (** first oracle disagreement, if any *)
  attempted : int;
  failed : int;
  metrics : metric list;
  rungs : Json.t list;  (** per-rung detail of the ladder *)
  host_rates : float list;  (** ops per host CPU second of each segment *)
}

let m ?samples name unit value = { name; value; unit; samples }
let fi = float_of_int
let ratio a b = if b = 0 then 0. else fi a /. fi b

(* Exact nearest-rank percentile of a sorted array. *)
let pct sorted p =
  let n = Array.length sorted in
  let r = int_of_float (Float.ceil (p /. 100. *. fi n -. 1e-9)) in
  sorted.(max 0 (min (n - 1) (r - 1)))

(* Simulated latencies (ns) of the logged ops whose kind satisfies
   [keep], sorted; refused ops have no latency. *)
let latencies (c : Engine.ctx) keep =
  let st = c.sys.stream and log = c.log in
  let out = ref [] in
  for i = Array.length log.lat - 1 downto 0 do
    if keep (Bytes.get st.kind i) && log.res.(i) <> Engine.failed then
      out := log.lat.(i) :: !out
  done;
  let a = Array.of_list !out in
  Array.sort compare a;
  a

(* p50 always, p99 from 1 000 samples, p999 from 10 000: each reported
   percentile has at least ten samples beyond it. *)
let percentiles prefix sorted =
  let n = Array.length sorted in
  let p name p = m ~samples:n (prefix ^ name) "us" (fi (pct sorted p) /. 1e3) in
  if n = 0 then []
  else
    [ p "_p50_us" 50. ]
    @ (if n >= 1_000 then [ p "_p99_us" 99. ] else [])
    @ if n >= 10_000 then [ p "_p999_us" 99.9 ] else []

let reads = Engine.is_read
let writes c = not (Engine.is_read c)

(* Every counter the layers export, for deltas across a phase. *)
let counters (sys : Engine.sys) =
  let s = sys.s in
  Stats.kv s.Setup.sim.Sim.stats
  @ Buffer_pool.kv s.Setup.pool
  @ Disk_model.kv s.Setup.disks
  @ (match sys.wal with Some w -> Engine.Wal.kv w | None -> [])
  @ (match sys.shadow with Some sh -> Engine.Shadow.kv sh | None -> [])
  @ Batch_stats.kv ()
  @ [
      ( "index.level_accesses",
        Array.fold_left ( + ) 0 (Index_sig.level_accesses sys.idx) );
    ]

let delta before after =
  List.map (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before))) after

(* Fingerprint of everything simulated a run produced. *)
let digest (c : Engine.ctx) deltas =
  let log = c.log in
  Digest.string
    (Marshal.to_string
       (log.res, log.lat, Array.sub log.order 0 log.n, Sim.now c.sys.s.Setup.sim, deltas)
       [])

let heap_mb () = fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* A user entry is a 4-byte key and a 4-byte tuple id (paper, Section 4). *)
let entry_bytes = 2 * Key.size

let space_amp (sys : Engine.sys) live =
  fi (Index_sig.page_count sys.idx * sys.spec.page_size) /. fi (live * entry_bytes)

(* Closed-loop systems are set up this many times per run, one before
   the measured phase and the rest after it, so a slow spell on the host
   moves one sample rather than the median; the ladder sets up once per
   rung anyway. *)
let setup_reps = 5

(* One measured phase on a fresh system: the context, the driver's
   stats, the counter deltas and the host wall time. *)
type phase = {
  ctx : Engine.ctx;
  deltas : (string * int) list;
  makespan_ns : int;
  host_wall_ns : int;
  driver_stats : [ `Closed of W.Clients.stats | `Rung of W.Batch.stats ];
}

let measure ?tr (spec : Spec.t) sys meter ~rung sd =
  let ctx = Engine.context ?tr sys meter in
  let before = counters sys in
  let wall0 = Tracing.host_now () in
  let driver_stats =
    match (spec.driver, rung) with
    | Spec.Closed { clients }, _ -> `Closed (Engine.run_closed ctx ~clients)
    | Spec.Ladder { batch; batch_wait_ns; _ }, Some rate ->
        `Rung (Engine.run_rung ctx ~rate ~batch ~batch_wait_ns ~seed:sd.Engine.arrivals)
    | Spec.Ladder _, None -> invalid_arg "measure: ladder needs a rung"
  in
  let host_wall_ns = Tracing.host_now () - wall0 in
  let deltas = delta before (counters sys) in
  let makespan_ns =
    match driver_stats with
    | `Closed s -> s.W.Clients.makespan_ns
    | `Rung s -> s.W.Batch.makespan_ns
  in
  { ctx; deltas; makespan_ns; host_wall_ns; driver_stats }

(* ---------------------------------------------------------------- *)
(* Untraced run: the end-to-end metrics.                             *)

(* The mean of a sorted latency array, and the mean of its slowest 1 %,
   in us. *)
let means sorted =
  let n = Array.length sorted in
  let tail = (n + 99) / 100 in
  let mean_us from =
    let s = ref 0 in
    for i = from to n - 1 do
      s := !s + sorted.(i)
    done;
    fi !s /. fi (max 1 (n - from)) /. 1e3
  in
  (mean_us 0, mean_us (n - tail), tail)

(* Exact percentiles per op class, plus the two statistics of all ops
   the regression gate uses: the mean, and the mean of the slowest 1 %
   (both move with every sample, where an order statistic of a
   discrete-latency simulation can sit on one value for every seed). *)
let latency_metrics ctx =
  let all = latencies ctx (fun _ -> true) in
  let mean, tail_mean, tail = means all in
  percentiles "sim_read" (latencies ctx reads)
  @ percentiles "sim_write" (latencies ctx writes)
  @ [
      m ~samples:(Array.length all) "sim_lat_mean_us" "us" mean;
      m ~samples:tail "sim_lat_tail_us" "us" tail_mean;
    ]

type rung = { rate : float; achieved : float; ok : bool; detail : Json.t }

(* The ladder's service objective: p99 of all ops within 100 ms while
   keeping up with 98 % of the offered rate. *)
let slo_ns = 100_000_000

let rung_of ph rate =
  let bs = match ph.driver_stats with `Rung s -> s | `Closed _ -> assert false in
  let all = latencies ph.ctx (fun _ -> true) in
  let p99 = pct all 99. in
  let achieved = bs.W.Batch.throughput_ops_per_s in
  let ok = p99 <= slo_ns && achieved >= 0.98 *. rate in
  let mean, tail_mean, _ = means all in
  let detail =
    Json.Obj
      [
        ("offered_kops", Json.Float (rate /. 1e3));
        ("achieved_kops", Json.Float (achieved /. 1e3));
        ("p50_us", Json.Float (fi (pct all 50.) /. 1e3));
        ("p99_us", Json.Float (fi p99 /. 1e3));
        ("mean_us", Json.Float mean);
        ("tail_us", Json.Float tail_mean);
        ("mean_batch", Json.Float bs.W.Batch.mean_batch);
        ("max_backlog", Json.Int bs.W.Batch.max_backlog);
        ("ok", Json.Bool ok);
      ]
  in
  { rate; achieved; ok; detail }

let run ~(spec : Spec.t) ~seed ~seconds =
  let sd = Engine.seeds seed in
  let n_ops = Spec.ops spec ~seconds in
  let rates =
    match spec.driver with
    | Spec.Closed _ -> [ None ]
    | Spec.Ladder { rungs_ops_per_s; _ } -> List.map Option.some rungs_ops_per_s
  in
  let attempted = n_ops * List.length rates in
  let meter = Host.Meter.create attempted in
  let setups = ref [] in
  let build () =
    Gc.full_major ();
    let sys, t = Host.timed (fun () -> Engine.build spec sd ~n_ops) in
    setups := t :: !setups;
    sys
  in
  let error = ref None and failed = ref 0 in
  (* One measured phase on a fresh system, checked by the oracle. *)
  let phase rung =
    let sys = build () in
    let ph = measure spec sys meter ~rung sd in
    failed := !failed + ph.ctx.Engine.log.failed;
    let live =
      match Engine.check ph.ctx with
      | Ok n -> n
      | Error e ->
          if !error = None then error := Some e;
          0
    in
    (ph, m "space_amp" "ratio" (space_amp sys live))
  in
  let sim, rungs =
    match spec.driver with
    | Spec.Closed _ ->
        let sim =
          let ph, amp = phase None in
          let tput =
            match ph.driver_stats with
            | `Closed s -> s.W.Clients.throughput_ops_per_s
            | `Rung _ -> assert false
          in
          (m "sim_kops" "kops/sim_s" (tput /. 1e3) :: latency_metrics ph.ctx) @ [ amp ]
        in
        for _ = 2 to setup_reps do
          ignore (build ())
        done;
        (sim, [])
    | Spec.Ladder { ref_ops_per_s; _ } ->
        let at_ref = ref [] in
        let rungs =
          List.map
            (fun rung ->
              let rate = Option.get rung in
              let ph, amp = phase rung in
              if rate = ref_ops_per_s then begin
                let all = latencies ph.ctx (fun _ -> true) in
                let p name p = m ~samples:(Array.length all) name "us" (fi (pct all p) /. 1e3) in
                at_ref :=
                  latency_metrics ph.ctx @ [ p "ref_p50_us" 50.; p "ref_p99_us" 99.; amp ]
              end;
              rung_of ph rate)
            rates
        in
        let best f = List.fold_left (fun acc r -> Float.max acc (f r)) 0. rungs in
        (* past its capacity the server runs flat out, so the best
           achieved rate over the rungs is the service capacity *)
        ( (m "sim_kops" "kops/sim_s" (best (fun r -> r.achieved) /. 1e3) :: !at_ref)
          @ [
              m "max_ok_kops" "kops/sim_s"
                (best (fun r -> if r.ok then r.rate else 0.) /. 1e3);
            ],
          List.map (fun r -> r.detail) rungs )
  in
  let host_rates = Host.Meter.rates meter in
  let rate = Host.upper_decile host_rates /. 1e3 and setup = Host.median !setups in
  let slowdown = Host.slowdown () and n_setups = List.length !setups in
  let host =
    [
      m "host_kops" "kops/cpu_s" (rate *. slowdown);
      m "host_kops_raw" "kops/cpu_s" rate;
      m ~samples:n_setups "setup_s" "s" (setup /. slowdown);
      m ~samples:n_setups "setup_raw_s" "s" setup;
      m "probe_ms" "ms" (1e3 *. Host.probe_s ());
      m "heap_mb" "MB" (heap_mb ());
      m ~samples:attempted "error_rate" "fraction" (ratio !failed attempted);
    ]
  in
  {
    workload = spec.name;
    seed;
    seconds;
    traced = false;
    error = !error;
    attempted;
    failed = !failed;
    metrics = sim @ host;
    rungs;
    host_rates;
  }

(* ---------------------------------------------------------------- *)
(* Traced run: the per-layer metrics.                                *)

let per_layer (spec : Spec.t) ph (tr : Tracing.t) ~overhead =
  let d k = Option.value ~default:0 (List.assoc_opt k ph.deltas) in
  let log = ph.ctx.Engine.log in
  let ops = log.Engine.n in
  let per_op x = ratio x ops in
  let writes = ref 0 in
  Bytes.iter (fun c -> if not (Engine.is_read c) then incr writes) ph.ctx.sys.stream.kind;
  let total_host = ph.host_wall_ns in
  let self l = tr.Tracing.self_host.(l) in
  let lat_sum = Array.fold_left ( + ) 0 log.lat in
  let share x = ratio x lat_sum in
  let busy = share tr.busy and stall = share tr.stall in
  let io = share tr.io and shard = share tr.shard in
  let walw = share tr.wait_ns.(Tracing.wal) in
  let snapw = share tr.wait_ns.(Tracing.snapshot) in
  let queue = share (lat_sum - tr.service) in
  let l1 = d "sim.l1_hits" and l2 = d "sim.l2_hits" and mem = d "sim.mem_misses" in
  let hits = d "pool.hits" and misses = d "pool.misses" in
  let user_bytes = !writes * entry_bytes in
  let written = (d "disk.writes" * spec.page_size) + d "wal.log_bytes" in
  let f name unit v = m name unit v in
  [
    f "workload.driver_host_ns_per_op" "ns"
      (per_op (total_host - self Tracing.core - self Tracing.wal - self Tracing.snapshot));
    f "workload.batch_fill" "ops" (ratio ops tr.dispatches);
    f "core.host_ns_per_op" "ns" (per_op (self Tracing.core));
    f "core.sim_ns_per_op" "ns" (per_op tr.sim_ns.(Tracing.core));
    f "core.read.host_ns" "ns" (ratio tr.read_host tr.reads);
    f "core.read.sim_ns" "ns" (ratio tr.read_sim tr.reads);
    f "core.pages_per_op" "pages" (per_op (d "index.level_accesses"));
    f "core.keys_per_read" "keys" (ratio tr.keys_read tr.reads);
    f "core.batch.shared_nodes_per_probe" "nodes" (ratio (d "batch.shared_nodes") log.probes);
    f "core.batch.dup_probes_per_probe" "probes" (ratio (d "batch.dup_probes") log.probes);
    f "core.batch.pipeline_stalls_per_batch" "pages" (ratio (d "batch.pipeline_stalls") log.waves);
    f "simmem.busy_cycles_per_op" "cycles" (per_op (d "sim.busy_cycles"));
    f "simmem.stall_cycles_per_op" "cycles" (per_op (d "sim.stall_cycles"));
    f "simmem.l1_hit_ratio" "ratio" (ratio l1 (l1 + l2 + mem));
    f "simmem.l2_hit_ratio" "ratio" (ratio l2 (l2 + mem));
    f "simmem.mem_misses_per_op" "lines" (per_op mem);
    f "simmem.prefetch_useful_ratio" "ratio" (ratio (d "sim.prefetch_useful") (d "sim.prefetch_issued"));
    f "simmem.prefetch_waits_per_op" "count" (per_op (d "sim.prefetch_waits"));
    f "storage.pool_hit_ratio" "ratio" (ratio hits (hits + misses));
    f "storage.pool_misses_per_op" "pages" (per_op misses);
    f "storage.evictions_per_op" "pages" (per_op (d "pool.evictions"));
    f "storage.prefetch_useful_ratio" "ratio" (ratio (d "pool.prefetch_hits") (d "pool.prefetch_issued"));
    f "storage.prefetch_dropped_per_op" "pages" (per_op (d "pool.prefetch_dropped"));
    f "storage.shard_conflicts_per_op" "count" (per_op (d "pool.shard.conflicts"));
    f "storage.disk_reads_per_op" "pages" (per_op (d "disk.reads"));
    f "storage.disk_writes_per_op" "pages" (per_op (d "disk.writes"));
    f "storage.disk_util" "ratio" (ratio (d "disk.busy_ns") (spec.n_disks * ph.makespan_ns));
    f "storage.write_amp" "ratio" (ratio written user_bytes);
    f "wal.flushes_per_commit" "count" (ratio (d "wal.flushes") (d "wal.commits"));
    f "wal.log_bytes_per_commit" "bytes" (ratio (d "wal.log_bytes") (d "wal.commits"));
    f "wal.image_share" "ratio" (ratio (d "wal.images") (d "wal.images" + d "wal.deltas"));
    f "wal.deferred_writebacks_per_op" "count" (per_op (d "wal.deferred_writebacks"));
    f "wal.host_share" "ratio" (ratio (self Tracing.wal) total_host);
    f "snapshot.flips" "count" (fi (d "ckpt.flips"));
    f "snapshot.pages_hardened_per_op" "pages" (per_op (d "ckpt.pages_hardened"));
    f "snapshot.remaps_per_op" "pages" (per_op (d "pagemap.remaps"));
    f "snapshot.host_share" "ratio" (ratio (self Tracing.snapshot) total_host);
    f "ledger.busy_share" "ratio" busy;
    f "ledger.stall_share" "ratio" stall;
    f "ledger.io_wait_share" "ratio" io;
    f "ledger.shard_wait_share" "ratio" shard;
    f "ledger.wal_wait_share" "ratio" walw;
    f "ledger.snapshot_share" "ratio" snapw;
    f "ledger.queue_share" "ratio" queue;
    f "ledger.other_share" "ratio" (1. -. busy -. stall -. io -. shard -. walw -. snapw -. queue);
    f "trace.host_overhead" "ratio" overhead;
  ]

(* The ladder traces only its reference rung. *)
let run_traced ~(spec : Spec.t) ~seed ~seconds ~trace_dir =
  let sd = Engine.seeds seed in
  let n_ops = Spec.ops spec ~seconds in
  let rung =
    match spec.driver with
    | Spec.Closed _ -> None
    | Spec.Ladder { ref_ops_per_s; _ } -> Some ref_ops_per_s
  in
  (* returns the phase, its tracer and its upper-decile segment rate *)
  let phase ?tr () =
    Gc.full_major ();
    let sys = Engine.build spec sd ~n_ops in
    let tr = Option.map (fun () -> Tracing.create sys.s.Setup.sim sys.s.Setup.pool) tr in
    let meter = Host.Meter.create n_ops in
    let ph = measure ?tr spec sys meter ~rung sd in
    (ph, tr, Host.upper_decile (Host.Meter.rates meter))
  in
  let plain, _, plain_rate = phase () in
  let plain_digest = digest plain.ctx plain.deltas in
  let ph, tr, rate = phase ~tr:() () in
  let tr = Option.get tr in
  let error =
    if digest ph.ctx ph.deltas <> plain_digest then
      Some "traced run's simulated results differ from the untraced run's"
    else match Engine.check ph.ctx with Ok _ -> None | Error e -> Some e
  in
  (match trace_dir with
  | Some dir ->
      let oc = open_out (Filename.concat dir (spec.name ^ ".trace.json")) in
      output_string oc (Json.to_string ~minify:true (Tracing.to_trace_json tr ~workload:spec.name));
      close_out oc
  | None -> ());
  {
    workload = spec.name;
    seed;
    seconds;
    traced = true;
    error;
    attempted = ph.ctx.log.n;
    failed = ph.ctx.log.failed;
    metrics = per_layer spec ph tr ~overhead:((plain_rate /. rate) -. 1.);
    rungs = [];
    host_rates = [];
  }

(* ---------------------------------------------------------------- *)
(* Output                                                            *)

let metric_json x =
  Json.Obj
    ([ ("value", Json.Float x.value); ("unit", Json.Str x.unit) ]
    @ match x.samples with Some n -> [ ("samples", Json.Int n) ] | None -> [])

let to_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Int r.seed);
      ("seconds", Json.Int r.seconds);
      ("traced", Json.Bool r.traced);
      ("correct", Json.Bool (r.error = None));
      ("error", match r.error with Some e -> Json.Str e | None -> Json.Null);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", Json.Obj (List.map (fun x -> (x.name, metric_json x)) r.metrics));
      ("rungs", Json.List r.rungs);
      ("host_segment_ops_per_s", Json.List (List.map (fun x -> Json.Float x) r.host_rates));
    ]

(* The one-line summary: exactly [names], in that order. *)
let summary_json r names =
  let pick name =
    match List.find_opt (fun x -> x.name = name) r.metrics with
    | Some x -> (name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.Str x.unit) ])
    | None -> failwith (Printf.sprintf "%s: no metric %s" r.workload name)
  in
  Json.Obj
    [
      ("correct", Json.Bool (r.error = None));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", Json.Obj (List.map pick names));
    ]
