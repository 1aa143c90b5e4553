(* The benchmark's four workloads.  Each stresses a different layer of
   the stack (see README.md for the reasons and the layer table).

   Sizes are absolute: pool capacities are fixed frame counts, not
   fractions of the tree, so a change that grows or shrinks the tree
   shows up in the numbers instead of being absorbed by a resized pool.

   Run length is an operation budget, [ops_per_second * seconds]: a run
   is a fixed amount of simulated work, so every simulated metric is a
   pure function of (seed, seconds) and repeats exactly.  The rates are
   calibrated so the measured phase takes about [seconds] of host CPU
   on a 2-core x86-64 container. *)

module W = Fpb_workload
module Setup = Fpb_experiments.Setup

type driver =
  | Closed of { clients : int }
      (** {!W.Clients}: each logical client issues its next op when the
          previous one completes *)
  | Ladder of {
      rungs_ops_per_s : float list;
          (** offered Poisson rates, one fresh system per rung *)
      ref_ops_per_s : float;  (** the rung the latency metrics come from *)
      batch : int;
      batch_wait_ns : int;
    }
      (** {!W.Batch}: open loop, size-or-timeout batch server; reads of
          one dispatch run as one [search_batch] wave *)

type t = {
  name : string;
  why : string;
  index : Setup.kind;
  page_size : int;
  keys : int;  (** bulk-loaded entries *)
  fill : float;
  pool_frames : int;
  n_disks : int;
  n_shards : int;
  mix : W.Mix.t;
  dist : W.Keygen.dist;
  max_scan_span : int;
  wal : bool;  (** 64 KB group-commit WAL on every write *)
  shadow_every : int;
      (** begin a fuzzy checkpoint every that many commits (0 = none);
          an in-progress one hardens 2 pages per commit *)
  driver : driver;
  ops_per_second : int;  (** operation budget per second of [--seconds] *)
}

let zipf = W.Keygen.Zipfian { theta = W.Keygen.default_theta; scrambled = true }
let group_commit_bytes = 1 lsl 16

let lookup_resident =
  {
    name = "lookup-resident";
    why =
      "cache-first tree fully resident in the pool but ~8x the simulated \
       L2: CPU-cache time decides, the disk is idle";
    index = Setup.Cache_first;
    page_size = 16384;
    keys = 2_000_000;
    fill = 1.0;
    pool_frames = 4096;
    n_disks = 4;
    n_shards = 1;
    mix = W.Mix.c;
    dist = W.Keygen.Uniform;
    max_scan_span = 100;
    wal = false;
    shadow_every = 0;
    driver = Closed { clients = 1 };
    ops_per_second = 170_000;
  }

let ycsb_a_disk =
  {
    name = "ycsb-a-disk";
    why =
      "50/50 read/update on a pool holding 1/8 of the tree: pool misses, \
       shard latches, WAL forces and fuzzy checkpoints decide";
    index = Setup.Disk_first;
    page_size = 4096;
    keys = 1_000_000;
    fill = 0.8;
    pool_frames = 333;
    n_disks = 4;
    n_shards = 4;
    mix = W.Mix.a;
    dist = zipf;
    max_scan_span = 100;
    wal = true;
    shadow_every = 50_000;
    driver = Closed { clients = 8 };
    ops_per_second = 100_000;
  }

let scan_e_disk =
  {
    name = "scan-e-disk";
    why =
      "95% range scans of up to 2000 keys on a pool holding 1/16 of the \
       tree: jump-pointer-array prefetch across 10 disks decides";
    index = Setup.Disk_first;
    page_size = 4096;
    keys = 1_000_000;
    fill = 0.8;
    pool_frames = 166;
    n_disks = 10;
    n_shards = 4;
    mix = W.Mix.e;
    dist = zipf;
    max_scan_span = 2000;
    wal = true;
    shadow_every = 0;
    driver = Closed { clients = 4 };
    ops_per_second = 8_000;
  }

let batch_b_ladder =
  {
    name = "batch-b-ladder";
    why =
      "open-loop 95/5 reads served in size-or-timeout batches at fixed \
       rates: the only path through search_batch and get_batch";
    index = Setup.Disk_first;
    page_size = 4096;
    keys = 1_000_000;
    fill = 0.8;
    pool_frames = 667;
    n_disks = 4;
    n_shards = 4;
    mix = W.Mix.b;
    dist = zipf;
    max_scan_span = 100;
    wal = true;
    shadow_every = 0;
    driver =
      Ladder
        {
          rungs_ops_per_s = [ 1000.; 1250.; 1500.; 1750.; 2000.; 2250.; 2500. ];
          ref_ops_per_s = 1250.;
          batch = 16;
          batch_wait_ns = 2_000_000;
        };
    ops_per_second = 250_000;
  }

let all = [ lookup_resident; ycsb_a_disk; scan_e_disk; batch_b_ladder ]
let find name = List.find_opt (fun w -> w.name = name) all

(* Ops per measured phase: the run's budget, split evenly over the
   ladder's rungs, and a multiple of the client count so every
   closed-loop client runs the same number of ops. *)
let ops w ~seconds =
  let n = max 1 (w.ops_per_second * seconds) in
  match w.driver with
  | Closed { clients } -> max clients (n / clients * clients)
  | Ladder { rungs_ops_per_s; _ } -> max 1 (n / List.length rungs_ops_per_s)
