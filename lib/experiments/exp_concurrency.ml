(* Extension experiment: multi-client scaling of the sharded buffer pool.

   Not a figure from the paper — the paper measures a single execution
   stream; this measures what happens when M logical clients share the
   machine.  The tree is small enough to stay memory-resident after
   bulkload, so operations are CPU plus buffer-pool bookkeeping: with
   one shard every page access serializes on a single pool latch, with N
   shards the latch demand spreads by page-id hash and clients queue far
   less.  The driver is [Fpb_workload.Driver]'s closed loop: a
   conservative discrete-event schedule that runs the earliest client
   next.  Shard latches keep busy-interval timelines, so a client
   replayed at an earlier time waits only inside another client's hold;
   disks and the log keep a single free-at time.

   Each cell sweeps (clients x shards) over a fresh system running a
   search/update mix (updates commit through a group-commit WAL), and
   reports simulated throughput, latency percentiles from the driver's
   histogram, and the shard-conflict rate from the pool's counters.  The
   1-client/1-shard cell doubles as the no-drift baseline: its hit/miss
   counters must equal the pre-sharding pool's exactly (the test suite
   asserts equivalence; the table makes the numbers visible). *)

open Fpb_btree_common
open Fpb_storage
open Fpb_wal

let page_size = 4096
let pool_pages = 4_096 (* whole tree resident: ops are CPU + latch bound *)
let update_frac_pct = 20
let group_commit_bytes = 1 lsl 20

let bulk_entries = function
  | Scale.Tiny -> 10_000
  | Scale.Quick -> 30_000
  | Scale.Full -> 30_000

let ops_per_client = function
  | Scale.Tiny -> 150
  | Scale.Quick -> 1_000
  | Scale.Full -> 4_000

let client_counts = function
  | Scale.Tiny -> [ 1; 2; 8 ]
  | Scale.Quick | Scale.Full -> [ 1; 2; 4; 8 ]

let shard_counts = function
  | Scale.Tiny -> [ 1; 8 ]
  | Scale.Quick | Scale.Full -> [ 1; 4; 8 ]

type cell = {
  stats : Fpb_workload.Driver.stats;
  conflicts : int;
  waits_ns : int;
  hits : int;
  misses : int;
}

(* One measured (clients, shards) cell on a fresh system. *)
let run_cell scale ~n_clients ~n_shards =
  let rng = Fpb_workload.Prng.create 7007 in
  let pairs = Fpb_workload.Keygen.bulk_pairs rng (bulk_entries scale) in
  let sys = Setup.make ~n_disks:4 ~pool_pages ~n_shards ~page_size () in
  let idx = Run.build sys Setup.Disk_first pairs ~fill:0.8 in
  let wal =
    Wal.attach ~group_commit_bytes ~log_stripes:2 ~meta:(Index_sig.meta idx)
      sys.Setup.pool
  in
  (* Warm pass so the measured run sees a resident tree on every shard
     count alike. *)
  let warm = Fpb_workload.Keygen.random_keys rng 200 in
  Array.iter (fun k -> ignore (Index_sig.search idx k)) warm;
  Buffer_pool.reset_stats sys.Setup.pool;
  let key_space = 2 * bulk_entries scale in
  let rngs =
    Array.init n_clients (fun i -> Fpb_workload.Prng.create (9001 + (131 * i)))
  in
  let committed = ref 0 in
  let stats =
    let module D = Fpb_workload.Driver in
    D.run ~sim:sys.Setup.sim
      (D.config ~n_clients (D.Closed { ops_per_client = ops_per_client scale }))
      (D.each @@ fun ~client ~seq:_ ->
        let rng = rngs.(client) in
        let k = Fpb_workload.Prng.int rng key_space in
        if Fpb_workload.Prng.int rng 100 < update_frac_pct then begin
          ignore (Index_sig.insert idx k k);
          incr committed;
          Wal.commit wal ~op:!committed ~meta:(Index_sig.meta idx)
        end
        else ignore (Index_sig.search idx k))
  in
  Index_sig.check idx;
  let p = Buffer_pool.stats sys.Setup.pool in
  let v c = Fpb_obs.Counter.value c in
  Telemetry.add_kv (Buffer_pool.kv sys.Setup.pool);
  Telemetry.add
    (Printf.sprintf "concurrency.c%d.s%d.throughput_ops_per_s" n_clients
       n_shards)
    (int_of_float stats.Fpb_workload.Driver.throughput_ops_per_s);
  {
    stats;
    conflicts = v p.Buffer_pool.shard_conflicts;
    waits_ns = v p.Buffer_pool.shard_waits_ns;
    hits = v p.Buffer_pool.hits;
    misses = v p.Buffer_pool.misses;
  }

let run scale =
  let clients = client_counts scale in
  let shards = shard_counts scale in
  let cells =
    List.map
      (fun c ->
        (c, List.map (fun s -> (s, run_cell scale ~n_clients:c ~n_shards:s)) shards))
      clients
  in
  let shard_headers = List.map (fun s -> Printf.sprintf "%d shards" s) shards in
  let throughput =
    Table.make ~id:"concurrency-a"
      ~title:
        "Simulated throughput, search/update mix (Kops per simulated second; \
         disk-first fpB+tree, memory-resident)"
      ~header:("clients" :: shard_headers)
      (List.map
         (fun (c, row) ->
           Table.cell_i c
           :: List.map
                (fun (_, cell) ->
                  Table.cell_f
                    (cell.stats.Fpb_workload.Driver.throughput_ops_per_s
                   /. 1e3))
                row)
         cells)
  in
  let conflict_rate =
    Table.make ~id:"concurrency-b"
      ~title:"Shard-latch conflicts per 1000 operations"
      ~header:("clients" :: shard_headers)
      (List.map
         (fun (c, row) ->
           Table.cell_i c
           :: List.map
                (fun (_, cell) ->
                  Table.cell_f
                    (1000.
                    *. float_of_int cell.conflicts
                    /. float_of_int (max 1 cell.stats.Fpb_workload.Driver.ops)))
                row)
         cells)
  in
  let max_clients = List.fold_left max 1 clients in
  let latency_rows =
    match List.assoc_opt max_clients cells with
    | None -> []
    | Some row ->
        List.map
          (fun (s, cell) ->
            let h = cell.stats.Fpb_workload.Driver.latency in
            [
              Table.cell_i s;
              Table.cell_i (int_of_float (Fpb_obs.Histogram.mean h));
              Table.cell_i (Fpb_obs.Histogram.percentile h 50.);
              Table.cell_i (Fpb_obs.Histogram.percentile h 99.);
              Table.cell_ms cell.waits_ns;
            ])
          row
  in
  let latency =
    Table.make ~id:"concurrency-c"
      ~title:
        (Printf.sprintf "Operation latency at %d clients (simulated ns)"
           max_clients)
      ~header:[ "shards"; "mean"; "p50"; "p99"; "latch wait ms" ]
      latency_rows
  in
  let baseline_rows =
    match List.assoc_opt 1 cells with
    | None -> []
    | Some row ->
        List.map
          (fun (s, cell) ->
            [
              Table.cell_i s;
              Table.cell_i cell.hits;
              Table.cell_i cell.misses;
              Table.cell_i cell.conflicts;
            ])
          row
  in
  let baseline =
    Table.make ~id:"concurrency-d"
      ~title:
        "Single-client baseline: hit/miss counters are shard-invariant and \
         conflict-free (no behaviour drift)"
      ~header:[ "shards"; "pool hits"; "pool misses"; "latch conflicts" ]
      baseline_rows
  in
  [ throughput; conflict_rate; latency; baseline ]
