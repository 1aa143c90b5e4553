(* Extension experiment: YCSB-style mixes, skew, and open- vs
   closed-loop arrival discipline.

   The paper sweeps uniform bulk searches and updates; this is the
   "millions of simulated users" scenario generator: the standard YCSB
   core mixes (A-F) over skewed key popularity, served by the disk-first
   fpB+-Tree through a buffer pool deliberately sized to a fraction of
   the tree (so popularity decides the hit rate) with updates committing
   through a group-commit WAL.

   Three tables:
     ycsb-a  the six core mixes, closed loop: throughput + latency tail
     ycsb-b  one read-mostly mix across key distributions: skew buys
             hit rate and shrinks the tail
     ycsb-c  the same mix A system driven closed loop (clients sweep)
             and open loop (arrival-rate sweep around the measured
             closed-loop capacity, then at fixed rates).  Closed loop,
             offered load adapts: throughput plateaus at capacity and
             p99 stays near service time however many clients pile on.
             Open loop, arrivals don't care: past capacity the queue
             grows for the whole run and p99/p999 explode.  Overload is
             a latency phenomenon, and only the open-loop driver can
             show it. *)

open Fpb_btree_common
module W = Fpb_workload
module Keygen = Fpb_workload.Keygen

let bulk_entries = function
  | Scale.Tiny -> 20_000
  | Scale.Quick -> 60_000
  | Scale.Full -> 200_000

let total_ops = function
  | Scale.Tiny -> 600
  | Scale.Quick -> 4_000
  | Scale.Full -> 16_000

let full_diffs = "wal.delta.full_diffs"

type cell = {
  label : string;
  offered_ops_per_s : float option; (* None: closed loop *)
  throughput_ops_per_s : float;
  latency : Fpb_obs.Histogram.t;
  max_backlog : int option;
  hit_pct : float;
  drawn : int * int * int * int * int;
}

(* A fresh test bed and workload per cell, so cells never contaminate
   each other; [k] drives it and returns the cell's result.  Each cell
   also adds its WAL's whole-page delta diffs (none expected: every page
   change goes through [Mem]). *)
let with_system scale ~pool_pages ?dist mix k =
  let b = Bed.make (Bed.system ~pool_pages) (Bed.pairs (bulk_entries scale)) in
  let wal = Bed.wal b in
  let w = Bed.workload ?dist ~mix b wal in
  let result = k b w in
  Telemetry.add full_diffs (List.assoc full_diffs (Fpb_wal.Wal.kv wal));
  Index_sig.check b.Bed.idx;
  (result, Bed.hit_pct b)

let record_cell c =
  let slug =
    String.map (function ' ' | '(' | ')' -> '-' | ch -> ch)
      (String.lowercase_ascii c.label)
  in
  let pc p = Fpb_obs.Histogram.percentile c.latency p in
  Telemetry.add
    (Printf.sprintf "ycsb.%s.throughput_ops_per_s" slug)
    (int_of_float c.throughput_ops_per_s);
  Telemetry.add (Printf.sprintf "ycsb.%s.p50_ns" slug) (pc 50.);
  Telemetry.add (Printf.sprintf "ycsb.%s.p99_ns" slug) (pc 99.);
  Telemetry.add (Printf.sprintf "ycsb.%s.p999_ns" slug) (pc 99.9);
  (match c.offered_ops_per_s with
  | Some r ->
      Telemetry.add
        (Printf.sprintf "ycsb.%s.offered_ops_per_s" slug)
        (int_of_float r)
  | None -> ());
  (match c.max_backlog with
  | Some b -> Telemetry.add (Printf.sprintf "ycsb.%s.max_backlog" slug) b
  | None -> ());
  let r, u, i, s, m = c.drawn in
  List.iter
    (fun (name, n) ->
      if n > 0 then Telemetry.add (Printf.sprintf "ycsb.%s.ops.%s" slug name) n)
    [ ("read", r); ("update", u); ("insert", i); ("scan", s); ("rmw", m) ];
  c

let run_closed scale ~pool_pages ?dist ?label ~n_clients mix =
  let (stats, drawn), hit_pct =
    with_system scale ~pool_pages ?dist mix (fun b w ->
        let s = Bed.closed b ~n_clients ~n_ops:(total_ops scale) w.Bed.op in
        (s, W.Mix.drawn_counts w.Bed.gen))
  in
  record_cell
    {
      label =
        (match label with
        | Some l -> l
        | None -> Printf.sprintf "%s closed" mix.W.Mix.name);
      offered_ops_per_s = None;
      throughput_ops_per_s = stats.W.Driver.throughput_ops_per_s;
      latency = stats.W.Driver.latency;
      max_backlog = None;
      hit_pct;
      drawn;
    }

let run_open scale ~pool_pages ?dist ~label ~n_clients ~rate_ops_per_s mix =
  let (stats, drawn), hit_pct =
    with_system scale ~pool_pages ?dist mix (fun b w ->
        let s =
          W.Driver.run ~sim:b.Bed.sys.Setup.sim
            (W.Driver.config ~n_clients
               (W.Driver.open_loop ~n_ops:(total_ops scale) rate_ops_per_s))
            (W.Driver.each w.Bed.op)
        in
        (s, W.Mix.drawn_counts w.Bed.gen))
  in
  record_cell
    {
      label;
      offered_ops_per_s = Some stats.W.Driver.offered_ops_per_s;
      throughput_ops_per_s = stats.W.Driver.throughput_ops_per_s;
      latency = stats.W.Driver.latency;
      max_backlog = Some stats.W.Driver.max_backlog;
      hit_pct;
      drawn;
    }

let latency_cells c =
  let pc p = Fpb_obs.Histogram.percentile c.latency p in
  [
    Table.cell_i (pc 50.); Table.cell_i (pc 99.); Table.cell_i (pc 99.9);
  ]

(* Table ycsb-a: the six core mixes, closed loop. *)
let core_mixes scale ~pool_pages =
  let n_clients = Bed.clients scale in
  let rows =
    List.map
      (fun mix ->
        let c = run_closed scale ~pool_pages ~n_clients mix in
        (Printf.sprintf "%s (%s)" mix.W.Mix.name
           (Keygen.dist_name (W.Mix.default_dist mix))
        :: Table.cell_f (c.throughput_ops_per_s /. 1e3)
        :: latency_cells c)
        @ [ Table.cell_f c.hit_pct ])
      W.Mix.all
  in
  Table.make ~id:"ycsb-a"
    ~title:
      (Printf.sprintf
         "YCSB core mixes, closed loop (%d clients, %d ops, disk-first \
          fpB+tree, 4KB pages, pool = tree/2, group-commit WAL; latency in \
          simulated ns)"
         n_clients (total_ops scale))
    ~header:
      [ "mix"; "Kops/s"; "p50"; "p99"; "p999"; "pool hit %" ]
    rows

(* Table ycsb-b: one read-mostly mix across key distributions. *)
let skew_sweep scale ~pool_pages =
  let n_clients = Bed.clients scale in
  let theta = Keygen.default_theta in
  let dists =
    [
      Keygen.Uniform;
      Keygen.Zipfian { theta = 0.5; scrambled = true };
      Keygen.Zipfian { theta = 0.8; scrambled = true };
      Keygen.Zipfian { theta; scrambled = true };
      Keygen.Zipfian { theta; scrambled = false };
      Keygen.Hotspot { hot_frac = 0.2; hot_op_frac = 0.8 };
      Keygen.Latest { theta };
    ]
  in
  let rows =
    List.map
      (fun dist ->
        let c =
          run_closed scale ~pool_pages ~dist
            ~label:(Printf.sprintf "B %s" (Keygen.dist_name dist))
            ~n_clients W.Mix.b
        in
        (Keygen.dist_name dist
        :: Table.cell_f (c.throughput_ops_per_s /. 1e3)
        :: latency_cells c)
        @ [ Table.cell_f c.hit_pct ])
      dists
  in
  Table.make ~id:"ycsb-b"
    ~title:
      "Mix B (95/5 read/update) across key distributions: skew concentrates \
       the working set, buys pool hits and shrinks the tail"
    ~header:[ "distribution"; "Kops/s"; "p50"; "p99"; "p999"; "pool hit %" ]
    rows

(* Table ycsb-c: closed loop vs open loop around saturation. *)
let arrival_sweep scale ~pool_pages =
  let c0 = Bed.clients scale in
  let closed =
    List.map
      (fun m ->
        let n_clients = c0 * m in
        ( Printf.sprintf "closed %d clients" n_clients,
          run_closed scale ~pool_pages
            ~label:(Printf.sprintf "A closed c%d" n_clients)
            ~n_clients W.Mix.a ))
      [ 1; 2; 4 ]
  in
  (* Capacity: the best throughput closed loop ever reaches — by
     construction the offered rates below/above it straddle saturation.
     The open-loop cells get the service parallelism of the largest
     closed config, so the comparison isolates the arrival discipline. *)
  let capacity =
    List.fold_left (fun acc (_, c) -> max acc c.throughput_ops_per_s) 1. closed
  in
  let open_clients = c0 * 4 in
  let open_cells =
    List.map
      (fun pct ->
        let rate = capacity *. float_of_int pct /. 100. in
        ( Printf.sprintf "open %d%% of capacity" pct,
          run_open scale ~pool_pages
            ~label:(Printf.sprintf "A open r%d" pct)
            ~n_clients:open_clients ~rate_ops_per_s:rate W.Mix.a ))
      [ 50; 80; 95; 110; 140 ]
  in
  (* The rows above offer a share of the capacity this run measured, so
     a change that moves capacity moves their load too.  These offer the
     same fixed rates to every build: ~50, 75 and 90 % of the tiny
     scale's capacity when they were added (6.1 Kops/s), ~55, 80 and
     100 % of quick's (5.5 Kops/s). *)
  let fixed_cells =
    List.map
      (fun rate ->
        ( Printf.sprintf "open at %d ops/s" rate,
          run_open scale ~pool_pages
            ~label:(Printf.sprintf "A open at %d" rate)
            ~n_clients:open_clients ~rate_ops_per_s:(float_of_int rate)
            W.Mix.a ))
      [ 3_000; 4_500; 5_500 ]
  in
  let row (name, c) =
    (name
    :: (match c.offered_ops_per_s with
       | None -> "-"
       | Some r -> Table.cell_f (r /. 1e3))
    :: Table.cell_f (c.throughput_ops_per_s /. 1e3)
    :: latency_cells c)
    @ [ (match c.max_backlog with None -> "-" | Some b -> Table.cell_i b) ]
  in
  Table.make ~id:"ycsb-c"
    ~title:
      (Printf.sprintf
         "Mix A closed vs open loop (%d service clients; capacity = best \
          closed-loop throughput = %.1f Kops/s).  Closed loop saturates \
          gracefully; open loop past capacity queues for the whole run and \
          the tail explodes; the \"open at\" rows offer fixed rates, the \
          same load for every build"
         open_clients (capacity /. 1e3))
    ~header:
      [ "driver"; "offered Kops/s"; "Kops/s"; "p50"; "p99"; "p999";
        "max backlog" ]
    (List.map row (closed @ open_cells @ fixed_cells))

let run scale =
  let pool_pages = Bed.pool_pages ~share:2 (Bed.pairs (bulk_entries scale)) in
  [
    core_mixes scale ~pool_pages;
    skew_sweep scale ~pool_pages;
    arrival_sweep scale ~pool_pages;
  ]
