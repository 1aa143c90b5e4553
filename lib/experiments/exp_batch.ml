(* Extension experiment: batched level-wise descents with cross-probe
   prefetch pipelining (docs/BATCHING.md).

   The paper pipelines cache-line prefetches WITHIN one descent; this
   sweep measures what batching buys ACROSS descents: sort the batch,
   walk all probes level by level, fetch every node of a level once
   however many probes route through it, and prefetch the next level's
   frontier (cache lines and disk pages) while still searching the
   current one.

   Three tables:
     batch-a  batch size x index: back-to-back service rate of
              [search_batch] vs singleton [search] on all four indexes.
              Upper levels dedup (root fetched once per wave, not once
              per probe) and leaf misses overlap across the disk array,
              so Kops/s grows with the batch.
     batch-b  skew x fixed batch on the disk-first fpB+-Tree: sharing
              ([batch.dup_probes]/probe) grows with skew, and with it
              the batched speedup.
     batch-c  arrival discipline around capacity: one singleton server
              (open loop, per-op FIFO) vs the same server batching under
              the size-or-timeout rule ({!Fpb_workload.Driver}).  Below
              saturation batching pays a latency floor — an op waits for
              company — while past capacity the batched server's higher
              service rate keeps the backlog and the tail bounded. *)

open Fpb_btree_common
open Fpb_storage
module W = Fpb_workload
module Keygen = Fpb_workload.Keygen

let bulk_entries = function
  | Scale.Tiny -> 20_000
  | Scale.Quick -> 60_000
  | Scale.Full -> 200_000

(* Probes per cell; divisible by every swept batch size. *)
let total_probes = function
  | Scale.Tiny -> 768
  | Scale.Quick -> 4_096
  | Scale.Full -> 16_384

let batch_sizes = function
  | Scale.Tiny -> [ 1; 8; 32 ]
  | Scale.Quick | Scale.Full -> [ 1; 4; 8; 16; 32; 64 ]

let zipf = Keygen.Zipfian { theta = Keygen.default_theta; scrambled = true }

(* Pool sized to a quarter of the tree (probe build per index kind), so
   leaf descents miss and the cross-probe disk pipeline has work to
   hide. *)
let pool_pages_for scale kind =
  Bed.pool_pages ~kind ~share:4 (Bed.pairs (bulk_entries scale))

(* A fresh test bed, probe key stream and warm pool per cell, so cells
   never contaminate each other.  The probe keys are drawn up front (one
   rng, fixed seed): every cell of a row answers the exact same lookups
   in the exact same order, whatever the batch size. *)
let with_index scale kind ~pool_pages ~dist k =
  let b =
    Bed.make ~kind (Bed.system ~pool_pages) (Bed.pairs (bulk_entries scale))
  in
  let n = Array.length b.pairs in
  let krng = W.Prng.create 7777 in
  let keys =
    Array.init (total_probes scale) (fun _ ->
        fst b.pairs.(W.Keygen.draw_pos dist krng ~n))
  in
  Bed.warm b ~dist;
  let r = k b keys in
  Index_sig.check b.idx;
  r

type cell = {
  ops_per_s : float;
  ns_per_op : float;
  level0 : int;  (* root accesses: ~probes/batch once batching kicks in *)
  shared : int;  (* batch.shared_nodes delta *)
  dups : int;  (* batch.dup_probes delta *)
  stalls : int;  (* batch.pipeline_stalls delta *)
  hit_pct : float;
}

let batch_counters () =
  ( Fpb_obs.Counter.value Batch_stats.shared_nodes,
    Fpb_obs.Counter.value Batch_stats.dup_probes,
    Fpb_obs.Counter.value Batch_stats.pipeline_stalls )

(* Back-to-back service rate: the probe stream cut into groups of [b]
   ([b = 1] runs the singleton discipline, the pre-batching baseline). *)
let service_cell scale kind ~pool_pages ~dist b =
  with_index scale kind ~pool_pages ~dist (fun bed keys ->
      let sys = bed.Bed.sys and idx = bed.idx in
      let np = Array.length keys in
      Index_sig.reset_level_accesses idx;
      let sh0, dp0, st0 = batch_counters () in
      let expect = Array.map (fun k -> Index_sig.search idx k) keys in
      Buffer_pool.reset_stats sys.Setup.pool;
      Index_sig.reset_level_accesses idx;
      let ns =
        Setup.measure_sim_time sys (fun () ->
            let i = ref 0 in
            while !i < np do
              let k = min b (np - !i) in
              if k = 1 then ignore (Index_sig.search idx keys.(!i))
              else begin
                let got = Index_sig.search_batch idx (Array.sub keys !i k) in
                for j = 0 to k - 1 do
                  assert (got.(j) = expect.(!i + j))
                done
              end;
              i := !i + k
            done)
      in
      let sh1, dp1, st1 = batch_counters () in
      {
        ops_per_s =
          (if ns = 0 then 0. else float_of_int np *. 1e9 /. float_of_int ns);
        ns_per_op = float_of_int ns /. float_of_int (max 1 np);
        level0 = (Index_sig.level_accesses idx).(0);
        shared = sh1 - sh0;
        dups = dp1 - dp0;
        stalls = st1 - st0;
        hit_pct = Bed.hit_pct bed;
      })

let record prefix c =
  Telemetry.add (prefix ^ ".ops_per_s") (int_of_float c.ops_per_s);
  Telemetry.add (prefix ^ ".level0_accesses") c.level0;
  Telemetry.add (prefix ^ ".shared_nodes") c.shared;
  Telemetry.add (prefix ^ ".dup_probes") c.dups;
  Telemetry.add (prefix ^ ".pipeline_stalls") c.stalls;
  c

(* Table batch-a: batch size x index, Zipfian probes. *)
let size_sweep scale =
  let sizes = batch_sizes scale in
  let rows =
    List.concat_map
      (fun kind ->
        let pool_pages = pool_pages_for scale kind in
        let slug = Run.slug (Setup.kind_name kind) in
        List.map
          (fun b ->
            let c =
              record
                (Printf.sprintf "batch.a.%s.b%d" slug b)
                (service_cell scale kind ~pool_pages ~dist:zipf b)
            in
            [
              Setup.kind_name kind;
              string_of_int b;
              Table.cell_f (c.ops_per_s /. 1e3);
              Table.cell_i (int_of_float c.ns_per_op);
              Table.cell_i c.level0;
              Table.cell_i c.shared;
              Table.cell_i c.dups;
              Table.cell_i c.stalls;
              Table.cell_f c.hit_pct;
            ])
          sizes)
      Setup.all_kinds
  in
  Table.make ~id:"batch-a"
    ~title:
      (Printf.sprintf
         "Batched vs singleton search, batch size sweep (%d Zipfian probes, \
          4KB pages, pool = tree/4, %d disks; B=1 is the singleton descent \
          discipline).  Root accesses drop to probes/B and shared upper \
          levels are fetched once per wave"
         (total_probes scale) Bed.n_disks)
    ~header:
      [
        "index"; "B"; "Kops/s"; "ns/op"; "root accesses"; "shared nodes";
        "dup probes"; "stalls"; "pool hit %";
      ]
    rows

(* Table batch-b: skew sweep at a fixed batch on the disk-first tree. *)
let skew_sweep scale =
  let b = 16 in
  let pool_pages = pool_pages_for scale Setup.Disk_first in
  let dists =
    [
      Keygen.Uniform;
      Keygen.Zipfian { theta = 0.5; scrambled = true };
      Keygen.Zipfian { theta = 0.8; scrambled = true };
      zipf;
      Keygen.Hotspot { hot_frac = 0.2; hot_op_frac = 0.8 };
    ]
  in
  let rows =
    List.map
      (fun dist ->
        let slug = Run.slug (Keygen.dist_name dist) in
        let s1 = service_cell scale Setup.Disk_first ~pool_pages ~dist 1 in
        let cb =
          record
            (Printf.sprintf "batch.b.%s" slug)
            (service_cell scale Setup.Disk_first ~pool_pages ~dist b)
        in
        let speedup = cb.ops_per_s /. max 1. s1.ops_per_s in
        Telemetry.add
          (Printf.sprintf "batch.b.%s.speedup_pct" slug)
          (int_of_float (100. *. speedup));
        [
          Keygen.dist_name dist;
          Table.cell_f (s1.ops_per_s /. 1e3);
          Table.cell_f (cb.ops_per_s /. 1e3);
          Table.cell_f speedup;
          Table.cell_f
            (float_of_int cb.dups /. float_of_int (total_probes scale));
          Table.cell_f cb.hit_pct;
        ])
      dists
  in
  Table.make ~id:"batch-b"
    ~title:
      (Printf.sprintf
         "Skew sweep at B=%d (disk-first fpB+tree): skew concentrates probes \
          onto shared nodes, so in-wave sharing — and with it the batched \
          speedup — grows with skew"
         b)
    ~header:
      [
        "distribution"; "B=1 Kops/s"; "batched Kops/s"; "speedup";
        "dup probes/op"; "pool hit %";
      ]
    rows

(* Table batch-c: arrival discipline around capacity. *)
type arr_cell = {
  label : string;
  offered : float;
  tput : float;
  latency : Fpb_obs.Histogram.t;
  backlog : int;
  mean_batch : float option;
}

let record_arr c =
  let slug =
    String.map (function ' ' -> '-' | ch -> ch) (String.lowercase_ascii c.label)
  in
  let pc p = Fpb_obs.Histogram.percentile c.latency p in
  Telemetry.add
    (Printf.sprintf "batch.c.%s.offered_ops_per_s" slug)
    (int_of_float c.offered);
  Telemetry.add
    (Printf.sprintf "batch.c.%s.ops_per_s" slug)
    (int_of_float c.tput);
  Telemetry.add (Printf.sprintf "batch.c.%s.p50_ns" slug) (pc 50.);
  Telemetry.add (Printf.sprintf "batch.c.%s.p99_ns" slug) (pc 99.);
  Telemetry.add (Printf.sprintf "batch.c.%s.max_backlog" slug) c.backlog;
  c

let open_single scale ~pool_pages ~label ~rate =
  with_index scale Setup.Disk_first ~pool_pages ~dist:zipf (fun b keys ->
      let np = Array.length keys in
      let s =
        W.Driver.run ~sim:b.Bed.sys.Setup.sim
          (W.Driver.config (W.Driver.open_loop ~n_ops:np rate))
          (W.Driver.each (fun ~client:_ ~seq ->
               ignore (Index_sig.search b.idx keys.(seq))))
      in
      record_arr
        {
          label;
          offered = s.W.Driver.offered_ops_per_s;
          tput = s.W.Driver.throughput_ops_per_s;
          latency = s.W.Driver.latency;
          backlog = s.W.Driver.max_backlog;
          mean_batch = None;
        })

let open_batched scale ~pool_pages ~label ~rate ~batch ~batch_wait_ns =
  with_index scale Setup.Disk_first ~pool_pages ~dist:zipf (fun b keys ->
      let np = Array.length keys in
      let s =
        W.Driver.run ~sim:b.Bed.sys.Setup.sim
          (W.Driver.config ~batch ~batch_wait_ns
             (W.Driver.open_loop ~n_ops:np rate))
          (fun ~client:_ seqs ->
            ignore
              (Index_sig.search_batch b.idx
                 (Array.map (fun seq -> keys.(seq)) seqs)))
      in
      record_arr
        {
          label;
          offered = s.W.Driver.offered_ops_per_s;
          tput = s.W.Driver.throughput_ops_per_s;
          latency = s.W.Driver.latency;
          backlog = s.W.Driver.max_backlog;
          mean_batch = Some s.W.Driver.mean_batch;
        })

let arrival_sweep scale =
  let pool_pages = pool_pages_for scale Setup.Disk_first in
  (* Capacity of the singleton server: its back-to-back service rate. *)
  let cap =
    max 1. (service_cell scale Setup.Disk_first ~pool_pages ~dist:zipf 1).ops_per_s
  in
  (* Long enough to gather a near-full batch at the low offered rate. *)
  let batch_wait_ns = int_of_float (16. *. 1e9 /. cap) in
  let cells =
    List.concat_map
      (fun pct ->
        let rate = cap *. float_of_int pct /. 100. in
        open_single scale ~pool_pages
          ~label:(Printf.sprintf "single r%d" pct)
          ~rate
        :: List.map
             (fun b ->
               open_batched scale ~pool_pages
                 ~label:(Printf.sprintf "b%d r%d" b pct)
                 ~rate ~batch:b ~batch_wait_ns)
             [ 8; 32 ])
      [ 40; 110 ]
  in
  let row c =
    [
      c.label;
      Table.cell_f (c.offered /. 1e3);
      Table.cell_f (c.tput /. 1e3);
      Table.cell_i (Fpb_obs.Histogram.percentile c.latency 50.);
      Table.cell_i (Fpb_obs.Histogram.percentile c.latency 99.);
      Table.cell_i c.backlog;
      (match c.mean_batch with None -> "-" | Some m -> Table.cell_f m);
    ]
  in
  Table.make ~id:"batch-c"
    ~title:
      (Printf.sprintf
         "Open-loop arrival discipline around singleton capacity (%.1f \
          Kops/s, one server, size-or-timeout wait %d ns): below saturation \
          batching pays a latency floor waiting for company; past capacity \
          its higher service rate bounds backlog and tail"
         (cap /. 1e3) batch_wait_ns)
    ~header:
      [
        "driver"; "offered Kops/s"; "Kops/s"; "p50"; "p99"; "max backlog";
        "mean batch";
      ]
    (List.map row cells)

let run scale =
  (* The batch.* instruments are process-global: reset so reruns in one
     process (determinism tests) see identical deltas. *)
  Batch_stats.reset ();
  let tables = [ size_sweep scale; skew_sweep scale; arrival_sweep scale ] in
  Telemetry.add_kv (Batch_stats.kv ());
  tables
