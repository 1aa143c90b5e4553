(* The YCSB-style test bed: the one place that decides the system every
   workload experiment (ycsb, checkpoint, overload, replica, batch) and
   `fpb ycsb` serve on.  A bulkloaded index (the disk-first fpB+-Tree
   unless a caller sweeps kinds) at 80% fill on 4 disks of 4 KB pages,
   behind a 4-shard buffer pool deliberately sized to a share of the
   tree — so key popularity, not tree size, decides the hit rate — and
   warmed under the measured distribution before the stats reset. *)

open Fpb_btree_common
open Fpb_storage
open Fpb_wal
module W = Fpb_workload

let page_size = 4096
let n_disks = 4
let fill = 0.8

(* The bulkload pairs, deterministic per seed. *)
let pairs ?(seed = 2024) n = W.Keygen.bulk_pairs (W.Prng.create seed) n

(* Frames for [1/share] of the tree, measured on a probe build of
   [pairs] and floored so descents and prefetchers always find free
   frames. *)
let pool_pages ?(kind = Setup.Disk_first) ~share pairs =
  let sys = Setup.make ~n_disks ~page_size () in
  max 24 (Index_sig.page_count (Run.build sys kind pairs ~fill) / share)

(* A fresh system per cell, so cells never contaminate each other.  No
   more shards than frames: `fpb ycsb --pool 2` demos the typed
   [Overloaded] refusal on a 2-frame pool. *)
let system ~pool_pages =
  Setup.make ~n_disks ~pool_pages ~n_shards:(min 4 pool_pages) ~page_size ()

type t = {
  sys : Setup.system;
  idx : Index_sig.instance;
  pairs : (int * int) array;
}

let make ?(kind = Setup.Disk_first) sys pairs =
  { sys; idx = Run.build sys kind pairs ~fill; pairs }

(* The WAL, group-committing a 64 KB window unless told otherwise. *)
let wal ?(group_commit_bytes = 1 lsl 16) b =
  Wal.attach ~group_commit_bytes ~meta:(Index_sig.meta b.idx) b.sys.Setup.pool

(* Warm pass: twice the pool's capacity in searches drawn from [dist],
   so measurement starts from that popularity profile's steady-state
   pool contents rather than a cold pool. *)
let warm ?(seed = 555) b ~dist =
  let rng = W.Prng.create seed in
  let n = Array.length b.pairs in
  for _ = 1 to 2 * Buffer_pool.capacity b.sys.Setup.pool do
    let key = fst b.pairs.(W.Keygen.draw_pos dist rng ~n) in
    ignore (Index_sig.search b.idx key)
  done;
  Buffer_pool.reset_stats b.sys.Setup.pool

type workload = {
  gen : W.Mix.gen;
  committed : int ref;  (* commits so far, the op number of the last *)
  commit : unit -> unit;  (* makes one mutating op durable *)
  op : client:int -> seq:int -> unit;  (* serves the next drawn action *)
}

(* [mix]'s generator over the bulk keys ([dist] defaults to the mix's
   own), then the warm pass under the same distribution.  Callers
   attach their extras (shadow layer, replica group) to [wal] before
   this, so the charged work keeps its order. *)
let workload ?(seed = 31337) ?(warm_seed = 555) ?dist ~mix b wal =
  let dist = Option.value ~default:(W.Mix.default_dist mix) dist in
  let gen = W.Mix.generator ~dist ~seed mix b.pairs in
  warm ~seed:warm_seed b ~dist;
  let committed = ref 0 in
  let commit () =
    incr committed;
    Wal.commit wal ~op:!committed ~meta:(Index_sig.meta b.idx)
  in
  let op ~client:(_ : int) ~seq:(_ : int) =
    W.Mix.execute b.idx ~commit (W.Mix.next gen)
  in
  { gen; committed; commit; op }

(* The base client count the experiments sweep from. *)
let clients = function Scale.Tiny -> 4 | Scale.Quick | Scale.Full -> 8

(* Closed loop: [n_clients] clients share [n_ops] operations evenly. *)
let closed b ~n_clients ~n_ops op =
  W.Driver.run ~sim:b.sys.Setup.sim
    (W.Driver.config ~n_clients
       (W.Driver.Closed { ops_per_client = n_ops / n_clients }))
    (W.Driver.each op)

(* Pins served from a resident page, through the buffer-manager call or
   a held frame, per pin that either served or read from disk. *)
let hit_pct b =
  let p = Buffer_pool.stats b.sys.Setup.pool in
  let hits =
    Fpb_obs.Counter.value p.Buffer_pool.hits
    + Fpb_obs.Counter.value p.Buffer_pool.held_hits
  in
  let misses = Fpb_obs.Counter.value p.Buffer_pool.misses in
  100. *. float_of_int hits /. float_of_int (max 1 (hits + misses))
