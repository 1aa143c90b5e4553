(* Fault-injection harness for the durability subsystem.

   A deterministic scenario — bulkload, then a committed stream of random
   inserts/updates/deletes with periodic checkpoints — is first run to
   completion ("golden run") to learn the log's byte layout and each
   operation's commit-record end offset.  The crash controller then turns
   the layout into injection points (record boundaries, torn mid-record
   tails, torn data-page write-backs), and the scenario is re-run once
   per point with the crash armed: the WAL truncates its durable stream
   exactly at the chosen byte and raises.  Recovery replays the durable
   log, the index handle is rebuilt from the recovered metadata, and a
   structural checker verifies the result is byte-consistent (pages
   match durable images) and key-complete (the key set equals the model
   applied to exactly the committed prefix of operations).

   Determinism is what makes the oracle non-circular: the expected
   committed prefix for a crash at byte [b] is computed from the golden
   run's commit offsets (#{i | commit_end(i) <= b}), never from what
   recovery happens to return. *)

open Fpb_btree_common
open Fpb_wal

(* bulk entries, operations, checkpoint interval, crash points per kind *)
let params = function
  | Scale.Tiny -> (800, 60, 20, 40)
  | Scale.Quick -> (4_000, 200, 50, 150)
  | Scale.Full -> (16_000, 500, 100, 400)

(* 45 % fresh inserts, 25 % updates, 30 % deletes. *)
let mix = { Oracle.search = 0; insert = 45; update = 25 }

(* Small pages and a small pool so the scenario exercises evictions,
   deferred write-backs and multi-page log flushes, not just the happy
   path. *)
let fresh kind w =
  Run.fresh ~n_disks:2 ~pool_pages:96 ~page_size:4096 kind w.Oracle.pairs
    ~fill:0.8

(* Run the scenario on a fresh system.  [attach wal pool] runs right after
   [Wal.attach] (the replica sweep creates its group there).  [crash_at]
   is armed after that, so the attach-time checkpoint always completes; a
   crash byte inside it degenerates to a clean cut after it, which
   recovery handles identically.  Returns the index, the WAL in whatever
   state the run ended in (completed or crashed), what [attach] returned,
   the golden-prefix function [expect] and the last op whose commit
   returned.  [expect b] = #{i | commit_end(i) <= b}: on a run to
   completion, the ops a crash at byte [b] must preserve. *)
let run_scenario kind w ~ckpt_every ~crash_at ~attach =
  let sys, idx = fresh kind w in
  let wal = Wal.attach ~meta:(Index_sig.meta idx) sys.Setup.pool in
  let attached = attach wal sys.Setup.pool in
  Wal.set_crash_at_byte wal crash_at;
  let commit_ends = Array.make (List.length w.Oracle.ops + 1) max_int in
  let returned = ref 0 in
  (try
     Oracle.drive (Oracle.model w 0) idx wal w ~from:0 ~upto:max_int
       (fun opn ->
         returned := opn;
         commit_ends.(opn) <- Wal.log_bytes wal;
         if ckpt_every > 0 && opn mod ckpt_every = 0 then
           Wal.checkpoint wal ~meta:(Index_sig.meta idx))
   with Wal.Crashed -> ());
  let expect b =
    let c = ref 0 in
    Array.iteri (fun i e -> if i > 0 && e <= b then incr c) commit_ends;
    !c
  in
  (idx, wal, attached, expect, !returned)

type result = {
  kind : Setup.kind;
  points : int;  (* crash points exercised *)
  torn : int;  (* points that also tore a data page *)
  log_bytes : int;  (* golden-run log volume *)
  failures : (string * string) list;  (* (point label, what broke) *)
}

let labelled label (fs : Oracle.failures) =
  List.rev_map (fun m -> (label, m)) !fs

(* Both recovery sweeps: every page byte-equals its durable image, the
   recovered state is the model at the committed prefix, and the system
   keeps running — the lost suffix re-applied, then [sync], must reach
   the full model. *)
let check_recovery fs w idx wal r ~committed sync =
  (match Wal.verify_images wal with
  | Ok () -> ()
  | Error m -> Oracle.fail fs "durable image check: %s" m);
  let m = Oracle.model w committed in
  Oracle.check_recovered fs idx r ~committed (Oracle.sorted m);
  Oracle.check_continuation fs m idx wal w ~from:committed sync

let check_point kind w ~ckpt_every ~expect point =
  let fs = ref [] in
  let torn =
    Oracle.guard fs "recovery" (fun () ->
        let idx, wal, (), _, _ =
          run_scenario kind w ~ckpt_every ~crash_at:(Some point.Crash.at_byte)
            ~attach:(fun _ _ -> ())
        in
        if not (Wal.is_crashed wal) then Wal.crash_now wal;
        let torn = point.Crash.tear && Wal.tear_last_writeback wal in
        check_recovery fs w idx wal (Wal.recover wal)
          ~committed:(expect point.Crash.at_byte) ignore;
        torn)
  in
  (torn = Some true, labelled point.Crash.label fs)

let run_kind ?(seed = 42) scale kind =
  let n_bulk, n_ops, ckpt_every, max_points = params scale in
  let w = Oracle.workload mix ~seed n_bulk n_ops in
  (* Golden run: layout + per-op commit offsets, and a sanity check that
     the scenario itself is sound. *)
  let idx, wal, (), expect, _ =
    run_scenario kind w ~ckpt_every ~crash_at:None ~attach:(fun _ _ -> ())
  in
  Index_sig.check idx;
  let points = Crash.points ~max_points (Wal.layout wal) in
  let torn = ref 0 in
  let failures = ref [] in
  List.iter
    (fun p ->
      let tore, errs = check_point kind w ~ckpt_every ~expect p in
      if tore then incr torn;
      failures := !failures @ errs)
    points;
  {
    kind;
    points = List.length points;
    torn = !torn;
    log_bytes = Wal.log_bytes wal;
    failures = !failures;
  }

(* ---------------- shadow-paging flip-boundary sweep ------------------ *)

(* The byte-level sweep above cannot reach the shadow subsystem's
   metadata writes (table slots and superblocks live on their own disk,
   outside the WAL byte stream), so the flip boundaries get their own
   sweep: the same deterministic scenario runs with fuzzy checkpoints,
   and a [Shadow.crash_point] is armed on one chosen checkpoint — crash
   mid-writeback, with a partially written table, with a torn
   superblock, or after the flip but before the WAL checkpoint record.
   [Shadow.recover] must land on a complete (superblock, table) pair —
   falling back a generation past the damage — and replay to exactly the
   committed prefix.

   The oracle here is even simpler than the byte sweep's: the WAL runs
   with its default group-commit threshold of 0, so every commit is
   flushed before [Wal.commit] returns, and the expected committed
   prefix is just the last operation whose commit call completed before
   the armed crash fired. *)

module Shadow = Fpb_snapshot.Shadow

(* Crash points armed at each checkpoint ordinal.  [Table_partial
   max_int] persists the whole table but no superblock — the flip's
   publish never happened, same recovery class as a torn superblock. *)
let shadow_crash_points =
  [
    (Shadow.Writeback_partial 1, "writeback-partial-1");
    (Shadow.Writeback_partial 3, "writeback-partial-3");
    (Shadow.Table_partial 0, "table-empty");
    (Shadow.Table_partial 64, "table-torn");
    (Shadow.Table_partial max_int, "table-full-no-sb");
    (Shadow.Superblock_torn, "superblock-torn");
    (Shadow.After_flip, "after-flip");
  ]

(* Run the scenario with the shadow layer attached and fuzzy checkpoints
   at the usual cadence; arm [crash_point] on the [crash_ckpt]-th one
   ([0] never arms).  Returns the system crashed (at the armed point, or
   via a power cut at the end if it never fired) plus the committed-op
   count the crash must preserve. *)
let run_shadow_scenario kind w ~ckpt_every ~crash_ckpt ~crash_point =
  let sys, idx = fresh kind w in
  let wal = Wal.attach ~meta:(Index_sig.meta idx) sys.Setup.pool in
  let shadow = Shadow.attach ~meta:(Index_sig.meta idx) wal sys.Setup.pool in
  let committed = ref 0 in
  (try
     Oracle.drive (Oracle.model w 0) idx wal w ~from:0 ~upto:max_int
       (fun opn ->
         committed := opn;
         if ckpt_every > 0 && opn mod ckpt_every = 0 then begin
           if opn / ckpt_every = crash_ckpt then
             Shadow.set_crash_point shadow (Some crash_point);
           Oracle.fuzzy_checkpoint shadow idx
         end)
   with Wal.Crashed -> ());
  if not (Wal.is_crashed wal) then Wal.crash_now wal;
  (idx, shadow, !committed)

(* The continuation ends with one more fuzzy checkpoint: the recovered
   mapping, free-block lists and generation chain must all still work. *)
let check_shadow_point kind w ~ckpt_every ~crash_ckpt ~crash_point ~label =
  let fs = ref [] in
  ignore
    (Oracle.guard fs "recovery" (fun () ->
         let idx, shadow, committed =
           run_shadow_scenario kind w ~ckpt_every ~crash_ckpt ~crash_point
         in
         check_recovery fs w idx (Shadow.wal shadow) (Shadow.recover shadow)
           ~committed (fun () ->
             Shadow.checkpoint_sync shadow ~meta:(Index_sig.meta idx))));
  labelled label fs

let run_shadow_kind ?(seed = 42) scale kind =
  let n_bulk, n_ops, ckpt_every, _ = params scale in
  let w = Oracle.workload mix ~seed n_bulk n_ops in
  (* Golden run (no armed point): sanity-check the fuzzy scenario itself
     and learn how many checkpoints it takes. *)
  let idx, shadow, golden_committed =
    run_shadow_scenario kind w ~ckpt_every ~crash_ckpt:0
      ~crash_point:Shadow.After_flip
  in
  if golden_committed <> n_ops then
    failwith "shadow golden run did not commit every operation";
  Index_sig.check idx;
  let log_bytes = Wal.log_bytes (Shadow.wal shadow) in
  let n_ckpts = if ckpt_every > 0 then n_ops / ckpt_every else 0 in
  let failures = ref [] in
  let points = ref 0 in
  for c = 1 to n_ckpts do
    List.iter
      (fun (crash_point, name) ->
        incr points;
        let label = Printf.sprintf "ckpt%d/%s" c name in
        failures :=
          !failures
          @ check_shadow_point kind w ~ckpt_every ~crash_ckpt:c ~crash_point
              ~label)
      shadow_crash_points
  done;
  { kind; points = !points; torn = 0; log_bytes; failures = !failures }

(* ------------------- replication kill sweep -------------------------- *)

(* The headline replication oracle: kill the primary at EVERY record
   boundary of the golden log.  Under [Semi_sync k] promotion must
   preserve every client-acked commit (an op is acked once [Wal.commit]
   returns, which the semi-sync barrier delays until k replica acks
   cover its LSN — and the crash-cut record never ships, so a commit
   interrupted mid-flush was never acked).  Under [Async] the loss is
   exactly the unacked suffix: promotion lands on the most advanced
   replica's durable prefix, computed independently by the pure
   [node_durable_op] oracle at the kill horizon.  Either way the
   promoted state must pass the structural checker, match the model at
   the promoted op, and keep running (continuation + surviving-replica
   convergence). *)

module Replica = Fpb_replica.Replica
module Net = Fpb_replica.Net

let replicate mode wal pool =
  Replica.create
    ~config:{ Replica.default_config with Replica.mode }
    ~prng:(Fpb_workload.Prng.create 0xfa11)
    ~profiles:[ Net.default_profile; Net.default_profile ]
    (wal, pool)

let check_replica_point kind w ~ckpt_every ~mode ~expect point =
  let fs = ref [] in
  ignore
    (Oracle.guard fs "failover" (fun () ->
         let _, wal, group, _, acked =
           run_scenario kind w ~ckpt_every ~crash_at:(Some point.Crash.at_byte)
             ~attach:(replicate mode)
         in
         if not (Wal.is_crashed wal) then Wal.crash_now wal;
         Replica.kill group;
         if acked <> expect point.Crash.at_byte then
           Oracle.fail fs "scenario acked %d ops, golden layout expected %d"
             acked (expect point.Crash.at_byte);
         let _, g2 =
           Oracle.failover fs kind w group ~mode ~acked ~returned:acked
         in
         Replica.detach g2));
  labelled point.Crash.label fs

let run_replica_kind ?(seed = 42) scale kind mode =
  let n_bulk, n_ops, ckpt_every, max_points = params scale in
  let w = Oracle.workload mix ~seed n_bulk n_ops in
  let idx, wal, group, expect, golden_acked =
    run_scenario kind w ~ckpt_every ~crash_at:None ~attach:(replicate mode)
  in
  if golden_acked <> n_ops then
    failwith "replica golden run did not commit every operation";
  Index_sig.check idx;
  Replica.detach group;
  (* Every record boundary (mid-record cuts degenerate to the boundary
     below — the torn tail never shipped — so they add nothing here). *)
  let points =
    Crash.points ~mid_record:false ~tear_every:0 ~max_points (Wal.layout wal)
  in
  let failures = ref [] in
  List.iter
    (fun p ->
      failures :=
        !failures @ check_replica_point kind w ~ckpt_every ~mode ~expect p)
    points;
  { kind; points = List.length points; torn = 0; log_bytes = Wal.log_bytes wal;
    failures = !failures }

(* Run every index structure; returns results and a summary table.  Each
   kind appears four times: the WAL byte-boundary sweep, the shadow
   flip-boundary sweep, and the replication kill sweep under each
   durability mode. *)
let run_all ?seed scale =
  let results = List.map (run_kind ?seed scale) Setup.all_kinds in
  let shadow_results = List.map (run_shadow_kind ?seed scale) Setup.all_kinds in
  let replica_results mode =
    List.map (fun k -> run_replica_kind ?seed scale k mode) Setup.all_kinds
  in
  let replica_async = replica_results Replica.Async in
  let replica_semi = replica_results (Replica.Semi_sync 1) in
  let row name r =
    [
      name;
      Table.cell_i r.points;
      Table.cell_i r.torn;
      Table.cell_i r.log_bytes;
      Table.cell_i (List.length r.failures);
    ]
  in
  let rows =
    List.map (fun r -> row (Setup.kind_name r.kind) r) results
    @ List.map
        (fun r -> row (Setup.kind_name r.kind ^ " (shadow)") r)
        shadow_results
    @ List.map
        (fun r -> row (Setup.kind_name r.kind ^ " (replica async)") r)
        replica_async
    @ List.map
        (fun r -> row (Setup.kind_name r.kind ^ " (replica semi-sync)") r)
        replica_semi
  in
  let table =
    Table.make ~id:"crashtest"
      ~title:"Crash-recovery fault injection (checker failures must be 0)"
      ~header:[ "index"; "crash points"; "torn pages"; "log bytes"; "failures" ]
      rows
  in
  (results @ shadow_results @ replica_async @ replica_semi, table)
