(* Tests for WAL log-shipping replication: link-level in-order delivery
   and determinism, PRNG splitting, the zero-committed-loss failover
   property at random async kill points, a semi-sync boundary sweep,
   a resumed group committing on the promoted WAL, and the retention /
   snapshot catch-up path. *)

open Fpb_btree_common
module X = Fpb_experiments
module W = Fpb_workload
module Wal = Fpb_wal.Wal
module Shadow = Fpb_snapshot.Shadow
module Replica = Fpb_replica.Replica
module Net = Fpb_replica.Net

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let kind = X.Setup.Disk_first
let fill = 0.8
let page_size = 4096

(* --- Prng.split ----------------------------------------------------- *)

let draws rng n = List.init n (fun _ -> W.Prng.int rng 1_000_000)

let test_prng_split () =
  let parent = W.Prng.create 42 in
  let a = W.Prng.split parent in
  let b = W.Prng.split parent in
  let da = draws a 16 and db = draws b 16 in
  check_bool "children diverge" false (da = db);
  (* same seed, same split order: byte-identical substreams *)
  let parent' = W.Prng.create 42 in
  let a' = W.Prng.split parent' in
  let b' = W.Prng.split parent' in
  Alcotest.(check (list int)) "first child deterministic" da (draws a' 16);
  Alcotest.(check (list int)) "second child deterministic" db (draws b' 16);
  (* splitting must not entangle the parent's own stream *)
  let lone = W.Prng.create 42 in
  ignore (W.Prng.split lone);
  ignore (W.Prng.split lone);
  let tapped = W.Prng.create 42 in
  ignore (W.Prng.split tapped);
  ignore (W.Prng.split tapped);
  Alcotest.(check (list int)) "parent stream unaffected by child draws"
    (draws lone 8) (draws tapped 8)

(* --- Net: in-order delivery under loss + reordering ------------------ *)

let faulty_profile =
  {
    Net.default_profile with
    Net.loss = 0.1;
    rto_ns = 500_000;
    reorder_p = 0.3;
    reorder_extra_ns = 400_000;
  }

let delivery_times seed =
  let link = Net.create ~prng:(W.Prng.create seed) faulty_profile in
  let out = ref [] in
  for i = 0 to 199 do
    out := Net.deliver link ~send:(i * 50_000) ~bytes:256 :: !out
  done;
  (link, List.rev !out)

let test_net_in_order () =
  let link, times = delivery_times 11 in
  let prev = ref min_int in
  List.iteri
    (fun i t ->
      if t < !prev then
        Alcotest.failf "delivery %d at %d overtakes predecessor at %d" i t !prev;
      if t < i * 50_000 then Alcotest.failf "delivery %d before its send" i;
      prev := t)
    times;
  (* the profile must actually have exercised the fault paths *)
  let kv = Net.kv link in
  check_bool "some transmissions lost" true (List.assoc "net.drops" kv > 0);
  check_bool "some reorders drawn" true (List.assoc "net.reorders" kv > 0)

let test_net_determinism () =
  let _, a = delivery_times 11 in
  let _, b = delivery_times 11 in
  Alcotest.(check (list int)) "same seed, same schedule" a b;
  let _, c = delivery_times 12 in
  check_bool "different seed perturbs the schedule" false (a = c)

(* --- replicated system scaffolding ----------------------------------- *)

(* Small bulkloaded tree + attached WAL + 2-replica group over healthy
   links; serial committed inserts via [step]. *)
let build_group ?(mode = Replica.Semi_sync 1) () =
  let rng = W.Prng.create 7 in
  let pairs = W.Keygen.bulk_pairs rng 400 in
  let sys = X.Setup.make ~n_disks:2 ~pool_pages:96 ~n_shards:1 ~page_size () in
  let idx = X.Run.build sys kind pairs ~fill in
  let wal = Wal.attach ~meta:(Index_sig.meta idx) sys.X.Setup.pool in
  let group =
    Replica.create
      ~config:{ Replica.default_config with Replica.mode }
      ~prng:(W.Prng.create 0xbeef)
      ~profiles:[ Net.default_profile; Net.default_profile ]
      (wal, sys.X.Setup.pool)
  in
  (sys, idx, wal, group)

let key_of i = 0x4000_0000 + i

let step idx wal committed =
  incr committed;
  ignore (Index_sig.insert idx (key_of !committed) (!committed land 0xFFFF));
  Wal.commit wal ~op:!committed ~meta:(Index_sig.meta idx)

(* --- semi-sync: no acked commit survives a kill ----------------------- *)

let test_semi_sync_kill_boundaries () =
  List.iter
    (fun kill_at ->
      let _sys, idx, wal, group = build_group ~mode:(Replica.Semi_sync 1) () in
      let committed = ref 0 in
      for _ = 1 to kill_at do
        step idx wal committed
      done;
      Wal.crash_now wal;
      Replica.kill group;
      let horizon =
        match Replica.killed_at group with
        | Some h -> h
        | None -> Alcotest.fail "killed_at unset after kill"
      in
      (* serial loop: a returned commit is an acked commit *)
      let acked = Replica.acked_op group ~horizon in
      check_int "acked = commits returned" kill_at acked;
      let p = Replica.promote group in
      check_bool "no acked commit lost" true (p.Replica.committed_op >= acked);
      let idx2 = X.Run.adopt kind p.Replica.pool ~meta:p.Replica.meta in
      for i = 1 to p.Replica.committed_op do
        match Index_sig.search idx2 (key_of i) with
        | Some _ -> ()
        | None ->
            Alcotest.failf "kill@%d: committed key %d missing after failover"
              kill_at i
      done;
      Index_sig.check idx2)
    [ 1; 3; 7; 12 ]

(* --- async: a kill loses exactly the unshipped suffix ----------------- *)

(* Golden run measuring where the op stream lives in the sealed log, so
   the property can aim a crash byte anywhere inside it. *)
let async_op_span =
  lazy
    (let _sys, idx, wal, group = build_group ~mode:Replica.Async () in
     let committed = ref 0 in
     let b0 = Wal.log_bytes wal in
     for _ = 1 to 25 do
       step idx wal committed
     done;
     Replica.detach group;
     (b0, Wal.log_bytes wal - b0))

let async_kill_prop frac =
  let b0, span = Lazy.force async_op_span in
  let crash_byte = b0 + (frac * (span - 1) / 9999) in
  let _sys, idx, wal, group = build_group ~mode:Replica.Async () in
  Wal.set_crash_at_byte wal (Some crash_byte);
  let committed = ref 0 in
  (try
     for _ = 1 to 25 do
       step idx wal committed
     done
   with Wal.Crashed -> ());
  if not (Wal.is_crashed wal) then Wal.crash_now wal;
  Replica.kill group;
  let horizon = Option.get (Replica.killed_at group) in
  let best = X.Oracle.best_durable group ~horizon in
  let acked = Replica.acked_op group ~horizon in
  let p = Replica.promote group in
  (* most-advanced durable prefix wins; async acks can outrun replicas
     but never the primary's own durable log *)
  p.Replica.committed_op = best && best <= acked && acked <= !committed

(* --- failover: the resumed group keeps committing ---------------------- *)

let test_failover_resume () =
  let _sys, idx, wal, group = build_group ~mode:(Replica.Semi_sync 1) () in
  let committed = ref 0 in
  for _ = 1 to 30 do
    step idx wal committed
  done;
  (* partition the primary away: the group freezes, but the old primary
     keeps committing a suffix nobody ever ships *)
  Replica.kill group;
  for _ = 1 to 5 do
    step idx wal committed
  done;
  let p = Replica.promote group in
  check_int "promoted at the last shipped commit" 30 p.Replica.committed_op;
  let idx2 = X.Run.adopt kind p.Replica.pool ~meta:p.Replica.meta in
  let group2 = Replica.resume group p in
  let committed2 = ref 30 in
  for _ = 1 to 8 do
    step idx2 p.Replica.wal committed2
  done;
  (* one replica became the primary; the other survived and follows it *)
  check_int "one surviving replica" 1 (Replica.n_nodes group2);
  check_int "survivor converges on the resumed history" 38
    (Replica.sync_node group2 ~horizon:max_int (Replica.node group2 0));
  Index_sig.check idx2

(* --- retention: log catch-up refused, snapshot path succeeds ---------- *)

let test_retention_snapshot_catchup () =
  let sys, idx, wal, group = build_group ~mode:(Replica.Semi_sync 1) () in
  let sh = Shadow.attach ~meta:(Index_sig.meta idx) wal sys.X.Setup.pool in
  let committed = ref 0 in
  for _ = 1 to 10 do
    step idx wal committed
  done;
  let dark = Replica.node group 1 in
  Replica.detach_replica group dark;
  for i = 1 to 60 do
    step idx wal committed;
    if i mod 15 = 0 then begin
      Shadow.checkpoint_sync sh ~meta:(Index_sig.meta idx);
      ignore
        (Replica.trim_archive group ~below_lsn:(Shadow.retention_lsn sh) : int)
    end
  done;
  (match Replica.catch_up_via_log group dark with
  | `Retention_exceeded -> ()
  | `Ok _ -> Alcotest.fail "trimmed archive must refuse log catch-up");
  let snap = Shadow.open_at_checkpoint sh in
  let pages, tail, ns = Replica.catch_up_via_snapshot group dark ~snapshot:snap in
  Shadow.close snap;
  check_bool "snapshot shipped pages" true (pages > 0);
  check_bool "tail replay bounded by ops since the cut" true (tail >= 0);
  check_bool "catch-up charged simulated time" true (ns > 0);
  check_int "dark replica fully caught up" !committed
    (Replica.node_committed_op dark);
  (* the healthy replica was never behind *)
  check_int "live replica converged" !committed
    (Replica.sync_node group ~horizon:max_int (Replica.node group 0))

let suite =
  [
    Alcotest.test_case "prng split: deterministic, independent" `Quick
      test_prng_split;
    Alcotest.test_case "net: in-order delivery under loss/reorder" `Quick
      test_net_in_order;
    Alcotest.test_case "net: same seed, same schedule" `Quick
      test_net_determinism;
    Alcotest.test_case "semi-sync: kill boundary sweep loses no acked op"
      `Quick test_semi_sync_kill_boundaries;
    Util.qtest ~count:12 "async: promotion = most advanced durable prefix"
      QCheck2.Gen.(int_bound 9999)
      async_kill_prop;
    Alcotest.test_case "failover: resumed group keeps committing on the promoted WAL"
      `Quick test_failover_resume;
    Alcotest.test_case "retention: snapshot catch-up after trim" `Quick
      test_retention_snapshot_catchup;
  ]
