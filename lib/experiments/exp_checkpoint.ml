(* Extension experiment: sharp vs shadow-paging fuzzy checkpoints.

   The WAL's sharp checkpoint stalls every writer for a whole-pool
   write-back plus a data-durability barrier; the shadow-paging layer
   ({!Fpb_snapshot.Shadow}) spreads the write-back across foreground
   operations and stalls only for the superblock flip.  Three tables:

     checkpoint-a  the same open-loop YCSB-A workload (fixed arrival
                   rate below capacity) run with no checkpoints, sharp
                   checkpoints, and fuzzy checkpoints at the same
                   cadence.  Open loop is the discipline that exposes
                   stalls: arrivals keep coming while the pool drains,
                   so a sharp checkpoint's pause lands in the latency
                   tail of every queued operation.  Fuzzy checkpointing
                   must beat sharp on p99.

     checkpoint-b  what checkpoints buy at reboot: the same committed
                   workload recovered through the WAL alone (replay
                   scans the whole history since attach) vs through the
                   shadow table's cut (replay bounded by the work since
                   the last flip).

     checkpoint-c  what the flip's published image buys while running: a
                   snapshot pinned at a checkpoint serves byte-identical
                   frozen pages while the same system keeps applying
                   updates and flipping further checkpoints beside it. *)

open Fpb_btree_common
open Fpb_storage
open Fpb_wal
module W = Fpb_workload
module Shadow = Fpb_snapshot.Shadow
module Histogram = Fpb_obs.Histogram

(* Strict durability (no group commit): every commit forces the log, so
   the fuzzy pass's per-page log-force precondition is already met and
   the cells differ only in their checkpoint policy.  With a large group
   window the comparison would mostly measure who happens to pay the
   batched log forces. *)
let group_commit_bytes = 0

let bulk_entries = function
  | Scale.Tiny -> 20_000
  | Scale.Quick -> 60_000
  | Scale.Full -> 200_000

let total_ops = function
  | Scale.Tiny -> 600
  | Scale.Quick -> 4_000
  | Scale.Full -> 16_000

(* Checkpoint cadence: ~4 checkpoints over the measured run, so the
   stalls are a recurring feature of the workload, not a one-off. *)
let ckpt_interval scale = max 1 (total_ops scale / 4)

type system = {
  b : Bed.t;
  w : Bed.workload;
  wal : Wal.t;
  shadow : Shadow.t option;
}

(* A fresh test bed + YCSB-A workload per cell (updates are what make
   checkpoints matter), warmed to the steady-state pool contents.  The
   pool holds half the tree, so the checkpoint write-back has real dirt
   to write. *)
let with_system scale ~pool_pages ~shadow k =
  let b = Bed.make (Bed.system ~pool_pages) (Bed.pairs (bulk_entries scale)) in
  let wal = Bed.wal ~group_commit_bytes b in
  let shadow =
    if shadow then
      Some (Shadow.attach ~meta:(Index_sig.meta b.idx) wal b.sys.Setup.pool)
    else None
  in
  let w = Bed.workload ~mix:W.Mix.a b wal in
  let r = k { b; w; wal; shadow } in
  Index_sig.check b.idx;
  r

(* ------------------- checkpoint-a: writer stalls --------------------- *)

type policy = No_ckpt | Sharp | Fuzzy

let policy_name = function
  | No_ckpt -> "none"
  | Sharp -> "sharp"
  | Fuzzy -> "fuzzy"

(* Closed-loop capacity of the (checkpoint-free) system: the open-loop
   cells all offer the same fraction of it, so the only difference
   between them is the checkpoint policy. *)
let capacity scale ~pool_pages =
  with_system scale ~pool_pages ~shadow:false (fun s ->
      let n_clients = Bed.clients scale in
      let st = Bed.closed s.b ~n_clients ~n_ops:(total_ops scale) s.w.op in
      st.W.Driver.throughput_ops_per_s)

type policy_cell = {
  policy : policy;
  ckpts : int;  (* checkpoints completed during the run *)
  latency : Histogram.t;
  max_backlog : int;
  max_stall_ns : int;  (* worst single stall the policy charged *)
}

let run_policy scale ~pool_pages ~rate policy =
  with_system scale ~pool_pages ~shadow:(policy = Fuzzy) (fun s ->
      let interval = ckpt_interval scale in
      let ckpts = ref 0 in
      let meta () = Index_sig.meta s.b.idx in
      let op ~client:(_ : int) ~seq =
        W.Mix.execute s.b.idx ~commit:s.w.commit (W.Mix.next s.w.gen);
        match (policy, s.shadow) with
        | Sharp, _ ->
            if (seq + 1) mod interval = 0 then begin
              Wal.checkpoint s.wal ~meta:(meta ());
              incr ckpts
            end
        | Fuzzy, Some sh ->
            (* the write-back rides along a few pages per operation; a
               new pass starts only once the previous one flipped *)
            if Shadow.checkpoint_in_progress sh then begin
              if Shadow.checkpoint_tick ~pages:2 sh ~meta:(meta ()) then
                incr ckpts
            end
            else if (seq + 1) mod interval = 0 then
              Shadow.checkpoint_begin sh
        | _ -> ()
      in
      let st =
        W.Driver.run ~sim:s.b.sys.Setup.sim
          (W.Driver.config ~n_clients:(Bed.clients scale)
             (W.Driver.open_loop ~n_ops:(total_ops scale) rate))
          (W.Driver.each op)
      in
      (* a pass begun near the end of the run has no later operations to
         tick it home; drain it outside the measured window so every
         policy completes the same number of checkpoints *)
      (match s.shadow with
      | Some sh when Shadow.checkpoint_in_progress sh ->
          while not (Shadow.checkpoint_tick ~pages:max_int sh ~meta:(meta ())) do
            ()
          done;
          incr ckpts
      | _ -> ());
      let max_stall_ns =
        match (policy, s.shadow) with
        | Sharp, _ -> Histogram.max_value (Wal.checkpoint_stall s.wal)
        | Fuzzy, Some sh -> Histogram.max_value (Shadow.flip_stall sh)
        | _ -> 0
      in
      (match s.shadow with
      | Some sh -> Telemetry.add_kv (Shadow.kv sh)
      | None -> ());
      {
        policy;
        ckpts = !ckpts;
        latency = st.W.Driver.latency;
        max_backlog = st.W.Driver.max_backlog;
        max_stall_ns;
      })

let policy_table scale ~pool_pages =
  let cap = capacity scale ~pool_pages in
  let rate = cap *. 0.8 in
  let cells =
    List.map (run_policy scale ~pool_pages ~rate) [ No_ckpt; Sharp; Fuzzy ]
  in
  List.iter
    (fun c ->
      let name = policy_name c.policy in
      let pc p = Histogram.percentile c.latency p in
      Telemetry.add (Printf.sprintf "ckpt.%s.p50_ns" name) (pc 50.);
      Telemetry.add (Printf.sprintf "ckpt.%s.p99_ns" name) (pc 99.);
      Telemetry.add (Printf.sprintf "ckpt.%s.p999_ns" name) (pc 99.9);
      Telemetry.add (Printf.sprintf "ckpt.%s.max_stall_ns" name) c.max_stall_ns;
      Telemetry.add
        (Printf.sprintf "ckpt.%s.max_backlog" name)
        c.max_backlog)
    cells;
  let rows =
    List.map
      (fun c ->
        let pc p = Histogram.percentile c.latency p in
        [
          policy_name c.policy;
          Table.cell_i c.ckpts;
          Table.cell_i (pc 50.);
          Table.cell_i (pc 99.);
          Table.cell_i (pc 99.9);
          Table.cell_i c.max_stall_ns;
          Table.cell_i c.max_backlog;
        ])
      cells
  in
  Table.make ~id:"checkpoint-a"
    ~title:
      (Printf.sprintf
         "Writer stalls under checkpointing: YCSB-A open loop at 80%% of \
          capacity (%.1f Kops/s offered, %d ops, ~%d checkpoints; latency \
          in simulated ns).  Sharp stalls the pool per checkpoint; fuzzy \
          spreads the write-back and stalls only for the superblock flip"
         (rate /. 1e3) (total_ops scale)
         (total_ops scale / ckpt_interval scale))
    ~header:
      [ "policy"; "ckpts"; "p50"; "p99"; "p999"; "max stall ns";
        "max backlog" ]
    rows

(* -------------------- checkpoint-b: replay bound --------------------- *)

type replay_cell = {
  r_label : string;
  r_committed : int;
  r_scanned : int;
  r_redo : int;
  r_log_bytes : int;
  r_recovery_ns : int;
}

let run_replay scale ~pool_pages ~fuzzy =
  with_system scale ~pool_pages ~shadow:fuzzy (fun s ->
      let interval = ckpt_interval scale in
      let meta () = Index_sig.meta s.b.idx in
      for seq = 0 to total_ops scale - 1 do
        W.Mix.execute s.b.idx ~commit:s.w.commit (W.Mix.next s.w.gen);
        match s.shadow with
        | Some sh ->
            if Shadow.checkpoint_in_progress sh then
              ignore (Shadow.checkpoint_tick ~pages:2 sh ~meta:(meta ()))
            else if (seq + 1) mod interval = 0 then Shadow.checkpoint_begin sh
        | None -> ()
      done;
      (* group commit may still hold acknowledged records; make every
         commit durable so both cells recover the same prefix *)
      Wal.flush s.wal;
      let log_bytes = Wal.log_bytes s.wal in
      let expect = !(s.w.committed) in
      Wal.crash_now s.wal;
      let r =
        match s.shadow with
        | Some sh -> Shadow.recover sh
        | None -> Wal.recover s.wal
      in
      if r.Wal.committed_ops <> expect then
        failwith
          (Printf.sprintf "checkpoint-b: recovered %d ops, committed %d"
             r.Wal.committed_ops expect);
      Index_sig.restore_meta s.b.idx r.Wal.meta;
      let label = if fuzzy then "fuzzy ckpts" else "wal only" in
      Telemetry.add
        (Printf.sprintf "recovery.%s.scanned_records"
           (if fuzzy then "fuzzy" else "walonly"))
        r.Wal.scanned_records;
      Telemetry.add
        (Printf.sprintf "recovery.%s.recovery_ns"
           (if fuzzy then "fuzzy" else "walonly"))
        r.Wal.recovery_ns;
      {
        r_label = label;
        r_committed = r.Wal.committed_ops;
        r_scanned = r.Wal.scanned_records;
        r_redo = r.Wal.redo_records;
        r_log_bytes = log_bytes;
        r_recovery_ns = r.Wal.recovery_ns;
      })

let replay_table scale ~pool_pages =
  let cells =
    [
      run_replay scale ~pool_pages ~fuzzy:false;
      run_replay scale ~pool_pages ~fuzzy:true;
    ]
  in
  let rows =
    List.map
      (fun c ->
        [
          c.r_label;
          Table.cell_i c.r_committed;
          Table.cell_i c.r_log_bytes;
          Table.cell_i c.r_scanned;
          Table.cell_i c.r_redo;
          Table.cell_i c.r_recovery_ns;
        ])
      cells
  in
  Table.make ~id:"checkpoint-b"
    ~title:
      "Replay bound at reboot: the same committed workload recovered \
       through the full WAL history vs from the shadow table's cut \
       (replay covers only the work since the last flip)"
    ~header:
      [ "recovery"; "committed"; "log bytes"; "scanned recs"; "redo recs";
        "recovery ns" ]
    rows

(* --------------- checkpoint-c: snapshot beside updates --------------- *)

let snapshot_table scale ~pool_pages =
  with_system scale ~pool_pages ~shadow:true (fun s ->
      let sh = Option.get s.shadow in
      let interval = ckpt_interval scale in
      let meta () = Index_sig.meta s.b.idx in
      let n_ops = total_ops scale in
      (* settle, then publish the checkpoint the snapshot will pin *)
      for _ = 1 to n_ops / 4 do
        W.Mix.execute s.b.idx ~commit:s.w.commit (W.Mix.next s.w.gen)
      done;
      Shadow.checkpoint_sync sh ~meta:(meta ());
      let store = Buffer_pool.store s.b.sys.Setup.pool in
      let snap = Shadow.open_at_checkpoint sh in
      (* between operations the store's bytes ARE the committed state:
         this copy is the independent oracle the frozen reads must match *)
      let live = ref [] in
      Page_store.iter_live store (fun id -> live := id :: !live);
      let expected =
        List.map (fun id -> (id, Bytes.copy (Page_store.bytes store id))) !live
      in
      for seq = 1 to 3 * n_ops / 4 do
        W.Mix.execute s.b.idx ~commit:s.w.commit (W.Mix.next s.w.gen);
        if seq mod interval = 0 then Shadow.checkpoint_sync sh ~meta:(meta ())
      done;
      let mismatches = ref 0 in
      let missing = ref 0 in
      List.iter
        (fun (id, want) ->
          match Shadow.read snap id with
          | Some got -> if not (Bytes.equal got want) then incr mismatches
          | None -> incr missing)
        expected;
      let gens_during = List.length (Shadow.retained_generations sh) in
      Shadow.close snap;
      let kv = Shadow.kv sh in
      let g name = Option.value ~default:0 (List.assoc_opt name kv) in
      Telemetry.add "snapshot.frozen_pages" (List.length expected);
      Telemetry.add "snapshot.mismatches" !mismatches;
      Telemetry.add "snapshot.missing" !missing;
      Telemetry.add_kv kv;
      Table.make ~id:"checkpoint-c"
        ~title:
          (Printf.sprintf
             "Snapshot beside updates: a snapshot pinned at a checkpoint, \
              then %d YCSB-A operations and %d more checkpoints; every \
              frozen page must read back byte-identical (mismatches must \
              be 0)"
             (3 * n_ops / 4)
             (3 * n_ops / 4 / interval))
        ~header:
          [
            "frozen pages"; "mismatches"; "missing"; "remaps";
            "blocks alloc"; "blocks freed"; "captures"; "gens retained";
          ]
        [
          [
            Table.cell_i (List.length expected);
            Table.cell_i !mismatches;
            Table.cell_i !missing;
            Table.cell_i (g "pagemap.remaps");
            Table.cell_i (g "pagemap.blocks_allocated");
            Table.cell_i (g "pagemap.blocks_freed");
            Table.cell_i (g "ckpt.captures");
            Table.cell_i gens_during;
          ];
        ])

let run scale =
  let pool_pages = Bed.pool_pages ~share:2 (Bed.pairs (bulk_entries scale)) in
  [
    policy_table scale ~pool_pages;
    replay_table scale ~pool_pages;
    snapshot_table scale ~pool_pages;
  ]
