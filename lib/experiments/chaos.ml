(* Media-fault chaos harness.

   Each cell runs a deterministic search/insert/delete workload against a
   freshly built index while its data disks misbehave according to a
   seeded {!Fpb_storage.Fault.profile}: transient read/write errors,
   latent sector errors, and silent corruption (bit rot and torn
   sectors).  Fault schedules are pure functions of (seed, disk, page,
   access count), so every cell is reproducible and a zero-fault "golden"
   run of the same workload is a sound oracle.

   Scrubbing is paced, not stop-the-world: a {!Fpb_storage.Scrub.sched}
   ticks after every operation at a configurable bandwidth (pages per
   tick), so scrub I/O competes with foreground reads on the simulated
   disks and its latency cost shows up in the cell's elapsed time.  A
   final synchronous pass heals whatever the paced laps had not reached
   yet before the end-state oracle runs.

   Legs per index structure:

   - WAL-attached (with [log_base_images], so every page has full log
     coverage): checksum failures and latent sectors must be repaired
     transparently from the log.  The oracle demands zero operations see
     an {!Fpb_storage.Buffer_pool.Io_error}, the final key set equal the
     golden model, structural invariants hold, and scrub finds nothing
     unrecoverable.  The extra simulated time over the golden run is the
     price of retries, repairs and scrubbing.

   - Uncovered (no WAL): detection without repair.  The workload is
     search-only so a failed operation cannot half-apply.  Injected
     corruption is persistent media damage (bit rot stays on the platter
     until something rewrites it), so with no repair source the damaged
     pages stay damaged; the oracle is that every operation either raises
     a typed [Io_error] or returns exactly the model's answer — damage is
     detected, never silently served.

   - Log-fault (K>=2 mirrors): data faults as above, plus a fault
     schedule armed on log mirror 0 via {!Fpb_wal.Wal.set_log_faults}.
     Every repair scan and the final crash-recovery must fall back to
     the clean mirror; the leg power-cuts at the end, recovers, and the
     oracle additionally demands every committed operation survived
     ([damaged_records = 0], [committed_ops] = ops run).

   - Detection (K=1): a single log disk with an interior span of the
     committed stream deterministically zeroed
     ({!Fpb_wal.Wal.inject_mirror_damage}).  There is no second copy, so
     recovery cannot restore the lost records — the oracle is that it
     reports them ([damaged_records > 0]) instead of silently serving a
     truncated history. *)

open Fpb_simmem
open Fpb_btree_common
open Fpb_storage
open Fpb_wal

(* bulk entries, operations, scrub bandwidth (pages/tick), fault rates *)
let params = function
  | Scale.Tiny -> (50_000, 400, 2, [ 0.01; 0.05 ])
  | Scale.Quick -> (120_000, 1_200, 2, [ 0.005; 0.02; 0.05 ])
  | Scale.Full -> (400_000, 3_000, 4, [ 0.001; 0.01; 0.05; 0.1 ])

(* 50 % searches, 20 % fresh inserts, 15 % updates, 15 % deletes. *)
let workload ~seed scale =
  let n_bulk, n_ops, _, _ = params scale in
  Oracle.workload { Oracle.search = 50; insert = 20; update = 15 } ~seed n_bulk
    n_ops

(* Small pages and a pool far smaller than the tree, so the workload
   constantly re-reads pages from the faulty disks instead of running
   memory-resident. *)
let pool_pages = 32

let fresh ~pool_pages kind pairs =
  Run.fresh ~n_disks:2 ~pool_pages ~page_size:4096 kind pairs ~fill:0.8

(* What happens to the log at the end of the workload. *)
type log_leg =
  [ `None  (* detach quietly *)
  | `Survive  (* K>=2, mirror 0 faulty: crash, recover, demand no loss *)
  | `Detect (* K=1, interior span zeroed: crash, recover, demand report *) ]

type cell = {
  kind : Setup.kind;
  label : string;  (* "golden", "r=0.0100", "no-wal r=0.0100", "log K=2 ..." *)
  covered : bool;  (* WAL attached with full page coverage *)
  rate : float;
  ops_run : int;
  detected : int;  (* Io_error surfaced to the workload *)
  checksum_fails : int;  (* io.error.checksum *)
  latent_fails : int;  (* io.error.latent *)
  repaired : int;  (* repair.repaired *)
  retries : int;  (* io.retry.read *)
  retry_wait_ns : int;
  log_mirrors : int;  (* 0 when no WAL is attached *)
  mirror_fallbacks : int;  (* wal.mirror.fallbacks *)
  mirror_heals : int;  (* wal.mirror.repairs *)
  damaged_records : int;  (* from the end-of-leg recovery, if any *)
  scrub : Scrub.report;
  elapsed_ns : int;  (* workload + paced scrub ticks (final heal pass excluded) *)
  failures : string list;  (* oracle violations; must be empty *)
}

(* One cell: build, arm, run (ticking the scrubber), heal, crash/recover
   if the leg says so, disarm, verify. *)
let run_cell kind w ~scrub_bw ~rate ~covered ~seed ~log_mirrors ~log_rate
    ~(log_leg : log_leg) =
  let sys, idx = fresh ~pool_pages kind w.Oracle.pairs in
  let wal =
    if covered then
      Some
        (Wal.attach ~log_base_images:true ~log_mirrors
           ~meta:(Index_sig.meta idx) sys.Setup.pool)
    else begin
      (* No log: write everything back so each page is durably stamped,
         making later damage detectable by checksum. *)
      Buffer_pool.flush_dirty sys.Setup.pool;
      None
    end
  in
  Buffer_pool.clear sys.Setup.pool;
  Buffer_pool.reset_stats sys.Setup.pool;
  let profile = if rate > 0.0 then Some (Fault.scaled ~seed rate) else None in
  Disk_model.set_faults sys.Setup.disks profile;
  (* The log is not exempt: the `Survive leg arms the same kind of
     schedule on mirror 0 only, so mirror 1 stays a sound fallback (a
     simultaneous double fault is beyond any K=2 scheme's contract). *)
  (match (wal, log_leg) with
  | Some wal, `Survive ->
      Wal.set_log_faults wal ~mirror:0
        (Some (Fault.scaled ~seed:(seed + 7919) log_rate))
  | _ -> ());
  let st = Buffer_pool.stats sys.Setup.pool in
  let c field = Fpb_obs.Counter.value field in
  let detected = ref 0 in
  let sched = Scrub.scheduler ~pages_per_tick:scrub_bw sys.Setup.pool in
  let fs = ref [] in
  let fail fmt = Oracle.fail fs fmt in
  let m = Oracle.model w 0 in
  let t0 = Clock.now sys.Setup.sim.Sim.clock in
  List.iteri
    (fun i op ->
      (try
         Oracle.apply m idx op;
         match wal with
         | Some wal -> Wal.commit wal ~op:(i + 1) ~meta:(Index_sig.meta idx)
         | None -> ()
       with Buffer_pool.Io_error _ -> incr detected);
      ignore (Scrub.tick sched : Scrub.report))
    w.Oracle.ops;
  let elapsed_ns = Clock.now sys.Setup.sim.Sim.clock - t0 in
  (* Final synchronous pass: heal anything the paced laps had not
     reached before the end-state oracle reads. *)
  let scrub = Scrub.merge (Scrub.total sched) (Scrub.run sys.Setup.pool) in
  (* End-of-leg log exercise: power-cut and recover through the (faulty
     or damaged) log before the oracle looks at the recovered state. *)
  let n_ops = List.length w.Oracle.ops in
  let recovery =
    match (wal, log_leg) with
    | Some wal, (`Survive | `Detect) ->
        if log_leg = `Detect then begin
          (* Zero an interior span near the committed tail: well past the
             initial checkpoint, with readable records beyond it, so the
             scan must classify it as damage rather than a torn tail. *)
          let off = max 0 (Wal.durable_bytes wal - 256) in
          Wal.inject_mirror_damage wal ~mirror:0 (Wal.Zero_span { off; len = 64 })
        end;
        Wal.crash_now wal;
        Oracle.guard fs "recovery" (fun () -> Wal.recover wal)
    | _ -> None
  in
  (match (log_leg, recovery) with
  | `Survive, Some r ->
      if r.Wal.damaged_records > 0 then
        fail "mirrored log lost %d records despite a clean mirror"
          r.Wal.damaged_records
  | `Detect, Some r ->
      if r.Wal.damaged_records = 0 then
        fail "single-mirror log damage was silently absorbed (no loss report)";
      (* The surviving prefix must still be a structurally sound index. *)
      ignore
        (Oracle.guard fs "recovered prefix check" (fun () ->
             Index_sig.restore_meta idx r.Wal.meta;
             Index_sig.check idx))
  | _ -> ());
  (* Disarm (clears latent sectors and stops fresh draws) before the
     final oracle reads. *)
  Disk_model.set_faults sys.Setup.disks None;
  (match wal with Some wal -> Wal.set_log_faults wal None | None -> ());
  Oracle.check_answers fs m;
  if covered then begin
    (* Full coverage: every fault must have been absorbed by retry or
       repair (the final scrub pass above heals any lingering media
       damage), so nothing may have surfaced — and unless the leg
       deliberately lost log records (`Detect), the final state must
       match the model exactly. *)
    if !detected > 0 then
      fail "%d operations saw Io_error despite full WAL coverage" !detected;
    if scrub.Scrub.unrecoverable <> [] then
      fail "scrub reported %d unrecoverable pages despite full WAL coverage (%s)"
        (List.length scrub.Scrub.unrecoverable)
        (String.concat "; "
           (List.map
              (fun (p, m) -> Printf.sprintf "page %d: %s" p m)
              scrub.Scrub.unrecoverable));
    match (log_leg, recovery) with
    | `Survive, Some r ->
        Oracle.check_recovered fs idx r ~committed:n_ops (Oracle.sorted m)
    | `None, _ -> Oracle.check_state fs ~stage:"final" idx (Oracle.sorted m)
    | _ -> ()
  end
  else if rate > 0.0 && !detected = 0 && c st.Buffer_pool.err_checksum = 0
          && c st.Buffer_pool.err_latent = 0 then
    (* Detection-only: the damaged pages stay damaged (no repair source),
       so no end-state check — but the leg is vacuous unless the checksum
       layer actually caught something. *)
    fail "uncovered leg detected no faults (rate too low to exercise it)";
  let wkv = match wal with Some wal -> Wal.kv wal | None -> [] in
  let wc name = match List.assoc_opt name wkv with Some v -> v | None -> 0 in
  (match wal with
  | Some wal ->
      Telemetry.add_kv wkv;
      Wal.detach wal
  | None -> ());
  let label =
    match log_leg with
    | `Survive -> Printf.sprintf "log K=%d r=%.4f" log_mirrors log_rate
    | `Detect -> "log K=1 damage"
    | `None ->
        if rate = 0.0 then "golden"
        else Printf.sprintf "%sr=%.4f" (if covered then "" else "no-wal ") rate
  in
  Telemetry.add_kv (Buffer_pool.kv sys.Setup.pool);
  Telemetry.add_kv (Disk_model.kv sys.Setup.disks);
  Telemetry.add_kv (Scrub.kv scrub);
  {
    kind;
    label;
    covered;
    rate;
    ops_run = n_ops;
    detected = !detected;
    checksum_fails = c st.Buffer_pool.err_checksum;
    latent_fails = c st.Buffer_pool.err_latent;
    repaired = c st.Buffer_pool.repair_repaired;
    retries = c st.Buffer_pool.retry_read;
    retry_wait_ns = c st.Buffer_pool.retry_wait_ns;
    log_mirrors = (match wal with Some _ -> log_mirrors | None -> 0);
    mirror_fallbacks = wc "wal.mirror.fallbacks";
    mirror_heals = wc "wal.mirror.repairs";
    damaged_records =
      (match recovery with Some r -> r.Wal.damaged_records | None -> 0);
    scrub;
    elapsed_ns;
    failures = List.rev !fs;
  }

let run_kind ?(seed = 42) ?(log_mirrors = 2) ?log_rate ?scrub_bw scale kind =
  let _, _, default_bw, rates = params scale in
  let scrub_bw = match scrub_bw with Some b -> b | None -> default_bw in
  let w = workload ~seed scale in
  let searches =
    { w with Oracle.ops =
        List.filter (function Oracle.Search _ -> true | _ -> false) w.Oracle.ops }
  in
  let plain rate covered w =
    run_cell kind w ~scrub_bw ~rate ~covered ~seed ~log_mirrors:1
      ~log_rate:0.0 ~log_leg:`None
  in
  let golden = plain 0.0 true w in
  let covered = List.map (fun rate -> plain rate true w) rates in
  (* Uncovered leg at the highest rate: detection is the whole defence. *)
  let top_rate = List.fold_left max 0.0 rates in
  let uncovered = plain top_rate false searches in
  let log_rate = match log_rate with Some r -> r | None -> top_rate in
  (* Log-fault leg: data faults at the top rate AND a faulty log mirror;
     K is clamped to >= 2 so the clean-mirror contract holds. *)
  let log_survive =
    run_cell kind w ~scrub_bw ~rate:top_rate ~covered:true ~seed
      ~log_mirrors:(max 2 log_mirrors) ~log_rate ~log_leg:`Survive
  in
  (* Single-mirror detection leg: no fault schedule, one deterministic
     hole — recovery must report the loss, never paper over it. *)
  let log_detect =
    run_cell kind w ~scrub_bw ~rate:0.0 ~covered:true ~seed ~log_mirrors:1
      ~log_rate:0.0 ~log_leg:`Detect
  in
  (golden, covered @ [ uncovered; log_survive; log_detect ])

let overhead_pct golden cell =
  if golden.elapsed_ns = 0 then 0.0
  else
    100.0
    *. float_of_int (cell.elapsed_ns - golden.elapsed_ns)
    /. float_of_int golden.elapsed_ns

(* Run every index structure; returns all cells and a summary table. *)
let run_all ?seed ?log_mirrors ?log_rate ?scrub_bw scale =
  let per_kind =
    List.map
      (fun k -> (k, run_kind ?seed ?log_mirrors ?log_rate ?scrub_bw scale k))
      Setup.all_kinds
  in
  let cells =
    List.concat_map (fun (_, (golden, rest)) -> golden :: rest) per_kind
  in
  let rows =
    List.concat_map
      (fun (kind, (golden, rest)) ->
        List.map
          (fun c ->
            [
              Setup.kind_name kind;
              c.label;
              Table.cell_i c.detected;
              Table.cell_i c.checksum_fails;
              Table.cell_i c.latent_fails;
              Table.cell_i c.repaired;
              Table.cell_i c.retries;
              Table.cell_i c.scrub.Scrub.clean;
              Table.cell_i c.scrub.Scrub.repaired;
              Table.cell_i c.scrub.Scrub.deferred;
              Table.cell_i (List.length c.scrub.Scrub.unrecoverable);
              (if c.log_mirrors = 0 then "-" else string_of_int c.log_mirrors);
              Table.cell_i c.mirror_fallbacks;
              Table.cell_i c.mirror_heals;
              Table.cell_i c.damaged_records;
              (* The uncovered leg runs a different (search-only) workload
                 and the log legs end in a recovery, so only the plain
                 covered legs are time-comparable to the golden run. *)
              (if c.rate = 0.0 || not c.covered || c.damaged_records > 0
                  || c.mirror_fallbacks > 0
               then "-"
               else Table.cell_f (overhead_pct golden c));
              Table.cell_i (List.length c.failures);
            ])
          (golden :: rest))
      per_kind
  in
  let table =
    Table.make ~id:"chaos"
      ~title:
        "Media-fault chaos harness (oracle failures must be 0; covered legs \
         repair, the no-wal leg detects, log legs survive K=2 / report K=1)"
      ~header:
        [
          "index"; "leg"; "io_err"; "cksum"; "latent"; "repaired"; "retries";
          "scrub_ok"; "scrub_fix"; "defer"; "scrub_bad"; "K"; "m_fb"; "heal";
          "dmg"; "overhead%"; "failures";
        ]
      rows
  in
  (cells, table)

(* ------------------- shadow-metadata damage leg ---------------------- *)

(* The legs above rot data pages and log mirrors; this one rots the
   shadow-paging subsystem's own metadata — the persisted indirection
   tables and superblocks ({!Fpb_snapshot.Page_map}).  The workload runs
   with fuzzy checkpoints so several generations flip, then the live
   generation's superblock (or its table slot, or both superblocks) is
   deterministically damaged and the machine power-cuts.

   The oracle: with one generation damaged, {!Fpb_snapshot.Shadow.recover}
   must fall back to the prior complete generation
   ([pagemap.superblock_fallbacks > 0]) and still land on every committed
   operation — the WAL replays the wider gap from the older cut.  With
   both superblocks gone, plain WAL recovery is the safety net
   ([ckpt.plain_recoveries = 1]) and still loses nothing.  Corrupt
   metadata may cost a fallback, never data. *)

module Shadow = Fpb_snapshot.Shadow
module Page_map = Fpb_snapshot.Page_map

type shadow_cell = {
  s_kind : Setup.kind;
  s_label : string;
  s_flips : int;
  s_fallbacks : int;  (* pagemap.superblock_fallbacks *)
  s_plain : int;  (* ckpt.plain_recoveries *)
  s_remaps : int;  (* pagemap.remaps *)
  s_committed : int;
  s_failures : string list;
}

let run_shadow_cell kind w ~target =
  let sys, idx = fresh ~pool_pages kind w.Oracle.pairs in
  let wal = Wal.attach ~meta:(Index_sig.meta idx) sys.Setup.pool in
  let shadow = Shadow.attach ~meta:(Index_sig.meta idx) wal sys.Setup.pool in
  let n_ops = List.length w.Oracle.ops in
  let ckpt_every = max 1 (n_ops / 4) in
  let fs = ref [] in
  let fail fmt = Oracle.fail fs fmt in
  let m = Oracle.model w 0 in
  Oracle.drive m idx wal w ~from:0 ~upto:n_ops (fun opn ->
      if opn mod ckpt_every = 0 then Oracle.fuzzy_checkpoint shadow idx);
  Oracle.check_answers fs m;
  let map = Shadow.map shadow in
  let live = Shadow.current_generation shadow - 1 in
  let live_slot = live land 1 in
  let label =
    match target with
    | `Superblock ->
        Page_map.inject_damage map (Page_map.Superblock live_slot)
          (Page_map.Flip_bit { off = 9; bit = 2 });
        "sb bit-rot"
    | `Table ->
        Page_map.inject_damage map (Page_map.Table live_slot)
          (Page_map.Zero_span { off = 16; len = 128 });
        "table zero-span"
    | `Both_superblocks ->
        Page_map.inject_damage map (Page_map.Superblock 0)
          (Page_map.Flip_bit { off = 9; bit = 2 });
        Page_map.inject_damage map (Page_map.Superblock 1)
          (Page_map.Zero_span { off = 0; len = 8 });
        "both sbs gone"
  in
  Wal.crash_now wal;
  let r = Oracle.guard fs "recovery" (fun () -> Shadow.recover shadow) in
  Option.iter
    (fun r -> Oracle.check_recovered fs idx r ~committed:n_ops (Oracle.sorted m))
    r;
  let kv = Shadow.kv shadow in
  let g name = Option.value ~default:0 (List.assoc_opt name kv) in
  let fallbacks = g "pagemap.superblock_fallbacks" in
  let plain = g "ckpt.plain_recoveries" in
  (match target with
  | `Superblock | `Table ->
      if fallbacks = 0 then
        fail "damaged live metadata but recovery never fell back a generation";
      if plain > 0 then
        fail "fell through to plain WAL recovery with an intact prior \
             generation"
  | `Both_superblocks ->
      if plain = 0 then
        fail "both superblocks damaged yet a generation was trusted");
  Telemetry.add_kv kv;
  Shadow.detach shadow;
  Wal.detach wal;
  {
    s_kind = kind;
    s_label = label;
    s_flips = g "ckpt.flips";
    s_fallbacks = fallbacks;
    s_plain = plain;
    s_remaps = g "pagemap.remaps";
    s_committed = (match r with Some r -> r.Wal.committed_ops | None -> 0);
    s_failures = List.rev !fs;
  }

let shadow_meta_leg ?(seed = 42) scale =
  let w = workload ~seed scale in
  let cells =
    List.concat_map
      (fun kind ->
        List.map
          (fun target -> run_shadow_cell kind w ~target)
          [ `Superblock; `Table; `Both_superblocks ])
      Setup.all_kinds
  in
  let rows =
    List.map
      (fun c ->
        [
          Setup.kind_name c.s_kind;
          c.s_label;
          Table.cell_i c.s_flips;
          Table.cell_i c.s_fallbacks;
          Table.cell_i c.s_plain;
          Table.cell_i c.s_remaps;
          Table.cell_i c.s_committed;
          Table.cell_i (List.length c.s_failures);
        ])
      cells
  in
  let table =
    Table.make ~id:"chaos-shadow-meta"
      ~title:
        "Shadow-metadata damage (live superblock / table slot / both \
         superblocks rotted, then power cut; recovery must fall back a \
         generation — or to plain WAL replay — and lose nothing)"
      ~header:
        [
          "index"; "leg"; "flips"; "fallbacks"; "plain"; "remaps";
          "committed"; "failures";
        ]
      rows
  in
  (cells, table)

(* Scrub-bandwidth sweep: the same faulty foreground workload at
   increasing scrub rates.  Foreground latency (ns/op over the workload
   span, which the paced ticks share) rises with bandwidth; pages the
   scrubber reaches per lap rise with it.  bw=0 is the no-scrub
   baseline. *)
let scrub_sweep ?(seed = 42) scale =
  let _, n_ops, _, rates = params scale in
  let rate = List.hd rates in
  let w = workload ~seed scale in
  let bws = [ 0; 2; 8; 32 ] in
  let cells =
    List.map
      (fun bw ->
        ( bw,
          run_cell Setup.Disk_first w ~scrub_bw:bw ~rate ~covered:true
            ~seed ~log_mirrors:1 ~log_rate:0.0 ~log_leg:`None ))
      bws
  in
  let rows =
    List.map
      (fun (bw, c) ->
        [
          Table.cell_i bw;
          Table.cell_i (c.elapsed_ns / max 1 c.ops_run);
          Table.cell_i c.scrub.Scrub.scanned;
          Table.cell_i c.scrub.Scrub.repaired;
          Table.cell_i c.scrub.Scrub.deferred;
          Table.cell_i (List.length c.failures);
        ])
      cells
  in
  let table =
    Table.make ~id:"chaos-scrub-bw"
      ~title:
        (Printf.sprintf
           "Scrub bandwidth vs. foreground latency (disk-first fpB+tree, \
            r=%.4f, %d ops)"
           rate n_ops)
      ~header:[ "pages/tick"; "ns/op"; "scanned"; "scrub_fix"; "defer"; "failures" ]
      rows
  in
  (List.map snd cells, table)

(* Scrub auto-throttle: the same faulty foreground workload under three
   pacing policies.  "off" measures the unimpeded foreground p99 and
   calibrates the throttler's target (1.5x that); "fixed" runs the
   scrubber flat out at the bandwidth cap; "auto" wraps the same cap in
   a {!Fpb_storage.Scrub.throttler} fed each operation's latency, so it
   halves the bandwidth whenever a window's p99 overshoots the target
   and creeps back up (+1 per quiet window) when the foreground is
   idle.  The table shows the trade: the throttled leg should land its
   p99 near the target while still making scrub progress. *)
let throttle_sweep ?(seed = 42) scale =
  let _, n_ops, _, rates = params scale in
  let rate = List.hd rates in
  let w = workload ~seed scale in
  let max_bw = 32 in
  let run_leg policy =
    let sys, idx = fresh ~pool_pages Setup.Disk_first w.Oracle.pairs in
    let wal =
      Wal.attach ~log_base_images:true ~meta:(Index_sig.meta idx)
        sys.Setup.pool
    in
    Buffer_pool.clear sys.Setup.pool;
    Buffer_pool.reset_stats sys.Setup.pool;
    Disk_model.set_faults sys.Setup.disks (Some (Fault.scaled ~seed rate));
    let sched =
      Scrub.scheduler
        ~pages_per_tick:(match policy with `Off -> 0 | _ -> max_bw)
        sys.Setup.pool
    in
    let th =
      match policy with
      | `Throttled target ->
          Some
            (Scrub.throttler ~min_bw:0 ~max_bw ~window:50
               ~target_p99_ns:target sched)
      | _ -> None
    in
    let clock = sys.Setup.sim.Sim.clock in
    let lats = Array.make n_ops 0 in
    List.iteri
      (fun i op ->
        let t0 = Clock.now clock in
        (try
           Oracle.exec idx op;
           Wal.commit wal ~op:(i + 1) ~meta:(Index_sig.meta idx)
         with Buffer_pool.Io_error _ -> ());
        ignore (Scrub.tick sched : Scrub.report);
        (* The interval includes the paced scrub tick: in this serial
           simulation the scrubber's interference with the foreground is
           the timeline its reads consume between operations, so the
           op+tick span is the per-op latency a client would see. *)
        let lat = Clock.now clock - t0 in
        lats.(i) <- lat;
        match th with Some th -> Scrub.observe th lat | None -> ())
      w.Oracle.ops;
    Disk_model.set_faults sys.Setup.disks None;
    Wal.detach wal;
    Array.sort compare lats;
    let n = Array.length lats in
    let p99 = if n = 0 then 0 else lats.(99 * (n - 1) / 100) in
    let mean = if n = 0 then 0 else Array.fold_left ( + ) 0 lats / n in
    (p99, mean, Scrub.total sched, th)
  in
  let base_p99, base_mean, base_total, _ = run_leg `Off in
  let target = base_p99 * 3 / 2 in
  let fixed_p99, fixed_mean, fixed_total, _ = run_leg `Fixed in
  let thr_p99, thr_mean, thr_total, thr = run_leg (`Throttled target) in
  let backoffs, raises, final_bw =
    match thr with
    | Some th ->
        let b, r = Scrub.adjustments th in
        (b, r, Scrub.bandwidth th)
    | None -> (0, 0, 0)
  in
  Telemetry.add "chaos.throttle.target_p99_ns" target;
  Telemetry.add "chaos.throttle.backoffs" backoffs;
  Telemetry.add "chaos.throttle.raises" raises;
  Telemetry.add "chaos.throttle.final_bw" final_bw;
  Table.make ~id:"chaos-scrub-throttle"
    ~title:
      (Printf.sprintf
         "Scrub auto-throttle (AIMD on foreground p99; target = 1.5x \
          no-scrub p99 = %d ns; disk-first fpB+tree, r=%.4f, %d ops)"
         target rate n_ops)
    ~header:
      [ "policy"; "end bw"; "mean ns/op"; "p99 ns/op"; "scanned";
        "backoffs"; "raises" ]
    [
      [ "scrub off"; Table.cell_i 0; Table.cell_i base_mean;
        Table.cell_i base_p99; Table.cell_i base_total.Scrub.scanned; "-";
        "-" ];
      [ Printf.sprintf "fixed bw=%d" max_bw; Table.cell_i max_bw;
        Table.cell_i fixed_mean; Table.cell_i fixed_p99;
        Table.cell_i fixed_total.Scrub.scanned; "-"; "-" ];
      [ "auto-throttle"; Table.cell_i final_bw; Table.cell_i thr_mean;
        Table.cell_i thr_p99; Table.cell_i thr_total.Scrub.scanned;
        Table.cell_i backoffs; Table.cell_i raises ];
    ]

(* --------------- replication failover under link chaos ---------------- *)

(* The crashtest kill sweep exercises every record boundary over healthy
   links; this leg does the converse — one mid-workload kill per cell,
   but over a lossy, reordering link, with the full mixed workload (and
   its model oracle) running before and after the failover.  Loss and
   reordering must never change WHAT a replica holds (in-order delivery
   + retransmission make every durable prefix a prefix of the shipped
   stream), only WHEN — so the same promotion oracles hold: semi-sync
   promotion preserves every acked commit, async promotion lands exactly
   on the most advanced replica's durable prefix. *)

module Replica = Fpb_replica.Replica
module Net = Fpb_replica.Net

let lossy_profile =
  {
    Net.default_profile with
    Net.loss = 0.05;
    rto_ns = 1_000_000;
    reorder_p = 0.1;
    reorder_extra_ns = 300_000;
  }

type replica_cell = {
  r_kind : Setup.kind;
  r_label : string;
  r_acked : int;  (* commits acked by the kill horizon *)
  r_promoted : int;  (* promotion's committed op *)
  r_truncated : int;  (* staged records the promotion dropped *)
  r_drops : int;  (* net.drops over all links *)
  r_reorders : int;  (* net.reorders *)
  r_failures : string list;
}

let run_replica_cell kind w ~mode =
  let sys, idx = fresh ~pool_pages:96 kind w.Oracle.pairs in
  let wal = Wal.attach ~meta:(Index_sig.meta idx) sys.Setup.pool in
  let group =
    Replica.create
      ~config:{ Replica.default_config with Replica.mode }
      ~prng:(Fpb_workload.Prng.create 0xfa11)
      ~profiles:[ lossy_profile; lossy_profile ]
      (wal, sys.Setup.pool)
  in
  let kill_at = List.length w.Oracle.ops / 2 in
  let fs = ref [] in
  let m = Oracle.model w 0 in
  Oracle.drive m idx wal w ~from:0 ~upto:kill_at ignore;
  Oracle.check_answers fs m;
  (* Power-cut between ops: every executed commit returned to its
     client. *)
  Wal.crash_now wal;
  Replica.kill group;
  let acked =
    Replica.acked_op group ~horizon:(Option.get (Replica.killed_at group))
  in
  let promoted, truncated, gkv =
    match
      Oracle.guard fs "failover" (fun () ->
          Oracle.failover fs kind w group ~mode ~acked ~returned:kill_at)
    with
    | Some (p, g2) ->
        let gkv = Replica.kv g2 in
        Telemetry.add_kv gkv;
        Replica.detach g2;
        (p.Replica.committed_op, p.Replica.truncated_records, gkv)
    | None -> (0, 0, [])
  in
  let g name = Option.value ~default:0 (List.assoc_opt name gkv) in
  {
    r_kind = kind;
    r_label =
      (match mode with
      | Replica.Async -> "async"
      | Replica.Semi_sync k -> Printf.sprintf "semi-sync k=%d" k);
    r_acked = acked;
    r_promoted = promoted;
    r_truncated = truncated;
    r_drops = g "net.drops";
    r_reorders = g "net.reorders";
    r_failures = List.rev !fs;
  }

let replica_leg ?(seed = 42) scale =
  let _, n_ops, _, _ = params scale in
  let w = workload ~seed scale in
  let cells =
    List.concat_map
      (fun kind ->
        List.map
          (fun mode -> run_replica_cell kind w ~mode)
          [ Replica.Async; Replica.Semi_sync 1 ])
      Setup.all_kinds
  in
  let rows =
    List.map
      (fun c ->
        [
          Setup.kind_name c.r_kind;
          c.r_label;
          Table.cell_i c.r_acked;
          Table.cell_i c.r_promoted;
          Table.cell_i (max 0 (c.r_acked - c.r_promoted));
          Table.cell_i c.r_truncated;
          Table.cell_i c.r_drops;
          Table.cell_i c.r_reorders;
          Table.cell_i (List.length c.r_failures);
        ])
      cells
  in
  let table =
    Table.make ~id:"chaos-replica"
      ~title:
        (Printf.sprintf
           "Failover under link chaos (5%% loss, 10%% reordering; primary \
            killed at op %d of %d; semi-sync must lose 0 acked commits, \
            async exactly the unacked suffix; failures must be 0)"
           (n_ops / 2) n_ops)
      ~header:
        [
          "index"; "mode"; "acked"; "promoted"; "lost"; "truncated"; "drops";
          "reorders"; "failures";
        ]
      rows
  in
  (cells, table)

(* ------------------- partition windows, no failover ------------------- *)

(* The failover leg cuts the primary; this one cuts the NETWORK and
   keeps the primary alive.  A semi-sync commit barrier waits for the
   replica ack, so a scheduled {!Net.profile.partitions} window turns
   into commit-latency stall: the first commit caught inside the window
   cannot complete before heal, [net.partition_waits] counts the waits,
   and — because delivery is in-order and retransmitted — the backlog
   drains completely on heal: every commit is acked and the replica's
   durable prefix catches up to the full history.  No acked commit is
   ever lost; the partition only moves WHEN, never WHAT. *)

type partition_cell = {
  p_kind : Setup.kind;
  p_label : string;
  p_window_ns : int;
  p_pre_p50_ns : int;  (* commit latency before the window opens *)
  p_stall_ns : int;  (* latency of the commit caught in the window *)
  p_post_p50_ns : int;  (* commit latency after heal *)
  p_waits : int;  (* net.partition_waits *)
  p_acked : int;  (* commits acked by the end *)
  p_failures : string list;
}

let run_partition_cell kind pairs ~window_ns ~ops_per_phase =
  let sys, idx = fresh ~pool_pages:96 kind pairs in
  let wal = Wal.attach ~meta:(Index_sig.meta idx) sys.Setup.pool in
  let group =
    Replica.create
      ~config:
        { Replica.default_config with Replica.mode = Replica.Semi_sync 1 }
      ~prng:(Fpb_workload.Prng.create 0x9a27)
      ~profiles:[ Net.default_profile ]
      (wal, sys.Setup.pool)
  in
  let clock = sys.Setup.sim.Sim.clock in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let opn = ref 0 in
  let base = fst pairs.(Array.length pairs - 1) in
  (* One committed insert; returns its commit latency (simulated ns). *)
  let commit_one () =
    incr opn;
    ignore (Index_sig.insert idx (base + !opn) !opn);
    let t0 = Clock.now clock in
    Wal.commit wal ~op:!opn ~meta:(Index_sig.meta idx);
    Clock.now clock - t0
  in
  let p50 a =
    let s = Array.of_list a in
    Array.sort compare s;
    s.(Array.length s / 2)
  in
  let pre = List.init ops_per_phase (fun _ -> commit_one ()) in
  (* Open the partition NOW: the very next shipped record falls inside
     the window and its semi-sync barrier must wait out the heal. *)
  let link = Replica.node_link (Replica.node group 0) in
  let t_open = Clock.now clock in
  let t_heal = t_open + window_ns in
  Net.set_profile link
    { (Net.profile link) with Net.partitions = [ (t_open, t_heal) ] };
  let stall_ns = commit_one () in
  if Clock.now clock < t_heal then
    fail "commit inside an open partition completed %d ns before heal"
      (t_heal - Clock.now clock);
  let waits = Fpb_obs.Counter.value (Net.stats link).Net.partition_waits in
  if waits = 0 then
    fail "no net.partition_waits recorded though a commit spanned the window";
  (* Healed: the backlog must drain and latency return to the floor. *)
  let post = List.init ops_per_phase (fun _ -> commit_one ()) in
  let pre_p50 = p50 pre and post_p50 = p50 post in
  if stall_ns < window_ns / 2 then
    fail "stalled commit latency %d ns, expected most of the %d ns window"
      stall_ns window_ns;
  if post_p50 > stall_ns / 4 then
    fail "post-heal commit p50 %d ns has not drained below the stall (%d ns)"
      post_p50 stall_ns;
  let horizon = Clock.now clock in
  let acked = Replica.acked_op group ~horizon in
  if acked <> !opn then
    fail "acked %d of %d commits after heal — the backlog did not drain"
      acked !opn;
  let node = Replica.node group 0 in
  let synced = Replica.sync_node group ~horizon node in
  if synced <> !opn then
    fail "replica converged to op %d after heal, expected %d" synced !opn;
  (try Index_sig.check idx with Failure msg -> fail "structural check: %s" msg);
  Telemetry.add_kv (Replica.kv group);
  Replica.detach group;
  {
    p_kind = kind;
    p_label = Printf.sprintf "semi-sync k=1, %d ms window"
        (window_ns / 1_000_000);
    p_window_ns = window_ns;
    p_pre_p50_ns = pre_p50;
    p_stall_ns = stall_ns;
    p_post_p50_ns = post_p50;
    p_waits = waits;
    p_acked = acked;
    p_failures = List.rev !failures;
  }

let partition_leg ?(seed = 42) scale =
  let _, n_ops, _, _ = params scale in
  let { Oracle.pairs; _ } = workload ~seed scale in
  let ops_per_phase = max 8 (n_ops / 40) in
  let window_ns = 50_000_000 in
  let cells =
    List.map
      (fun kind -> run_partition_cell kind pairs ~window_ns ~ops_per_phase)
      Setup.all_kinds
  in
  List.iter
    (fun c ->
      let slug = Run.slug (Setup.kind_name c.p_kind) in
      Telemetry.add
        (Printf.sprintf "chaos.partition.%s.stall_ns" slug)
        c.p_stall_ns;
      Telemetry.add
        (Printf.sprintf "chaos.partition.%s.post_p50_ns" slug)
        c.p_post_p50_ns;
      Telemetry.add
        (Printf.sprintf "chaos.partition.%s.partition_waits" slug)
        c.p_waits)
    cells;
  let rows =
    List.map
      (fun c ->
        [
          Setup.kind_name c.p_kind;
          c.p_label;
          Table.cell_i c.p_pre_p50_ns;
          Table.cell_i c.p_stall_ns;
          Table.cell_i c.p_post_p50_ns;
          Table.cell_i c.p_waits;
          Table.cell_i c.p_acked;
          Table.cell_i (List.length c.p_failures);
        ])
      cells
  in
  let table =
    Table.make ~id:"chaos-partition"
      ~title:
        (Printf.sprintf
           "Network partition mid-run, primary alive (semi-sync k=1, %d ms \
            window): the commit caught in the window stalls until heal, \
            then the backlog drains — every commit acked, replica fully \
            caught up, commit latency back at the floor; failures must be 0"
           (window_ns / 1_000_000))
      ~header:
        [
          "index"; "scenario"; "pre p50 ns"; "stall ns"; "post p50 ns";
          "partition waits"; "acked"; "failures";
        ]
      rows
  in
  (cells, table)

(* ------------------------- the oracle legs -------------------------- *)

(* The four oracle-checked legs — media faults, shadow metadata,
   replica failover, partition — as `fpb chaos` runs them and [run]
   reports them: their tables, every oracle failure labelled
   "<index>/<leg>: <violation>", and the media legs' totals. *)
type summary = {
  tables : Table.t list;
  oracle_failures : string list;
  n_cells : int;
  pages_repaired : int;
  errors_detected : int;
}

let legs ?seed ?log_mirrors ?log_rate ?scrub_bw scale =
  let cells, table = run_all ?seed ?log_mirrors ?log_rate ?scrub_bw scale in
  let shadow_cells, shadow_table = shadow_meta_leg ?seed scale in
  let replica_cells, replica_table = replica_leg ?seed scale in
  let partition_cells, partition_table = partition_leg ?seed scale in
  let labelled kind label =
    List.map (Printf.sprintf "%s/%s: %s" (Setup.kind_name kind) label)
  in
  let sum f = List.fold_left (fun a c -> a + f c) 0 cells in
  {
    tables = [ table; shadow_table; replica_table; partition_table ];
    oracle_failures =
      List.concat_map (fun c -> labelled c.kind c.label c.failures) cells
      @ List.concat_map
          (fun c -> labelled c.s_kind c.s_label c.s_failures)
          shadow_cells
      @ List.concat_map
          (fun c -> labelled c.r_kind c.r_label c.r_failures)
          replica_cells
      @ List.concat_map
          (fun c -> labelled c.p_kind c.p_label c.p_failures)
          partition_cells;
    n_cells =
      List.length cells + List.length shadow_cells + List.length replica_cells
      + List.length partition_cells;
    pages_repaired = sum (fun c -> c.repaired);
    errors_detected = sum (fun c -> c.detected);
  }

(* Registry entry: the harness as an experiment, so `fpb exp faults`
   lands detection/repair counters in BENCH_results.json. *)
let run scale =
  let s = legs scale in
  let sweep_cells, sweep = scrub_sweep scale in
  let throttle = throttle_sweep scale in
  let fails =
    List.length s.oracle_failures
    + List.fold_left (fun a c -> a + List.length c.failures) 0 sweep_cells
  in
  if fails > 0 then Telemetry.add "chaos.oracle_failures" fails;
  s.tables @ [ sweep; throttle ]
