(* Smoke tests for the experiment harness itself: the registry is complete
   and the cheap experiments produce well-formed tables. *)

open Fpb_experiments

let expected_ids =
  [ "table1"; "table2"; "fig3b"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14";
    "fig15"; "fig16"; "fig17"; "fig18a"; "fig18bc"; "fig19"; "ablation";
    "ext-varkey"; "ext-skew"; "recovery"; "concurrency"; "ycsb"; "faults";
    "checkpoint"; "overload"; "batch"; "replica" ]

let test_registry_complete () =
  List.iter
    (fun id ->
      if Registry.find id = None then Alcotest.failf "missing experiment %s" id)
    expected_ids;
  Alcotest.(check int) "no unexpected experiments" (List.length expected_ids)
    (List.length Registry.all)

let test_tables_well_formed () =
  let check_table (t : Table.t) =
    if t.Table.header = [] then Alcotest.failf "%s: empty header" t.Table.id;
    List.iter
      (fun row ->
        if List.length row <> List.length t.Table.header then
          Alcotest.failf "%s: ragged row" t.Table.id)
      t.Table.rows
  in
  check_table (Exp_config.table1 ());
  check_table (Exp_config.table2 ());
  check_table (Exp_db2.fig19a Scale.Quick);
  check_table (Exp_db2.fig19b Scale.Quick)

let test_csv_roundtrip () =
  let t = Exp_config.table1 () in
  let csv = Table.csv t in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "csv rows" (1 + List.length t.Table.rows) (List.length lines)

let test_measure_cycles_isolated () =
  (* measurement must reset stats so back-to-back measures are independent *)
  let sys = Setup.make ~page_size:4096 () in
  let m1 = Setup.measure_cycles sys (fun () -> Fpb_simmem.Sim.charge_busy sys.Setup.sim 100) in
  let m2 = Setup.measure_cycles sys (fun () -> ()) in
  Alcotest.(check int) "first measure" 100 m1.Setup.busy;
  Alcotest.(check int) "second measure clean" 0 m2.Setup.total

let test_find_prefix () =
  (match Registry.find "fig3" with
  | Some e -> Alcotest.(check string) "unique prefix resolves" "fig3b" e.Registry.id
  | None -> Alcotest.fail "fig3 should resolve to fig3b");
  Alcotest.(check bool) "ambiguous prefix rejected" true (Registry.find "fig18" = None);
  Alcotest.(check bool)
    "exact id wins over prefixes" true
    (match Registry.find "fig18a" with Some e -> e.Registry.id = "fig18a" | None -> false)

(* Counter lookup, a named boolean claim and the table-id check for one
   experiment's outcome. *)
let claims name (o : Registry.outcome) =
  let c = Fpb_obs.Registry.snapshot o.metrics in
  let get k =
    match List.assoc_opt k c with
    | Some v -> v
    | None -> Alcotest.failf "%s: missing counter %s" name k
  in
  let claim what ok = Alcotest.(check bool) (name ^ ": " ^ what) true ok in
  let tables ids =
    Alcotest.(check (list string))
      (name ^ ": tables") ids
      (List.map (fun t -> t.Table.id) o.tables)
  in
  claim "not aborted" (o.aborted = None);
  (c, get, claim, tables)

(* The claims `exp batch` makes at Tiny scale: batching at B=8 out-serves
   the singleton discipline on every index, with cross-probe sharing and
   the disk pipeline engaged; root accesses amortize to probes/B; every
   skewed batch speeds up; the batch server pays the size-or-timeout
   latency floor below capacity yet keeps up with the singleton server
   past it. *)
let check_batch_claims o =
  let c, get, claim, tables = claims "batch" o in
  List.iter
    (fun kind ->
      let k = Run.slug (Setup.kind_name kind) in
      claim (k ^ " B8 >= B1")
        (get (Printf.sprintf "batch.a.%s.b8.ops_per_s" k)
        >= get (Printf.sprintf "batch.a.%s.b1.ops_per_s" k)))
    Setup.all_kinds;
  claim "sharing observed" (get "batch.shared_nodes" > 0 && get "batch.dup_probes" > 0);
  claim "pipeline engaged" (get "batch.pipeline_stalls" > 0);
  Alcotest.(check int)
    "batch: root accesses = probes/B"
    (Exp_batch.total_probes Scale.Tiny / 32)
    (get "batch.a.disk-first-fpb-tree.b32.level0_accesses");
  let speedups =
    List.filter (fun (k, _) -> String.ends_with ~suffix:".speedup_pct" k) c
  in
  claim "every speedup > 100%"
    (List.length speedups >= 5 && List.for_all (fun (_, v) -> v > 100) speedups);
  claim "latency floor below capacity"
    (get "batch.c.b32-r40.p50_ns" > get "batch.c.single-r40.p50_ns");
  claim "capacity past saturation"
    (get "batch.c.b32-r110.ops_per_s" >= get "batch.c.single-r110.ops_per_s");
  tables [ "batch-a"; "batch-b"; "batch-c" ]

(* `exp ycsb` reports the open-loop arrival sweep: offered rate, backlog
   and the p999 tail are all recorded.  Every page change on its WAL
   goes through [Mem], so no delta falls back to a whole-page diff. *)
let check_ycsb_claims o =
  let c, get, claim, tables = claims "ycsb" o in
  Alcotest.(check int) "ycsb: no whole-page delta diff" 0
    (get "wal.delta.full_diffs");
  let any suffix =
    List.exists
      (fun (k, _) ->
        String.starts_with ~prefix:"ycsb." k && String.ends_with ~suffix k)
      c
  in
  claim "p999 recorded" (any ".p999_ns");
  claim "offered rate recorded" (any ".offered_ops_per_s");
  claim "backlog recorded" (any ".max_backlog");
  tables [ "ycsb-a"; "ycsb-b"; "ycsb-c" ]

(* `exp overload`: below capacity everything is good; at 3x capacity
   admit-all goodput collapses while the bounded policies shed instead of
   queueing without bound; naive fixed-delay retries pin post-burst
   recovery far below the backoff+jitter cure; undersized pools surface
   the typed Overloaded and recover; background work yields under
   pressure yet the checkpoint still flips. *)
let check_overload_claims o =
  let _, get, claim, tables = claims "overload" o in
  claim "admit-all good below capacity"
    (get "overload.a.admit-all.r50.good_pct" > 90);
  claim "admit-all collapses at 3x"
    (get "overload.a.admit-all.r300.good_pct" < 50);
  claim "queue-cap sheds at 3x" (get "overload.a.queue-cap.r300.shed" > 0);
  claim "deadline sheds at 3x" (get "overload.a.deadline.r300.shed" > 0);
  claim "deadline bounds the backlog"
    (get "overload.a.deadline.r300.max_backlog"
    < get "overload.a.admit-all.r300.max_backlog");
  claim "naive retries storm"
    (get "overload.b.naive.retries" > get "overload.b.jitter.retries");
  claim "backoff+jitter cures the storm"
    (get "overload.b.naive.recovery_good_pct" + 20
    < get "overload.b.jitter.recovery_good_pct");
  List.iter
    (fun f ->
      let k = Printf.sprintf "overload.c.f%d." f in
      claim (k ^ "refused") (get (k ^ "pool_overloaded") > 0);
      claim (k ^ "recovered") (get (k ^ "recovered") = 1))
    [ 1; 2; 4 ];
  claim "background yields"
    (get "overload.d.scrub_yields" > 0 && get "overload.d.ckpt_yields" > 0);
  claim "checkpoint still flips" (get "overload.d.flipped" = 1);
  tables [ "overload-a"; "overload-b"; "overload-c"; "overload-d" ]

(* `exp concurrency` reports per-(clients, shards) throughput. *)
let check_concurrency_claims o =
  let c, _, claim, tables = claims "concurrency" o in
  claim "throughput recorded"
    (List.exists (fun (k, _) -> String.starts_with ~prefix:"concurrency." k) c);
  tables [ "concurrency-a"; "concurrency-b"; "concurrency-c"; "concurrency-d" ]

(* `exp checkpoint`: fuzzy beats sharp on open-loop p99 and on the worst
   writer stall, replay after a fuzzy checkpoint scans fewer records than
   plain WAL recovery, and the concurrent snapshot scan is byte-perfect. *)
let check_checkpoint_claims o =
  let _, get, claim, tables = claims "checkpoint" o in
  claim "fuzzy p99 <= sharp p99"
    (get "ckpt.fuzzy.p99_ns" <= get "ckpt.sharp.p99_ns");
  claim "fuzzy stall < sharp stall"
    (get "ckpt.fuzzy.max_stall_ns" < get "ckpt.sharp.max_stall_ns");
  claim "bounded replay"
    (get "recovery.fuzzy.scanned_records"
    < get "recovery.walonly.scanned_records");
  claim "snapshot frozen pages" (get "snapshot.frozen_pages" > 0);
  claim "snapshot byte-perfect"
    (get "snapshot.mismatches" = 0 && get "snapshot.missing" = 0);
  tables [ "checkpoint-a"; "checkpoint-b"; "checkpoint-c" ]

(* `exp replica`: semi-sync commits pay the ack round-trip async hides;
   killing the primary mid-load loses no acked commit, with a bounded
   blackout and a synced survivor; once retention trims the log, log
   catch-up is refused and the snapshot path beats the full-log
   control. *)
let check_replica_claims o =
  let _, get, claim, tables = claims "replica" o in
  claim "async capacity > semi-sync"
    (get "replica.a.async.capacity" > get "replica.a.semi-sync-1.capacity");
  claim "semi-sync pays the ack"
    (get "replica.a.semi-sync-1.r50.commit_p50_ns"
    > get "replica.a.async.r50.commit_p50_ns");
  claim "zero acked loss" (get "replica.b.lost_acked" = 0);
  claim "promoted covers acked"
    (get "replica.b.acked_at_kill" <= get "replica.b.promoted_op");
  claim "survivor synced" (get "replica.b.survivor_synced" = 1);
  let blackout = get "replica.b.blackout_ns" in
  claim "bounded blackout" (0 < blackout && blackout < 100_000_000);
  claim "retention refuses log catch-up"
    (get "replica.c.retention_exceeded" = 1);
  claim "snapshot beats log"
    (get "replica.c.snapshot_ns" < get "replica.c.log_ns");
  claim "caught up" (get "replica.c.caught_up" = 1);
  tables [ "replica-a"; "replica-b"; "replica-c" ]

(* `exp faults` (the chaos harness): no oracle failed; the replica leg's
   lossy link dropped and reordered messages; the partition leg's
   semi-sync commits waited out the window, and the commit caught in it
   stalled longer than the post-heal median. *)
let check_faults_claims o =
  let c, get, claim, tables = claims "faults" o in
  claim "no oracle failures" (not (List.mem_assoc "chaos.oracle_failures" c));
  claim "lossy link drops" (get "net.drops" > 0);
  claim "lossy link reorders" (get "net.reorders" > 0);
  claim "partition waits" (get "net.partition_waits" > 0);
  claim "partition stall > post-heal p50"
    (get "chaos.partition.disk-first-fpb-tree.stall_ns"
    > get "chaos.partition.disk-first-fpb-tree.post_p50_ns");
  tables
    [
      "chaos"; "chaos-shadow-meta"; "chaos-replica"; "chaos-partition";
      "chaos-scrub-bw"; "chaos-scrub-throttle";
    ]

(* Table [id] of experiment [name]'s outcome, which must not have
   aborted. *)
let result_table (outcome : string -> Registry.outcome) name id =
  let o = outcome name in
  Alcotest.(check bool) (name ^ ": not aborted") true (o.aborted = None);
  match List.find_opt (fun t -> t.Table.id = id) o.tables with
  | Some t -> t
  | None -> Alcotest.failf "%s: no table %s" name id

(* The text in [t]'s row whose first cell is [row], column [col]. *)
let text_cell (t : Table.t) row col =
  let rec index i = function
    | [] -> Alcotest.failf "%s: no column %S" t.id col
    | h :: rest -> if h = col then i else index (i + 1) rest
  in
  let c = index 0 t.header in
  match List.find_opt (fun r -> List.hd r = row) t.rows with
  | Some r -> List.nth r c
  | None -> Alcotest.failf "%s: no row %S" t.id row

(* The same cell as a number. *)
let cell t row col = float_of_string (text_cell t row col)

let claim (t : Table.t) what ok = Alcotest.(check bool) (t.id ^ ": " ^ what) true ok

(* The paper's range-scan shapes at Tiny scale, read from the result
   tables: fpB+-Trees scan memory-resident ranges well under the
   disk-optimized tree's time (Figure 15); jump-pointer I/O prefetch
   makes large disk-first scans several times faster (Figure 18a) and
   scales with the disk count where the B+-Tree's scan does not
   (Figure 18b,c); and each ablated mechanism pays for itself. *)
let check_scan_claims (outcome : string -> Registry.outcome) =
  let table = result_table outcome in
  let fig15 = table "fig15" "fig15" in
  List.iter
    (fun row ->
      claim fig15 (row ^ " <= 0.6x disk-optimized")
        (cell fig15 row "total" <= 0.6 *. cell fig15 "disk-optimized B+tree" "total"))
    [ "disk-first fpB+tree"; "cache-first fpB+tree" ];
  let fig18a = table "fig18a" "fig18a" in
  claim fig18a "disk-first prefetch >= 3x faster at 10000 entries"
    (cell fig18a "10000" "disk-optimized B+tree"
    >= 3. *. cell fig18a "10000" "disk-first fpB+tree (prefetch)");
  let fig18bc = table "fig18bc" "fig18bc" in
  claim fig18bc "fpB+tree speedup >= 4 at 10 disks"
    (cell fig18bc "10" "fpB+tree speedup" >= 4.);
  List.iter
    (fun r ->
      let disks = List.hd r in
      claim fig18bc
        ("B+tree speedup <= 1.3 at " ^ disks ^ " disks")
        (cell fig18bc disks "B+tree speedup" <= 1.3))
    fig18bc.rows;
  let a1 = table "ablation" "ablation-a1" in
  List.iter
    (fun row -> claim a1 ("speedup >= 3: " ^ row) (cell a1 row "speedup" >= 3.))
    [ "disk-optimized B+tree"; "disk-first fpB+tree" ];
  let a2 = table "ablation" "ablation-a2" in
  claim a2 "speedup >= 2" (cell a2 "on" "speedup" >= 2.);
  let a4 = table "ablation" "ablation-a4" in
  claim a4 "fewer reads with the end-page bound"
    (cell a4 "on (paper)" "reads/scan" < cell a4 "off (overshoots)" "reads/scan")

(* The paper's search and update shapes at Tiny scale, each row that
   EXPERIMENTS.md marks as reproduced: the pB+-Tree's search takes under
   0.4x the disk-optimized tree's time (Figure 3b); both fpB+-Trees
   search in under 0.85x its time at every page size and tree size, and
   micro-indexing beats it too (Figure 10); both stay under 0.75x at
   every bulkload factor (Figure 12); and both delete in under 0.4x its
   time at every fill and page size (Figure 14).  Left out: Figure 13
   (insertion), whose 100% row of (a) does not show the paper's dip
   (EXPERIMENTS.md notes a milder rise) and whose cache-first column of
   (c) is not marked reproduced (at 4KB it is slower than the baseline,
   1.329 vs 1.126 Mcycles at Tiny). *)
let check_search_update_claims (outcome : string -> Registry.outcome) =
  let table = result_table outcome in
  let base = "disk-optimized B+tree" in
  let fpb = [ "disk-first fpB+tree"; "cache-first fpB+tree" ] in
  (* every row: each fpB+-Tree's time <= [ratio] x the baseline's *)
  let fpb_within ratio (t : Table.t) =
    List.iter
      (fun r ->
        let row = List.hd r in
        List.iter
          (fun col ->
            claim t
              (Printf.sprintf "%s <= %gx disk-optimized at %s" col ratio row)
              (cell t row col <= ratio *. cell t row base))
          fpb)
      t.rows
  in
  let fig3b = table "fig3b" "fig3b" in
  claim fig3b "pB+tree <= 0.4x disk-optimized"
    (cell fig3b "pB+tree (cache-optimized)" "total" <= 0.4 *. cell fig3b base "total");
  List.iter
    (fun page ->
      let t = table "fig10" ("fig10-" ^ page) in
      fpb_within 0.85 t;
      List.iter
        (fun r ->
          let row = List.hd r in
          claim t ("micro-indexing < disk-optimized at " ^ row)
            (cell t row "micro-indexing" < cell t row base))
        t.rows)
    [ "4KB"; "8KB"; "16KB"; "32KB" ];
  fpb_within 0.75 (table "fig12" "fig12");
  fpb_within 0.4 (table "fig14" "fig14a");
  fpb_within 0.4 (table "fig14" "fig14b")

(* Table 2's width selections equal the paper's in every cell that
   EXPERIMENTS.md marks exact: disk-first at 4, 8 and 32KB, cache-first
   and micro-indexing at every page size.  Disk-first at 16KB keeps the
   documented deviation: the paper's 192B nonleaf node, but a 576B leaf
   whose fan-out (1988 against the paper's 1953) also meets the cost
   bound, so only a fan-out of at least 1953 is claimed there.  Costs
   are left out: they are estimates the paper rounds differently (32KB
   disk-first reads 1.09 against 1.07). *)
let check_table2_claims (outcome : string -> Registry.outcome) =
  let t = result_table outcome "table2" "table2" in
  let exact page cells =
    List.iter
      (fun (col, paper) ->
        Alcotest.(check string) (Printf.sprintf "table2: %s %s" page col) paper
          (text_cell t page col))
      cells
  in
  List.iter
    (fun (page, nonleaf, leaf, fanout) ->
      exact page [ ("df nonleaf", nonleaf); ("df leaf", leaf); ("df fanout", fanout) ])
    [ ("4KB", "64B", "384B", "470"); ("8KB", "192B", "256B", "961");
      ("32KB", "256B", "832B", "4017") ];
  List.iter
    (fun (page, cf_node, cf_fanout, mi_sub, mi_fanout) ->
      exact page
        [ ("cf node", cf_node); ("cf fanout", cf_fanout); ("mi sub", mi_sub);
          ("mi fanout", mi_fanout) ])
    [ ("4KB", "576B", "497", "128B", "496"); ("8KB", "576B", "994", "192B", "1008");
      ("16KB", "704B", "2001", "320B", "2032"); ("32KB", "640B", "4029", "320B", "4064") ];
  exact "16KB" [ ("df nonleaf", "192B") ];
  claim t "disk-first fan-out >= 1953 at 16KB" (cell t "16KB" "df fanout" >= 1953.)

(* A committed file from the repository root, which every build copies
   beside the test executable (test/dune).  Found from the executable,
   not the working directory, so the test reads the same file under
   [dune runtest] and when run directly. *)
let root_file name = Filename.concat (Filename.dirname Sys.executable_name) name

(* The committed tiny report, [BENCH_results.json] at the repository
   root.  Regenerate it with
   [dune exec bench/main.exe -- --tiny --json BENCH_results.json all]
   whenever a change moves a simulated number on purpose. *)
let committed_report = root_file "BENCH_results.json"

(* First path at which two JSON values differ, for the failure message. *)
let rec first_diff path (a : Fpb_obs.Json.t) (b : Fpb_obs.Json.t) =
  let module J = Fpb_obs.Json in
  match (a, b) with
  | J.Obj xs, J.Obj ys when List.map fst xs = List.map fst ys ->
      List.find_map (fun ((k, x), (_, y)) -> first_diff (path ^ "." ^ k) x y)
        (List.combine xs ys)
  | J.List xs, J.List ys when List.length xs = List.length ys ->
      List.find_map
        (fun (i, (x, y)) -> first_diff (Printf.sprintf "%s[%d]" path i) x y)
        (List.mapi (fun i p -> (i, p)) (List.combine xs ys))
  | _ -> if a = b then None else Some path

(* Every experiment's simulated results equal the committed report's:
   [metrics] and [tables] exactly; host numbers ([wall_s], [bechamel])
   are not compared. *)
let check_matches_committed (fresh : Fpb_obs.Json.t) =
  let module J = Fpb_obs.Json in
  let experiments json =
    Option.value ~default:[] (Option.bind (J.member "experiments" json) J.to_list)
  in
  let committed =
    experiments (J.parse (In_channel.with_open_bin committed_report In_channel.input_all))
  in
  let fresh = experiments fresh in
  let id e = Option.value ~default:"?" (Option.bind (J.member "id" e) J.to_str) in
  Alcotest.(check (list string))
    "committed report has the same experiments" (List.map id fresh)
    (List.map id committed);
  List.iter2
    (fun f c ->
      List.iter
        (fun field ->
          match (J.member field f, J.member field c) with
          | Some x, Some y -> (
              match first_diff (id f ^ "." ^ field) x y with
              | None -> ()
              | Some path ->
                  Alcotest.failf
                    "%s differs from %s (regenerate it if the change is \
                     intended)"
                    path committed_report)
          | _ -> Alcotest.failf "%s: %s missing" (id f) field)
        [ "metrics"; "tables" ])
    fresh committed

(* The report of the CI bench smoke step, `bench/main.exe --tiny --json
   F table1 fig3b fig17 recovery`, built from the same outcomes: schema
   version 1, the requested ids in the requested order, and the WAL's
   counters in the recovery experiment's metrics. *)
let check_bench_smoke outcomes =
  let module J = Fpb_obs.Json in
  let requested = [ "table1"; "fig3b"; "fig17"; "recovery" ] in
  let wanted =
    List.map
      (fun id ->
        match Registry.find id with
        | Some e -> e.Registry.id
        | None -> Alcotest.failf "bench smoke: unknown id %s" id)
      requested
  in
  let selected =
    List.filter (fun o -> List.mem o.Registry.entry.Registry.id wanted) outcomes
  in
  let parsed =
    J.parse (J.to_string (Report.make ~scale:Scale.Tiny ~bechamel:[] selected))
  in
  Alcotest.(check (option int))
    "bench smoke: schema version" (Some 1)
    (Option.bind (J.member "schema_version" parsed) J.to_int);
  let exps =
    Option.value ~default:[] (Option.bind (J.member "experiments" parsed) J.to_list)
  in
  Alcotest.(check (list string))
    "bench smoke: ids in the order requested" requested
    (List.filter_map (fun e -> Option.bind (J.member "id" e) J.to_str) exps);
  let counters e =
    match Option.bind (J.member "metrics" e) (J.member "counters") with
    | Some (J.Obj kvs) -> List.map fst kvs
    | _ -> []
  in
  Alcotest.(check bool)
    "bench smoke: wal.* counters in recovery" true
    (List.exists
       (fun e ->
         Option.bind (J.member "id" e) J.to_str = Some "recovery"
         && List.exists (String.starts_with ~prefix:"wal.") (counters e))
       exps)

(* Every registered experiment runs at Tiny scale, the resulting report
   serialises to JSON that parses back with all ids present and a
   metrics record per experiment, and its simulated results equal the
   committed report's. *)
let test_full_report_roundtrip () =
  let module J = Fpb_obs.Json in
  let outcomes = List.map (Registry.run_entry Scale.Tiny) Registry.all in
  let outcome id = List.find (fun o -> o.Registry.entry.Registry.id = id) outcomes in
  check_scan_claims outcome;
  check_search_update_claims outcome;
  check_table2_claims outcome;
  List.iter
    (fun (id, check) -> check (outcome id))
    [
      ("batch", check_batch_claims);
      ("ycsb", check_ycsb_claims);
      ("overload", check_overload_claims);
      ("concurrency", check_concurrency_claims);
      ("checkpoint", check_checkpoint_claims);
      ("replica", check_replica_claims);
      ("faults", check_faults_claims);
    ];
  let json =
    Report.make ~scale:Scale.Tiny ~timestamp:"1970-01-01T00:00:00Z"
      ~bechamel:[ ("search/demo", 120.5) ]
      outcomes
  in
  let parsed = J.parse (J.to_string json) in
  let exps =
    Option.value ~default:[] (Option.bind (J.member "experiments" parsed) J.to_list)
  in
  let ids = List.filter_map (fun e -> Option.bind (J.member "id" e) J.to_str) exps in
  Alcotest.(check (list string))
    "every registered experiment reported"
    (List.map (fun e -> e.Registry.id) Registry.all)
    ids;
  List.iter
    (fun e ->
      match Option.bind (J.member "metrics" e) (J.member "counters") with
      | Some (J.Obj _) -> ()
      | _ ->
          Alcotest.failf "%s: missing counters object"
            (Option.value ~default:"?" (Option.bind (J.member "id" e) J.to_str)))
    exps;
  check_matches_committed parsed;
  check_bench_smoke outcomes

(* `fpb crashtest` at its CI seed: no checker failure, and every sweep
   exercises exactly its known crash points, torn pages and golden log
   volume — a moved number means the scenario or the crash controller
   changed what the sweep covers. *)
let test_crashtest_claims () =
  let results, table = Crashtest.run_all ~seed:42 Scale.Tiny in
  List.iter
    (fun r ->
      List.iter (fun (l, m) -> Alcotest.failf "%s: %s" l m) r.Crashtest.failures)
    results;
  let sweep suffix points torn log_bytes =
    List.map2
      (fun (kind, torn) bytes ->
        (Setup.kind_name kind ^ suffix)
        :: List.map string_of_int [ points; torn; bytes; 0 ])
      (List.combine Setup.all_kinds torn)
      log_bytes
  in
  let golden = [ 179583; 180247; 120018; 57052 ] in
  Alcotest.(check (list (list string)))
    "crashtest table"
    (sweep "" 40 [ 3; 3; 1; 1 ] golden
    @ sweep " (shadow)" 21 [ 0; 0; 0; 0 ] [ 179616; 180280; 120051; 57105 ]
    @ sweep " (replica async)" 40 [ 0; 0; 0; 0 ] golden
    @ sweep " (replica semi-sync)" 40 [ 0; 0; 0; 0 ] golden)
    table.Table.rows

(* --- the shared recovery oracle is not vacuous --- *)

(* A disk-first index after ten committed fresh inserts, power-cut and
   recovered: the state the oracle must accept, and its inputs. *)
let recovered () =
  let { Oracle.pairs; _ } = Oracle.workload Crashtest.mix ~seed:1 150 0 in
  let top = fst pairs.(Array.length pairs - 1) in
  let ops = List.init 10 (fun i -> Oracle.Ins (top + 1 + i, i)) in
  let w = { Oracle.pairs; ops } in
  let idx, wal, (), _, _ =
    Crashtest.run_scenario Setup.Disk_first w ~ckpt_every:0 ~crash_at:None
      ~attach:(fun _ _ -> ())
  in
  Fpb_wal.Wal.crash_now wal;
  (w, idx, Fpb_wal.Wal.recover wal)

let test_oracle_not_vacuous () =
  let w, idx, r = recovered () in
  let want c = Oracle.sorted (Oracle.model w c) in
  let failures what expected check =
    let fs = ref [] in
    check fs;
    Alcotest.(check (list string)) what expected (List.rev !fs)
  in
  failures "the true model passes" [] (fun fs ->
      Oracle.check_recovered fs idx r ~committed:10 (want 10));
  failures "model one committed op short"
    [ "recovered key set mismatch: 160 entries, 159 expected" ] (fun fs ->
      Oracle.check_recovered fs idx r ~committed:10 (want 9));
  failures "model missing a key"
    [ "recovered key set mismatch: 160 entries, 159 expected" ] (fun fs ->
      Oracle.check_recovered fs idx r ~committed:10 (List.tl (want 10)));
  failures "semi-sync promotion below the acked count"
    [ "promotion lost 1 acked commits (acked 10, promoted 9)" ] (fun fs ->
      Oracle.check_promotion fs ~mode:(Fpb_replica.Replica.Semi_sync 1)
        ~acked:10 ~best:9 ~returned:10 9);
  failures "bogus metadata"
    [ "restore_meta raised: Invalid_argument(\"disk-first fpB+tree.restore_meta: \
       bad shape\")" ]
    (fun fs ->
      Oracle.check_recovered fs idx { r with meta = [ 1 ] } ~committed:10
        (want 10))

(* The committed fpbench trajectory, [BENCH_fpbench.json] at the
   repository root: one point per change, oldest first.  Every point
   but the newest names its commit (the newest is filled in by the
   change after it), and every run it records finished correct with no
   failed operation. *)
let test_fpbench_trajectory () =
  let module J = Fpb_obs.Json in
  let json = J.parse (In_channel.with_open_bin (root_file "BENCH_fpbench.json") In_channel.input_all) in
  let points = Option.value ~default:[] (Option.bind (J.member "points" json) J.to_list) in
  if points = [] then Alcotest.fail "BENCH_fpbench.json: no points";
  let last = List.length points - 1 in
  List.iteri
    (fun i p ->
      let commit = Option.bind (J.member "commit" p) J.to_str in
      if i < last && commit = None then
        Alcotest.failf "BENCH_fpbench.json: point %d names no commit" i;
      let name = Option.value ~default:(Printf.sprintf "point %d" i) commit in
      match J.member "runs" p with
      | Some (J.Obj (_ :: _ as runs)) ->
          List.iter
            (fun (w, run) ->
              Alcotest.(check (option bool))
                (Printf.sprintf "%s %s: correct" name w) (Some true)
                (match J.member "correct" run with
                | Some (J.Bool b) -> Some b
                | _ -> None);
              Alcotest.(check (option int))
                (Printf.sprintf "%s %s: failed" name w) (Some 0)
                (Option.bind (J.member "failed" run) J.to_int))
            runs
      | _ -> Alcotest.failf "BENCH_fpbench.json: %s has no runs" name)
    points

(* Every counter and histogram key in the committed report is named in
   docs/OBSERVABILITY.md (copied beside the test executable by
   test/dune).  The catalogue is the backquoted names in the first
   column of each table headed [name]; in a pattern, [<x>] matches one
   dotted component (or the rest of one, as in [level<i>_accesses]) and
   [*] matches any suffix. *)
let catalogue_patterns doc =
  let first_cell line =
    match String.split_on_char '|' line with _ :: c :: _ -> String.trim c | _ -> ""
  in
  let backquoted cell =
    match String.split_on_char '`' cell with
    | _ :: rest -> List.filteri (fun i _ -> i mod 2 = 0) rest
    | [] -> []
  in
  let in_name_table = ref false in
  List.concat_map
    (fun line ->
      if not (String.starts_with ~prefix:"|" line) then (in_name_table := false; [])
      else
        let c = first_cell line in
        if c = "name" then (in_name_table := true; [])
        else if !in_name_table && not (String.starts_with ~prefix:"-" c) then
          backquoted c
        else [])
    (String.split_on_char '\n' doc)

let rec pattern_matches p i k j =
  if i = String.length p then j = String.length k
  else
    match p.[i] with
    | '*' -> true
    | '<' ->
        let close = String.index_from p i '>' in
        let rec component n =
          j + n <= String.length k
          && k.[j + n - 1] <> '.'
          && (pattern_matches p (close + 1) k (j + n) || component (n + 1))
        in
        component 1
    | c -> j < String.length k && k.[j] = c && pattern_matches p (i + 1) k (j + 1)

let test_report_keys_catalogued () =
  let module J = Fpb_obs.Json in
  let read name = In_channel.with_open_bin (root_file name) In_channel.input_all in
  let patterns = catalogue_patterns (read "OBSERVABILITY.md") in
  let keys =
    Option.value ~default:[]
      (Option.bind (J.member "experiments" (J.parse (read "BENCH_results.json"))) J.to_list)
    |> List.concat_map (fun e ->
           List.concat_map
             (fun section ->
               match Option.bind (J.member "metrics" e) (J.member section) with
               | Some (J.Obj kvs) -> List.map fst kvs
               | _ -> [])
             [ "counters"; "histograms" ])
    |> List.sort_uniq compare
  in
  if keys = [] then Alcotest.fail "BENCH_results.json: no metric keys";
  let missing =
    List.filter
      (fun k -> not (List.exists (fun p -> pattern_matches p 0 k 0) patterns))
      keys
  in
  Alcotest.(check (list string)) "keys missing from docs/OBSERVABILITY.md" [] missing

let suite =
  [
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "find: unique prefix" `Quick test_find_prefix;
    Alcotest.test_case "tables well-formed" `Quick test_tables_well_formed;
    Alcotest.test_case "csv" `Quick test_csv_roundtrip;
    Alcotest.test_case "measurement isolation" `Quick test_measure_cycles_isolated;
    Alcotest.test_case "full tiny report round-trips" `Slow test_full_report_roundtrip;
    Alcotest.test_case "crashtest claims" `Slow test_crashtest_claims;
    Alcotest.test_case "recovery oracle is not vacuous" `Quick
      test_oracle_not_vacuous;
    Alcotest.test_case "fpbench trajectory" `Quick test_fpbench_trajectory;
    Alcotest.test_case "report keys catalogued" `Quick test_report_keys_catalogued;
  ]
