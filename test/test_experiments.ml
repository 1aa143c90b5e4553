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

(* The claims `exp batch` makes at Tiny scale: batching at B=8 out-serves
   the singleton discipline on every index, with cross-probe sharing and
   the disk pipeline engaged; root accesses amortize to probes/B; every
   skewed batch speeds up; the batch server pays the size-or-timeout
   latency floor below capacity yet keeps up with the singleton server
   past it. *)
let check_batch_claims (o : Registry.outcome) =
  let c = Fpb_obs.Registry.snapshot o.metrics in
  let get k =
    match List.assoc_opt k c with
    | Some v -> v
    | None -> Alcotest.failf "batch: missing counter %s" k
  in
  let claim what ok = Alcotest.(check bool) ("batch: " ^ what) true ok in
  claim "not aborted" (o.aborted = None);
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
  Alcotest.(check (list string))
    "batch: tables" [ "batch-a"; "batch-b"; "batch-c" ]
    (List.map (fun t -> t.Table.id) o.tables)

(* Every registered experiment runs at Tiny scale, and the resulting
   report serialises to JSON that parses back with all ids present and a
   metrics record per experiment. *)
let test_full_report_roundtrip () =
  let module J = Fpb_obs.Json in
  let outcomes = List.map (Registry.run_entry Scale.Tiny) Registry.all in
  check_batch_claims
    (List.find (fun o -> o.Registry.entry.Registry.id = "batch") outcomes);
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
    exps

let suite =
  [
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "find: unique prefix" `Quick test_find_prefix;
    Alcotest.test_case "tables well-formed" `Quick test_tables_well_formed;
    Alcotest.test_case "csv" `Quick test_csv_roundtrip;
    Alcotest.test_case "measurement isolation" `Quick test_measure_cycles_isolated;
    Alcotest.test_case "full tiny report round-trips" `Slow test_full_report_roundtrip;
  ]
