(* The telemetry layer: JSON emitter/parser round-trips, histogram
   percentiles against a brute-force sorted-array oracle, counter
   reset/snapshot semantics, registry find-or-create, trace capacity. *)

module J = Fpb_obs.Json
module Counter = Fpb_obs.Counter
module Histogram = Fpb_obs.Histogram
module Trace = Fpb_obs.Trace
module Registry = Fpb_obs.Registry

(* --- JSON ------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("null", J.Null);
        ("bool", J.Bool true);
        ("int", J.Int (-42));
        ("float", J.Float 1.5);
        ("str", J.Str "a \"quoted\" line\nwith\tcontrol \x01 bytes");
        ("list", J.List [ J.Int 1; J.Str "two"; J.List []; J.Obj [] ]);
      ]
  in
  List.iter
    (fun minify ->
      let s = J.to_string ~minify v in
      if J.parse s <> v then Alcotest.failf "round-trip failed on %s" s)
    [ true; false ]

let test_json_numbers () =
  (* ints stay ints; anything fractional or exponential parses as float *)
  Alcotest.(check bool) "int" true (J.parse "17" = J.Int 17);
  Alcotest.(check bool) "neg" true (J.parse "-3" = J.Int (-3));
  Alcotest.(check bool) "frac" true (J.parse "2.5" = J.Float 2.5);
  Alcotest.(check bool) "exp" true (J.parse "1e3" = J.Float 1000.);
  Alcotest.(check bool)
    "unicode escape" true
    (J.parse {|"Aé"|} = J.Str "A\xc3\xa9")

let test_json_errors () =
  List.iter
    (fun s ->
      match J.parse s with
      | exception J.Parse_error _ -> ()
      | v -> Alcotest.failf "%S parsed as %s" s (J.to_string ~minify:true v))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

(* --- Counters --------------------------------------------------------- *)

let test_counter_semantics () =
  let c = Counter.make "test.events" in
  Alcotest.(check int) "starts at zero" 0 (Counter.value c);
  Counter.add c 5;
  Counter.incr c;
  Alcotest.(check int) "accumulates" 6 (Counter.value c);
  Alcotest.(check bool) "kv" true (Counter.kv c = ("test.events", 6));
  Counter.reset c;
  Alcotest.(check int) "reset" 0 (Counter.value c);
  Counter.add c (-2);
  Alcotest.(check int) "negative add (undo)" (-2) (Counter.value c)

(* --- Histograms vs. brute-force oracle -------------------------------- *)

(* Exact order statistic on the sorted sample, nearest-rank definition
   matching Histogram.percentile's contract at the bucket level. *)
let oracle_percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else if p <= 0. then sorted.(0)
  else if p >= 100. then sorted.(n - 1)
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let check_against_oracle name values =
  let h = Histogram.make name in
  Array.iter (Histogram.record h) values;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let n = Array.length values in
  Alcotest.(check int) (name ^ " count") n (Histogram.count h);
  Alcotest.(check int)
    (name ^ " sum")
    (Array.fold_left ( + ) 0 values)
    (Histogram.sum h);
  if n > 0 then begin
    Alcotest.(check int) (name ^ " min") sorted.(0) (Histogram.min_value h);
    Alcotest.(check int) (name ^ " max") sorted.(n - 1) (Histogram.max_value h)
  end;
  List.iter
    (fun p ->
      let est = Histogram.percentile h p in
      let exact = oracle_percentile sorted p in
      (* log-linear buckets with 16 sub-buckets: within 1/16 relative
         error (and exact at the extremes) *)
      let tol = max 1 (exact / 16) in
      if abs (est - exact) > tol then
        Alcotest.failf "%s p%.0f: estimated %d, exact %d (tol %d)" name p est
          exact tol)
    [ 0.; 25.; 50.; 75.; 90.; 95.; 99.; 100. ]

let test_histogram_oracle () =
  check_against_oracle "small-exact" [| 0; 1; 2; 3; 4; 5; 15 |];
  check_against_oracle "uniform"
    (Array.init 1000 (fun i -> (i * 7919) mod 10_000));
  check_against_oracle "heavy-tail"
    (Array.init 500 (fun i -> if i mod 50 = 0 then 1_000_000 + i else i mod 100));
  check_against_oracle "constant" (Array.make 64 777);
  check_against_oracle "wide"
    (Array.init 2000 (fun i -> (i * i * 31) mod 50_000_000))

let test_histogram_empty_and_reset () =
  let h = Histogram.make "test.empty" in
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  Alcotest.(check int) "empty p50" 0 (Histogram.percentile h 50.);
  Histogram.record h 123;
  Histogram.reset h;
  Alcotest.(check int) "reset count" 0 (Histogram.count h);
  Alcotest.(check int) "reset max" 0 (Histogram.max_value h);
  Histogram.record h (-5);
  Alcotest.(check int) "negative clamped" 0 (Histogram.max_value h);
  match Histogram.percentile h 101. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p101 accepted"

(* --- Registry --------------------------------------------------------- *)

let test_registry_semantics () =
  let r = Registry.create () in
  Registry.add r "b.count" 2;
  Registry.add r "a.count" 1;
  Registry.add r "b.count" 3;
  Alcotest.(check bool)
    "find-or-create accumulates, snapshot sorted" true
    (Registry.snapshot r = [ ("a.count", 1); ("b.count", 5) ]);
  Alcotest.(check bool)
    "same counter instance" true
    (Registry.counter r "a.count" == Registry.counter r "a.count");
  Registry.observe r "lat" 10;
  Registry.observe r "lat" 20;
  Alcotest.(check int) "histogram recorded" 2
    (Histogram.count (Registry.histogram r "lat"));
  Registry.reset r;
  Alcotest.(check bool)
    "reset keeps instruments at zero" true
    (Registry.snapshot r = [ ("a.count", 0); ("b.count", 0) ]);
  Alcotest.(check int) "reset histogram" 0
    (Histogram.count (Registry.histogram r "lat"))

let test_registry_json () =
  let r = Registry.create () in
  Registry.add r "x.count" 7;
  Registry.observe r "y_ns" 100;
  let j = J.parse (J.to_string (Registry.to_json r)) in
  let counter =
    Option.bind (J.member "counters" j) (J.member "x.count")
    |> Fun.flip Option.bind J.to_int
  in
  Alcotest.(check (option int)) "counter in json" (Some 7) counter;
  let p50 =
    Option.bind (J.member "histograms" j) (J.member "y_ns")
    |> Fun.flip Option.bind (J.member "p50")
    |> Fun.flip Option.bind J.to_int
  in
  Alcotest.(check (option int)) "histogram p50 in json" (Some 100) p50

(* --- Traces ----------------------------------------------------------- *)

let test_trace_capacity () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.emit tr "ev" [ ("i", J.Int i) ]
  done;
  Alcotest.(check int) "length bounded" 4 (Trace.length tr);
  Alcotest.(check int) "dropped counted" 6 (Trace.dropped tr);
  (match Trace.events tr with
  | { Trace.ev_attrs = [ ("i", J.Int 7) ]; _ } :: _ -> ()
  | _ -> Alcotest.fail "oldest retained event should be i=7");
  Trace.clear tr;
  Alcotest.(check int) "clear" 0 (Trace.length tr)

(* Index instrumentation: a trace sink attached via the common interface
   receives one node_access event per level on every search, and the
   per-level counters agree. *)
let test_index_trace_events () =
  let open Fpb_btree_common in
  let sys = Fpb_experiments.Setup.make ~page_size:4096 () in
  List.iter
    (fun kind ->
      let idx = Fpb_experiments.Setup.make_index kind sys.Fpb_experiments.Setup.pool in
      let pairs = Array.init 20_000 (fun i -> (2 * i, i)) in
      Index_sig.bulkload idx pairs ~fill:0.8;
      let tr = Trace.create () in
      Index_sig.set_trace idx (Some tr);
      Index_sig.reset_level_accesses idx;
      let searches = 5 in
      for i = 1 to searches do
        ignore (Index_sig.search idx (2 * i * 1000))
      done;
      Index_sig.set_trace idx None;
      let name = Index_sig.name idx in
      let height = Index_sig.height idx in
      Alcotest.(check int)
        (name ^ ": one event per level per search")
        (searches * height) (Trace.length tr);
      let levels = Index_sig.level_accesses idx in
      Alcotest.(check int)
        (name ^ ": level counters sized to height")
        height (Array.length levels);
      Alcotest.(check int)
        (name ^ ": root accesses")
        searches levels.(0);
      List.iter
        (fun ev ->
          if ev.Trace.ev_name <> "node_access" then
            Alcotest.failf "%s: unexpected event %s" name ev.Trace.ev_name;
          match List.assoc_opt "level" ev.Trace.ev_attrs with
          | Some (J.Int l) when l >= 1 && l <= height -> ()
          | _ -> Alcotest.failf "%s: bad level attr" name)
        (Trace.events tr);
      (* A batch emits one event per unique node per wave, exactly what
         the level counters count. *)
      Trace.clear tr;
      Index_sig.reset_level_accesses idx;
      Index_sig.set_trace idx (Some tr);
      ignore
        (Index_sig.search_batch idx (Array.init 48 (fun i -> i * i * 17 mod 40_000)));
      Index_sig.set_trace idx None;
      Alcotest.(check int)
        (name ^ ": one event per unique node per wave")
        (Array.fold_left ( + ) 0 (Index_sig.level_accesses idx))
        (Trace.length tr))
    Fpb_experiments.Setup.all_kinds

(* --- End-to-end: one experiment through the report -------------------- *)

let test_report_roundtrip () =
  let e = Option.get (Fpb_experiments.Registry.find "table1") in
  let o = Fpb_experiments.Registry.run_entry Fpb_experiments.Scale.Tiny e in
  let json =
    Fpb_experiments.Report.make ~scale:Fpb_experiments.Scale.Tiny
      ~timestamp:"1970-01-01T00:00:00Z" [ o ]
  in
  let parsed = J.parse (J.to_string json) in
  let ids =
    Option.bind (J.member "experiments" parsed) J.to_list
    |> Option.value ~default:[]
    |> List.filter_map (fun e ->
           Option.bind (J.member "id" e) J.to_str)
  in
  Alcotest.(check (list string)) "experiment id present" [ "table1" ] ids;
  Alcotest.(check (option string))
    "scale recorded" (Some "tiny")
    (Option.bind (J.member "run" parsed) (J.member "scale")
    |> Fun.flip Option.bind J.to_str)

let suite =
  [
    Alcotest.test_case "json: round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: number parsing" `Quick test_json_numbers;
    Alcotest.test_case "json: malformed inputs" `Quick test_json_errors;
    Alcotest.test_case "counter: semantics" `Quick test_counter_semantics;
    Alcotest.test_case "histogram: vs sorted-array oracle" `Quick
      test_histogram_oracle;
    Alcotest.test_case "histogram: empty/reset/clamp" `Quick
      test_histogram_empty_and_reset;
    Alcotest.test_case "registry: find-or-create/reset" `Quick
      test_registry_semantics;
    Alcotest.test_case "registry: json shape" `Quick test_registry_json;
    Alcotest.test_case "trace: capacity and drops" `Quick test_trace_capacity;
    Alcotest.test_case "trace: index node_access events" `Quick
      test_index_trace_events;
    Alcotest.test_case "report: run one experiment, parse back" `Quick
      test_report_roundtrip;
  ]
