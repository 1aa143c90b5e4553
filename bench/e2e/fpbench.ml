(* fpbench: the repository benchmark (see README.md).

     fpbench run --workload NAME --seed S [--seconds N] [--json OUT] [--trace DIR]
     fpbench run --all --seed S [--seconds N] [--json DIR] [--trace DIR]
     fpbench compare A_DIR B_DIR
     fpbench selftest

   [run] prints every metric as [name value unit], then, as its last
   line, a one-line JSON summary holding the metrics BENCHMARK.json
   lists: its end-to-end metrics, or with [--trace] its per-layer ones.
   A wrong output prints the first bad op and exits 1. *)

module Json = Fpb_obs.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("fpbench: " ^ s); exit 2) fmt

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> die "%s" e
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s

let parse_file path =
  match Json.parse (read_file path) with
  | v -> v
  | exception Json.Parse_error e -> die "%s: %s" path e

let member k v = Option.value ~default:Json.Null (Json.member k v)
let str k v = Option.value ~default:"" (Json.to_str (member k v))
let list k v = Option.value ~default:[] (Json.to_list (member k v))

(* Read from the working directory, the repository root. *)
let bench_file = "BENCHMARK.json"

(* (name, better, bound) of one BENCHMARK.json metric list. *)
let spec_metrics bench key =
  List.map
    (fun x ->
      ( str "name" x,
        str "better" x,
        Option.value ~default:0. (Json.to_float (member "bound" x)) ))
    (list key bench)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---------------------------------------------------------------- *)

type run_opts = {
  mutable workload : string option;
  mutable all : bool;
  mutable seed : int option;
  mutable seconds : int;
  mutable json : string option;
  mutable trace : string option;
}

let run_one o (spec : Spec.t) seed =
  let bench = parse_file bench_file in
  let names = List.map (fun (n, _, _) -> n) in
  let r, keys =
    match o.trace with
    | None ->
        (Runner.run ~spec ~seed ~seconds:o.seconds, names (spec_metrics bench "end_to_end"))
    | Some dir ->
        mkdir_p dir;
        ( Runner.run_traced ~spec ~seed ~seconds:o.seconds ~trace_dir:(Some dir),
          names (spec_metrics bench "per_layer") )
  in
  Printf.printf "# %s seed=%d seconds=%d%s\n" spec.name seed o.seconds
    (if r.traced then " traced" else "");
  List.iter
    (fun (x : Runner.metric) ->
      Printf.printf "%-40s %.6g %s%s\n" x.name x.value x.unit
        (match x.samples with Some n -> Printf.sprintf " (n=%d)" n | None -> ""))
    r.metrics;
  Option.iter (fun p -> write_file p (Json.to_string (Runner.to_json r))) o.json;
  Option.iter (fun e -> prerr_endline ("fpbench: WRONG OUTPUT: " ^ e)) r.error;
  print_endline (Json.to_string ~minify:true (Runner.summary_json r keys));
  if r.error <> None then exit 1

(* Each workload in its own process, so [heap_mb] is per workload. *)
let run_all o seed =
  let code = ref 0 in
  List.iter
    (fun (spec : Spec.t) ->
      let args =
        [ "run"; "--workload"; spec.name; "--seed"; string_of_int seed; "--seconds";
          string_of_int o.seconds ]
        @ (match o.json with
          | Some dir ->
              mkdir_p dir;
              [ "--json"; Filename.concat dir (spec.name ^ ".json") ]
          | None -> [])
        @ match o.trace with Some d -> [ "--trace"; d ] | None -> []
      in
      let pid =
        Unix.create_process Sys.executable_name
          (Array.of_list (Sys.executable_name :: args))
          Unix.stdin Unix.stdout Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> code := 1)
    Spec.all;
  exit !code

let run args =
  let o =
    {
      workload = None;
      all = false;
      seed = None;
      seconds = 10;
      json = None;
      trace = None;
    }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: tl -> o.workload <- Some w; go tl
    | "--all" :: tl -> o.all <- true; go tl
    | "--seed" :: s :: tl -> o.seed <- int_of_string_opt s; go tl
    | "--seconds" :: s :: tl ->
        (match int_of_string_opt s with
        | Some n when n > 0 -> o.seconds <- n
        | _ -> die "--seconds wants a positive integer");
        go tl
    | "--json" :: p :: tl -> o.json <- Some p; go tl
    | "--trace" :: d :: tl -> o.trace <- Some d; go tl
    | a :: _ -> die "run: unexpected argument %s" a
  in
  go args;
  let seed = match o.seed with Some s -> s | None -> die "run: --seed S is required" in
  if o.all then run_all o seed
  else
    match o.workload with
    | None -> die "run: --workload NAME or --all"
    | Some w -> (
        match Spec.find w with
        | Some spec -> run_one o spec seed
        | None ->
            die "unknown workload %s (one of: %s)" w
              (String.concat ", " (List.map (fun (s : Spec.t) -> s.name) Spec.all)))

(* ---------------------------------------------------------------- *)
(* compare                                                           *)

(* Python's statistics.quantiles(data, n=4) (exclusive method). *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* (workload, metric) -> values of every untraced result in [dir]. *)
let load dir =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".json" then begin
        let r = parse_file (Filename.concat dir f) in
        if Json.member "traced" r <> Some (Json.Bool true) then
          match member "metrics" r with
          | Json.Obj ms ->
              List.iter
                (fun (name, v) ->
                  match Json.to_float (member "value" v) with
                  | Some x ->
                      let key = (str "workload" r, name) in
                      Hashtbl.replace tbl key
                        (x :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
                  | None -> ())
                ms
          | _ -> ()
      end)
    (try Sys.readdir dir with Sys_error e -> die "%s" e);
  tbl

let compare_dirs args =
  let a_dir, b_dir =
    match args with [ a; b ] -> (a, b) | _ -> die "usage: fpbench compare A_DIR B_DIR"
  in
  let metrics = spec_metrics (parse_file bench_file) "end_to_end" in
  let a = load a_dir and b = load b_dir in
  let worse = ref 0 in
  let q (q1, m, q3) = Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3 in
  Printf.printf "%-16s %-16s %-36s %-36s %8s %7s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "spread" "verdict";
  List.iter
    (fun (spec : Spec.t) ->
      List.iter
        (fun (name, better, bound) ->
          match
            (Hashtbl.find_opt a (spec.name, name), Hashtbl.find_opt b (spec.name, name))
          with
          | Some va, Some vb ->
              let ((a1, am, a3) as qa) = quartiles va and ((b1, bm, b3) as qb) = quartiles vb in
              let scale = Float.max (Float.abs am) 1e-12 in
              let change = (bm -. am) /. scale in
              let gain = if better = "lower" then -.change else change in
              let spread = Float.max (a3 -. a1) (b3 -. b1) /. scale in
              let lo = List.fold_left Float.min infinity and hi = List.fold_left Float.max neg_infinity in
              let b_wins_all = if better = "lower" then hi vb < lo va else lo vb > hi va in
              let verdict =
                if spread > bound then if b_wins_all then "better" else "unresolved"
                else if gain < -.bound then "worse"
                else if gain > bound then "better"
                else "unchanged"
              in
              if verdict = "worse" then incr worse;
              Printf.printf "%-16s %-16s %-36s %-36s %+7.2f%% %6.2f%%  %s (bound %.0f%%)\n"
                spec.name name (q qa) (q qb) (100. *. change) (100. *. spread) verdict
                (100. *. bound)
          | _ -> ())
        metrics)
    Spec.all;
  if !worse > 0 then exit 1

(* ---------------------------------------------------------------- *)
(* selftest                                                          *)

(* Everything simulated repeats exactly for a seed. *)
let deterministic (x : Runner.metric) =
  List.exists (fun p -> String.starts_with ~prefix:p x.name) [ "sim_"; "ref_" ]
  || x.name = "space_amp" || x.name = "max_ok_kops"

(* Every workload at a 1 s budget: twice untraced (the oracle passes and
   every simulated metric repeats) and once traced (identical simulated
   results); BENCHMARK.json names exactly what fpbench emits. *)
let selftest () =
  let b = parse_file bench_file in
  let fails = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> incr fails; print_endline ("FAIL " ^ s)) fmt in
  let names key = List.map (fun (n, _, _) -> n) (spec_metrics b key) in
  let listed = List.map (fun w -> (str "name" w, str "why" w)) (list "workloads" b) in
  let ours = List.map (fun (s : Spec.t) -> (s.name, s.why)) Spec.all in
  if List.sort compare listed <> List.sort compare ours then
    fail "%s lists other workloads (or reasons) than spec.ml" bench_file;
  List.iter
    (fun (spec : Spec.t) ->
      let before = !fails in
      let run () = Runner.run ~spec ~seed:1 ~seconds:1 in
      let r1 = run () and r2 = run () in
      let t = Runner.run_traced ~spec ~seed:1 ~seconds:1 ~trace_dir:None in
      List.iter
        (fun (r : Runner.result) -> Option.iter (fail "%s: %s" spec.name) r.error)
        [ r1; r2; t ];
      let det (r : Runner.result) =
        List.filter_map
          (fun (x : Runner.metric) -> if deterministic x then Some (x.name, x.value) else None)
          r.metrics
      in
      if det r1 <> det r2 then fail "%s: simulated metrics differ between runs" spec.name;
      let emitted (r : Runner.result) = List.map (fun (x : Runner.metric) -> x.name) r.metrics in
      List.iter
        (fun n -> if not (List.mem n (emitted r1)) then fail "%s: no metric %s" spec.name n)
        (names "end_to_end");
      if List.sort compare (emitted t) <> List.sort compare (names "per_layer") then
        fail "%s: per-layer metrics differ from %s" spec.name bench_file;
      Printf.printf "%s %s\n%!" (if !fails = before then "ok" else "FAILED") spec.name)
    Spec.all;
  if !fails > 0 then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run args
  | _ :: "compare" :: args -> compare_dirs args
  | [ _; "selftest" ] -> selftest ()
  | _ ->
      prerr_endline
        "usage: fpbench run (--workload NAME | --all) --seed S [--seconds N] [--json \
         OUT] [--trace DIR]\n\
        \       fpbench compare A_DIR B_DIR\n\
        \       fpbench selftest";
      exit 2
