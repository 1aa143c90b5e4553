(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4) on the simulated substrates, plus Bechamel
   wall-clock microbenchmarks of the core index operations, of the
   simulator's busy-interval timeline, of the durability kernels
   (CRC-32, page diff, log-record framing), of a WAL commit, of the
   cache simulator's charged accesses and of the workload generator's
   draws.

   Usage:
     dune exec bench/main.exe                 # every experiment, quick scale
     dune exec bench/main.exe -- fig10 fig13  # selected experiments
     dune exec bench/main.exe -- --full all   # paper-sized trees
     dune exec bench/main.exe -- --tiny all   # smoke-test sizes (CI)
     dune exec bench/main.exe -- --csv out/   # also write each table as CSV
     dune exec bench/main.exe -- --json F     # machine-readable report to F
     dune exec bench/main.exe -- bechamel     # wall-clock microbenches

   Results (paper vs. measured) are catalogued in EXPERIMENTS.md; the
   --json report schema is docs/OBSERVABILITY.md. *)

open Fpb_experiments

(* Host cost of the two timeline sequences the simulator runs: a
   memory-pipeline slot is [fit] then [add] of a fixed-length slot, a
   shard-latch hold is [free_from] at acquire and [add] (which reports
   an overlap) at release.  [fronts] clients advance round robin from
   staggered start times and the floor is the slowest one, like the
   multi-client driver's dispatches; one front is the single-client
   append-only path. *)
let timeline_test ~name ~fronts ~latch =
  let open Bechamel in
  let module Tl = Fpb_simmem.Timeline in
  let now = Array.init fronts (fun i -> i * 1_000) in
  let floor () =
    let m = ref max_int in
    Array.iter (fun (t : int) -> if t < !m then m := t) now;
    !m
  in
  let tl = Tl.create ~floor in
  let k = ref 0 in
  Test.make ~name
    (Staged.stage (fun () ->
         let i = !k mod fronts in
         incr k;
         let s =
           if latch then Tl.free_from tl now.(i)
           else Tl.fit tl ~at:now.(i) ~len:10
         in
         ignore (Tl.add tl s (s + 10) : bool);
         now.(i) <- s + 37))

(* Host cost of the durability kernels every logged update and every
   page read or write-back runs: the CRC-32 of a 4 KB page and of the
   20 B and 40 B spans short log records checksum (one folded lane plus
   a table-loop tail), the diff of a 4 KB page against its shadow copy
   when one word mid-page changed, and the framing of a delta record and
   of a 4 KB image record. *)
let kernel_tests () =
  let open Bechamel in
  let module Wal = Fpb_wal.Wal in
  let page = Bytes.init 4096 (fun i -> Char.chr (i * 31 land 0xff)) in
  let dirty = Bytes.copy page in
  Bytes.set_int64_le dirty 2048 0x5a5a5a5aL;
  let delta =
    Wal.Delta { lsn = 1; page = 7; off = 2048; bytes = Bytes.sub dirty 2048 8 }
  in
  let image = Wal.Image { lsn = 1; page = 7; img = page } in
  [
    Test.make ~name:"crc32-4k"
      (Staged.stage (fun () -> ignore (Fpb_storage.Checksum.bytes page : int)));
    Test.make ~name:"crc32-20b"
      (Staged.stage (fun () ->
           ignore (Fpb_storage.Checksum.update 0 page 5 20 : int)));
    Test.make ~name:"crc32-40b"
      (Staged.stage (fun () ->
           ignore (Fpb_storage.Checksum.update 0 page 5 40 : int)));
    Test.make ~name:"diff-span-4k"
      (Staged.stage (fun () ->
           ignore (Wal.diff_span page dirty : (int * int) option)));
    Test.make ~name:"encode-delta"
      (Staged.stage (fun () -> ignore (Wal.Codec.encode delta : string)));
    Test.make ~name:"encode-image-4k"
      (Staged.stage (fun () -> ignore (Wal.Codec.encode image : string)));
  ]

(* Host cost of one commit on the write path of a disk-first tree: a
   word of one resident 4 KB page updated through [Mem], then committed
   with a 3-int meta through a 64 KB group-commit WAL with a shadow
   checkpoint attached (the pre-log observer, a delta record, a commit
   record, and a share of the group flushes).  A flip every 50 000
   commits bounds the log, as the fuzzy checkpoints of a run would. *)
let wal_tests () =
  let open Bechamel in
  let module S = Fpb_storage in
  let sim = Fpb_simmem.Sim.create () in
  let store = S.Page_store.create ~page_size:4096 ~n_disks:2 in
  let disks =
    S.Disk_model.create
      ~transfer_ns:(S.Disk_model.transfer_ns_of_page_size 4096)
      ~n_disks:2 sim.Fpb_simmem.Sim.clock
  in
  let pool = S.Buffer_pool.create ~capacity:8 sim store disks in
  let page, _ = S.Buffer_pool.create_page pool in
  S.Buffer_pool.unpin pool page;
  let meta = [ 1; 2; 3 ] in
  let wal = Fpb_wal.Wal.attach ~group_commit_bytes:65536 ~meta pool in
  let shadow = Fpb_snapshot.Shadow.attach ~meta wal pool in
  let op = ref 0 in
  [
    Test.make ~name:"commit-delta"
      (Staged.stage (fun () ->
           incr op;
           let r = S.Buffer_pool.get pool page in
           Fpb_simmem.Mem.write_i32 sim r (4 * (!op land 511)) !op;
           S.Buffer_pool.mark_dirty pool page;
           S.Buffer_pool.unpin pool page;
           Fpb_wal.Wal.commit wal ~op:!op ~meta;
           if !op mod 50_000 = 0 then
             Fpb_snapshot.Shadow.checkpoint_sync shadow ~meta));
  ]

(* Host cost of the cache simulator's per-access path, through the
   charged [Mem] accessors the indexes use.  Lines one L1 stride (32 KB)
   apart share an L1 set but not an L2 line, so cycling three of them
   through the 2-way set hits L2 every time; lines one L2 size (2 MB)
   apart also share the direct-mapped L2 line, so three of them miss to
   memory every time.  The node test prefetches an 8-line node and
   touches each line, cycling over 4 MB of nodes so every one is cold
   again when its turn comes.  The leaf tests store a 47-entry leaf's
   keys and values: through [Mem.write_pairs], and through the
   [write_i32] per key and per value it replaced. *)
let simmem_tests () =
  let open Bechamel in
  let module Mem = Fpb_simmem.Mem in
  let cfg = Fpb_simmem.Config.default in
  let line = cfg.Fpb_simmem.Config.line_size in
  let bytes = Bytes.make line '\000' in
  let cycle ~stride n =
    let sim = Fpb_simmem.Sim.create () in
    let regions = Array.init n (fun i -> Mem.make ~bytes ~base:(i * stride)) in
    let k = ref 0 in
    Staged.stage (fun () ->
        let r = regions.(!k) in
        k := if !k + 1 = n then 0 else !k + 1;
        ignore (Mem.read_i32 sim r 0 : int))
  in
  let l1_stride = cfg.l1_size / cfg.l1_assoc in
  let node = 8 * line in
  let nodes =
    let sim = Fpb_simmem.Sim.create () in
    let bytes = Bytes.make node '\000' in
    let n = 2 * cfg.l2_size / node in
    let regions = Array.init n (fun i -> Mem.make ~bytes ~base:(i * node)) in
    let k = ref 0 in
    Staged.stage (fun () ->
        let r = regions.(!k) in
        k := if !k + 1 = n then 0 else !k + 1;
        Mem.prefetch sim r ~off:0 ~len:node;
        for l = 0 to 7 do
          ignore (Mem.read_i32 sim r (l * line) : int)
        done)
  in
  let frame =
    let sim = Fpb_simmem.Sim.create () in
    Staged.stage (fun () ->
        Fpb_simmem.Cache.invalidate_range sim.Fpb_simmem.Sim.cache 0 4096)
  in
  (* a bulkloaded 47-entry leaf: keys, then values, L1-resident *)
  let leaf fill =
    let sim = Fpb_simmem.Sim.create () in
    let r = Mem.make ~bytes:(Bytes.make 512 '\000') ~base:0 in
    let pairs = Array.init 47 (fun i -> (2 * i, i)) in
    Staged.stage (fun () -> fill sim r pairs)
  in
  let write_pairs sim r pairs = Mem.write_pairs sim r ~keys:8 ~values:196 pairs 0 47 in
  let write_i32s sim r pairs =
    for j = 0 to 46 do
      let k, v = pairs.(j) in
      Mem.write_i32 sim r (8 + (4 * j)) k;
      Mem.write_i32 sim r (196 + (4 * j)) v
    done
  in
  [
    Test.make ~name:"read-i32-l1-hit" (cycle ~stride:0 1);
    Test.make ~name:"read-i32-l2-hit" (cycle ~stride:l1_stride 3);
    Test.make ~name:"read-i32-mem-miss" (cycle ~stride:cfg.l2_size 3);
    Test.make ~name:"prefetch-node-8-lines" nodes;
    Test.make ~name:"invalidate-4k-frame" frame;
    Test.make ~name:"write-pairs-47" (leaf write_pairs);
    Test.make ~name:"write-i32-pairs-47" (leaf write_i32s);
  ]

(* Host cost of the set-up draws: one [Prng.int], one [Mix.next] of
   read-only C under uniform keys and of 50/50 A under scrambled
   Zipfian over 100K loaded keys, and [Keygen.bulk_pairs] per key
   (a run draws 1,024 keys). *)
let workload_tests () =
  let open Bechamel in
  let module W = Fpb_workload in
  let rng = W.Prng.create 5 in
  let pairs = W.Keygen.bulk_pairs rng 100_000 in
  let mix name ?dist m =
    let g = W.Mix.generator ?dist ~seed:7 m pairs in
    Test.make ~name (Staged.stage (fun () -> ignore (W.Mix.next g : W.Mix.action)))
  in
  let per_draw =
    [
      Test.make ~name:"prng-int"
        (Staged.stage (fun () -> ignore (W.Prng.int rng 100 : int)));
      mix "mix-next-uniform-c" ~dist:W.Keygen.Uniform W.Mix.c;
      mix "mix-next-zipf-a" W.Mix.a;
    ]
  in
  let per_key =
    Test.make ~name:"bulk-pairs-per-key"
      (Staged.stage (fun () ->
           ignore (W.Keygen.bulk_pairs rng 1024 : (int * int) array)))
  in
  (per_draw, per_key)

(* OLS ns/run estimate of every test in [tests], divided by [per]
   (the operations in one run), printed and returned. *)
let measure ?(per = 1) tests =
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) results [] in
  List.filter_map
    (fun name ->
      match Analyze.OLS.estimates (Hashtbl.find results name) with
      | Some (est :: _) ->
          let est = est /. float_of_int per in
          Printf.printf "%-50s %12.1f ns/op\n%!" name est;
          Some (name, est)
      | _ ->
          Printf.printf "%-50s (no estimate)\n%!" name;
          None)
    (List.sort compare names)

let run_bechamel () =
  (* Wall-clock cost of the real implementations (not simulated time):
     one Test.make per operation and index over a 100K-key tree, the
     timeline sequences of the memory pipeline and the shard latch, each
     append-only and interleaved, the durability kernels, a WAL commit,
     the cache simulator's charged accesses and the workload draws.  The
     timeline, kernel, wal, simmem and workload groups run first, before
     the trees fill the heap: GC work on that heap would otherwise swamp
     primitives this cheap. *)
  let open Bechamel in
  let timeline =
    measure
      (Test.make_grouped ~name:"timeline"
         [
           timeline_test ~name:"pipeline-append" ~fronts:1 ~latch:false;
           timeline_test ~name:"pipeline-interleaved-4" ~fronts:4 ~latch:false;
           timeline_test ~name:"latch-append" ~fronts:1 ~latch:true;
           timeline_test ~name:"latch-interleaved-4" ~fronts:4 ~latch:true;
         ])
  in
  let kernels = measure (Test.make_grouped ~name:"kernels" (kernel_tests ())) in
  let wal = measure (Test.make_grouped ~name:"wal" (wal_tests ())) in
  let simmem = measure (Test.make_grouped ~name:"simmem" (simmem_tests ())) in
  let workload =
    let per_draw, per_key = workload_tests () in
    measure (Test.make_grouped ~name:"workload" per_draw)
    @ measure ~per:1024 (Test.make_grouped ~name:"workload" [ per_key ])
  in
  let make_setup kind =
    let sys = Setup.make ~page_size:16384 () in
    let rng = Fpb_workload.Prng.create 99 in
    let pairs = Fpb_workload.Keygen.bulk_pairs rng 100_000 in
    let idx = Run.build sys kind pairs ~fill:0.9 in
    let probes = Fpb_workload.Keygen.probes rng pairs 1 in
    (idx, probes.(0), rng)
  in
  let search_test kind =
    let idx, probe, _ = make_setup kind in
    Test.make
      ~name:(Printf.sprintf "search/%s" (Setup.kind_name kind))
      (Staged.stage (fun () ->
           ignore (Fpb_btree_common.Index_sig.search idx probe)))
  in
  let insert_test kind =
    let idx, _, rng = make_setup kind in
    Test.make
      ~name:(Printf.sprintf "insert/%s" (Setup.kind_name kind))
      (Staged.stage (fun () ->
           let k = Fpb_workload.Prng.int rng 0x3fffffff in
           ignore (Fpb_btree_common.Index_sig.insert idx k k)))
  in
  let scan_test kind =
    let idx, probe, _ = make_setup kind in
    Test.make
      ~name:(Printf.sprintf "scan/%s" (Setup.kind_name kind))
      (Staged.stage (fun () ->
           ignore
             (Fpb_btree_common.Index_sig.range_scan idx ~start_key:probe
                ~end_key:(probe + 20_000) (fun _ _ -> ()))))
  in
  let fpbtree =
    measure
      (Test.make_grouped ~name:"fpbtree"
         [
           Test.make_grouped ~name:"search" (List.map search_test Setup.all_kinds);
           Test.make_grouped ~name:"insert" (List.map insert_test Setup.all_kinds);
           Test.make_grouped ~name:"scan" (List.map scan_test Setup.all_kinds);
         ])
  in
  fpbtree @ timeline @ kernels @ wal @ simmem @ workload

(* What a positional argument names: every experiment and the bechamel
   group ([all]), the bechamel group alone, or one experiment. *)
let target =
  let open Cmdliner in
  let parse = function
    | "all" -> Ok `All
    | "bechamel" -> Ok `Bechamel
    | id -> Result.map (fun e -> `Exp e) (Arg.conv_parser Fpb_cli.experiment id)
  in
  let print ppf = function
    | `All -> Format.pp_print_string ppf "all"
    | `Bechamel -> Format.pp_print_string ppf "bechamel"
    | `Exp e -> Arg.conv_printer Fpb_cli.experiment ppf e
  in
  Arg.conv (parse, print)

let run scale json_path csv_dir targets =
  (match csv_dir with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | _ -> ());
  let named p = List.exists p targets in
  let everything = targets = [] || named (function `All -> true | _ -> false) in
  let ppf = Format.std_formatter in
  Format.printf "fpB+-Tree benchmark harness (%s scale)@." (Scale.to_string scale);
  let exp_wanted e =
    everything
    || named (function `Exp x -> x.Registry.id = e.Registry.id | _ -> false)
  in
  let outcomes =
    List.filter_map
      (fun e ->
        if not (exp_wanted e) then None
        else begin
          let o = Registry.run_and_print ppf scale e in
          (match csv_dir with
          | Some dir ->
              List.iter
                (fun t ->
                  let path = Filename.concat dir (t.Table.id ^ ".csv") in
                  Out_channel.with_open_text path (fun oc ->
                      Out_channel.output_string oc (Table.csv t)))
                o.Registry.tables
          | None -> ());
          Some o
        end)
      Registry.all
  in
  let bechamel =
    if everything || named (function `Bechamel -> true | _ -> false) then begin
      Format.printf
        "@.== bechamel: wall-clock microbenchmarks (real time, not simulated) ==@.";
      run_bechamel ()
    end
    else []
  in
  match json_path with
  | None -> ()
  | Some path ->
      Report.write path (Report.make ~scale ~bechamel outcomes);
      if path <> "-" then Format.printf "@.wrote %s@." path

let () =
  let open Cmdliner in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table as CSV into $(docv)")
  in
  let targets =
    Arg.(
      value & pos_all target []
      & info [] ~docv:"ID"
          ~doc:
            "Experiments to run, by id or unique id prefix; $(b,bechamel) for \
             the wall-clock microbenchmarks; $(b,all) (the default) for \
             every experiment and the microbenchmarks")
  in
  let info =
    Cmd.info "bench" ~doc:"Regenerate the paper's tables and figures"
  in
  exit
    (Cmd.eval
       (Cmd.v info Term.(const run $ Fpb_cli.scale $ Fpb_cli.json $ csv $ targets)))
