(* Media-failure resilience: CRC-32 codec, page checksum headers,
   retry/backoff accounting on the demand-read path, detection without a
   repair source, and the scrub + WAL-repair property (random byte flips
   in committed pages are healed and the key set survives) over all four
   index structures. *)

open Fpb_simmem
open Fpb_storage
open Fpb_btree_common
module X = Fpb_experiments

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- CRC-32 codec --- *)

let test_crc_vectors () =
  (* The standard check value for the reflected CRC-32 polynomial. *)
  check_int "123456789" 0xCBF43926 (Checksum.string "123456789");
  check_int "empty" 0 (Checksum.string "");
  check_bool "bytes = string" true
    (Checksum.bytes (Bytes.of_string "fractal") = Checksum.string "fractal")

let test_crc_incremental () =
  let b = Bytes.init 300 (fun i -> Char.chr (i * 7 land 0xff)) in
  let whole = Checksum.bytes b in
  (* Seeding [update] with a previous digest must equal one digest of the
     concatenation, for every split point. *)
  List.iter
    (fun cut ->
      let h = Checksum.update 0 b 0 cut in
      let h = Checksum.update h b cut (Bytes.length b - cut) in
      check_int (Printf.sprintf "split at %d" cut) whole h)
    [ 0; 1; 17; 299; 300 ]

let test_crc_sensitivity () =
  let b = Bytes.make 64 'a' in
  let h0 = Checksum.bytes b in
  Bytes.set b 63 'b';
  check_bool "single byte changes digest" true (Checksum.bytes b <> h0)

(* Bytewise reference: the classic one-table CRC-32, one byte per step. *)
let crc_reference crc b off len =
  let c = ref (crc lxor 0xffffffff) in
  for i = off to off + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xffffffff

(* Property: [update] and [update_portable] (its table loop alone, the
   path of CPUs without carry-less multiply) both equal the reference on
   random buffers up to 5 000 B at any offset, from any running digest,
   and a chain of two [update] calls equals one over the concatenation.  Some
   cases check a whole family of lengths on one buffer instead of one
   length: every length from 56 to 72 B (just below, at and above 64),
   or 16 k + t B for every tail t in 0-15, each at an offset drawn from
   0-31 so that the span is usually not 16-byte aligned.  Others check
   every span of 16 to 63 B (one folded lane plus a tail) at every
   offset from 0 to 15 of one buffer. *)
let prop_crc_matches_reference =
  let open QCheck2.Gen in
  let short_or_long hi = frequency [ (1, 0 -- min hi 16); (2, 0 -- hi) ] in
  let arbitrary =
    let* n = short_or_long 5000 in
    let* off = short_or_long n in
    let* len = short_or_long (n - off) in
    return (n, [ (off, len) ])
  in
  let at off lens = List.map (fun len -> (off, len)) lens in
  let around_64 =
    let* off = 0 -- 31 in
    return (off + 72, at off (List.init 17 (fun i -> 56 + i)))
  in
  let every_tail =
    let* blocks = 0 -- 40 in
    let* off = 0 -- 31 in
    let lens = List.init 16 (fun t -> (16 * blocks) + t) in
    return (off + (16 * blocks) + 15, at off lens)
  in
  let every_short =
    let lens = List.init 48 (fun i -> 16 + i) in
    return (15 + 63, List.concat (List.init 16 (fun off -> at off lens)))
  in
  let gen =
    let* n, spans =
      frequency
        [ (2, arbitrary); (1, around_64); (1, every_tail); (1, every_short) ]
    in
    let* pad = 0 -- 16 in
    let* s = string_size (return (n + pad)) in
    let* cut = int_bound 5000 in
    let* hi = int_bound 0xffff in
    let* lo = int_bound 0xffff in
    return (s, spans, cut, (hi lsl 16) lor lo)
  in
  Util.qtest ~count:500 "crc32 equals bytewise reference" gen
    (fun (s, spans, cut, seed) ->
      let b = Bytes.of_string s in
      List.for_all
        (fun (off, len) ->
          let want = crc_reference seed b off len in
          let cut = cut mod (len + 1) in
          Checksum.update seed b off len = want
          && Checksum.update_portable seed b off len = want
          && Checksum.update (Checksum.update seed b off cut) b (off + cut)
               (len - cut)
             = want)
        spans)

let test_crc_bounds () =
  let b = Bytes.make 16 'x' in
  List.iter
    (fun (off, len) ->
      match Checksum.update 0 b off len with
      | _ -> Alcotest.failf "update off=%d len=%d accepted" off len
      | exception Invalid_argument _ -> ())
    [ (-1, 4); (0, -1); (10, 7); (17, 0); (0, 17); (max_int, 1) ];
  (* the empty range at either end is valid *)
  check_int "empty range at end" 0 (Checksum.update 0 b 16 0);
  check_int "whole buffer" (Checksum.bytes b) (Checksum.update 0 b 0 16)

(* --- page checksum headers --- *)

let test_stamp_verify () =
  let store = Page_store.create ~page_size:512 ~n_disks:2 in
  let p = Page_store.alloc store in
  check_bool "fresh page verifies" true (Page_store.verify store p = Page_store.Ok);
  let b = Page_store.bytes store p in
  Bytes.set b 100 '\x55';
  (match Page_store.verify store p with
  | Page_store.Bad_crc { bad_sectors; _ } ->
      check_bool "damaged sector named" true (bad_sectors = [ 0 ])
  | Page_store.Ok -> Alcotest.fail "corruption not detected");
  Page_store.stamp ~lsn:42 store p;
  check_bool "re-stamp heals" true (Page_store.verify store p = Page_store.Ok);
  check_int "header lsn" 42 (Page_store.header_lsn store p)

(* --- retry/backoff accounting --- *)

let counter pool f = Fpb_obs.Counter.value (f (Buffer_pool.stats pool))

(* The schedule is a pure function of (seed, disk, phys, access count), so
   a test can pick a seed whose draws do exactly what it wants to
   exercise: [want s] sees the location's first two scheduled draws. *)
let find_seed store p want =
  let disk, phys = Page_store.location store p in
  let u s n = Fault.uniform (Fault.draw ~seed:s ~disk ~phys ~n) in
  let rec go s =
    if s > 10_000 then Alcotest.fail "no suitable fault seed"
    else if want (u s 1) (u s 2) then s
    else go (s + 1)
  in
  go 0

(* A page whose reads transiently fail [fail_len] times must come back
   after exactly [fail_len] retries, with the exponential backoff charged
   to the simulated clock. *)
let test_retry_recovers () =
  let _, store, disks, pool = Util.make_system ~page_size:512 ~capacity:8 () in
  let p = Page_store.alloc store in
  Page_store.stamp store p;
  (* First scheduled draw fails, second succeeds: with fail_len = 2 the
     read goes fault, fault (the tail of the first event), then clean. *)
  let seed = find_seed store p (fun u1 u2 -> u1 < 0.5 && u2 >= 0.5) in
  Disk_model.set_faults disks
    (Some
       { Fault.none with Fault.seed; transient_read = 0.5; transient_fail_len = 2 });
  let t0 = Clock.now (Buffer_pool.sim pool).Sim.clock in
  ignore (Buffer_pool.get pool p);
  Buffer_pool.unpin pool p;
  check_int "retries" 2 (counter pool (fun s -> s.Buffer_pool.retry_read));
  check_int "transient errors" 2
    (counter pool (fun s -> s.Buffer_pool.err_transient));
  (* the pool's fixed policy: 0.5 ms before the first retry, doubling *)
  let backoff = 500_000 + 1_000_000 in
  check_int "backoff charged" backoff
    (counter pool (fun s -> s.Buffer_pool.retry_wait_ns));
  check_bool "clock advanced past backoff" true
    (Clock.now (Buffer_pool.sim pool).Sim.clock - t0 >= backoff)

(* More consecutive failures than the pool's 4 retries allow must surface
   as a typed, counted Io_error. *)
let test_retry_exhausted () =
  let _, store, disks, pool = Util.make_system ~page_size:512 ~capacity:8 () in
  let p = Page_store.alloc store in
  Page_store.stamp store p;
  (* One scheduled failure eating 6 attempts outlasts the first attempt
     plus 4 retries. *)
  let seed = find_seed store p (fun u1 _ -> u1 < 0.5) in
  Disk_model.set_faults disks
    (Some
       { Fault.none with Fault.seed; transient_read = 0.5; transient_fail_len = 6 });
  (match Buffer_pool.get pool p with
  | _ -> Alcotest.fail "expected Io_error"
  | exception Buffer_pool.Io_error { page; attempts; cause; repair } ->
      check_int "page" p page;
      check_int "attempts" 5 attempts;
      check_bool "cause" true (cause = `Transient);
      check_bool "no repair tried" true (repair = `Not_attempted));
  check_int "unrecoverable counted" 1
    (counter pool (fun s -> s.Buffer_pool.err_unrecoverable));
  (* The fault history survives; once the schedule clears, the page is
     readable again. *)
  Disk_model.set_faults disks None;
  ignore (Buffer_pool.get pool p);
  Buffer_pool.unpin pool p

(* Without a repair hook, corruption must be detected — reads raise, the
   scrubber reports, nothing is silently served. *)
let test_detect_without_repair () =
  let _, store, _, pool = Util.make_system ~page_size:512 ~capacity:8 () in
  let p = Page_store.alloc store in
  Page_store.stamp store p;
  let b = Page_store.bytes store p in
  Bytes.set b 17 '\xff';
  (match Buffer_pool.check_media pool p with
  | `Unrecoverable _ -> ()
  | _ -> Alcotest.fail "scrub should report unrecoverable damage");
  (match Buffer_pool.get pool p with
  | _ -> Alcotest.fail "expected Io_error"
  | exception Buffer_pool.Io_error { cause; _ } ->
      check_bool "checksum cause" true (cause = `Checksum));
  check_int "checksum errors counted" 2
    (counter pool (fun s -> s.Buffer_pool.err_checksum))

(* A hint against a fully-pinned pool is dropped and counted, not
   silently swallowed. *)
let test_prefetch_dropped () =
  let _, store, _, pool = Util.make_system ~page_size:512 ~capacity:2 () in
  let p1 = Page_store.alloc store in
  let p2 = Page_store.alloc store in
  let p3 = Page_store.alloc store in
  List.iter (fun p -> Page_store.stamp store p) [ p1; p2; p3 ];
  ignore (Buffer_pool.get pool p1);
  ignore (Buffer_pool.get pool p2);
  Buffer_pool.prefetch pool p3;
  check_int "dropped" 1
    (counter pool (fun s -> s.Buffer_pool.prefetch_dropped));
  Buffer_pool.unpin pool p1;
  Buffer_pool.unpin pool p2

(* --- paced scrub scheduler --- *)

let test_scrub_scheduler_paces () =
  let _, store, _, pool = Util.make_system ~page_size:512 ~capacity:8 () in
  let pages = List.init 10 (fun _ -> Page_store.alloc store) in
  let n = List.length pages in
  let sched = Scrub.scheduler ~pages_per_tick:3 pool in
  (* Each tick checks at most the bandwidth; a full lap covers every
     live page. *)
  let r1 = Scrub.tick sched in
  check_int "first tick bounded" 3 r1.Scrub.scanned;
  let ticks = ref 1 in
  while (Scrub.total sched).Scrub.scanned < n do
    let r = Scrub.tick sched in
    check_bool "tick bounded" true (r.Scrub.scanned <= 3);
    incr ticks
  done;
  check_int "lap takes ceil(n/bw) ticks" 4 !ticks;
  (* the last tick wraps and revisits the front of the ID space *)
  check_bool "every page came back clean" true
    ((Scrub.total sched).Scrub.clean >= n);
  (* Bandwidth 0 pauses the walk. *)
  let paused = Scrub.scheduler ~pages_per_tick:0 pool in
  check_int "paused tick scans nothing" 0 (Scrub.tick paused).Scrub.scanned;
  (* The cursor wraps: damage planted anywhere is found on a later lap,
     and with no repair hook it is reported, not hidden. *)
  let victim = List.nth pages 5 in
  Bytes.set (Page_store.bytes store victim) 9 '\xee';
  let found = ref false in
  for _ = 1 to (n + 2) / 3 do
    let r = Scrub.tick sched in
    if List.mem_assoc victim r.Scrub.unrecoverable then found := true
  done;
  check_bool "wrapped lap finds damage" true !found

(* --- sector-granular repair --- *)

(* A single torn 512-byte sector of a committed, checkpointed page is
   repaired by patching just that sector span (counted under
   [wal.repair.sectors]), not by a full-page rebuild. *)
let test_sector_granular_repair () =
  let sys = X.Setup.make ~n_disks:2 ~pool_pages:32 ~page_size:4096 () in
  let rng = Fpb_workload.Prng.create 11 in
  let pairs = Fpb_workload.Keygen.bulk_pairs rng 1_000 in
  let idx = X.Run.build sys X.Setup.Disk_first pairs ~fill:0.8 in
  let wal =
    Fpb_wal.Wal.attach ~log_base_images:true ~meta:(Index_sig.meta idx)
      sys.X.Setup.pool
  in
  for i = 1 to 10 do
    let k, _ = pairs.(Fpb_workload.Prng.int rng (Array.length pairs)) in
    ignore (Index_sig.insert idx k (i * 3));
    Fpb_wal.Wal.commit wal ~op:i ~meta:(Index_sig.meta idx)
  done;
  (* Checkpoint stamps every logged page's header at its newest LSN, so
     the intact sectors provably hold the replayed version. *)
  Fpb_wal.Wal.checkpoint wal ~meta:(Index_sig.meta idx);
  Buffer_pool.clear sys.X.Setup.pool;
  let victim = ref 0 in
  Page_store.iter_live sys.X.Setup.store (fun p ->
      if
        !victim = 0
        && Page_store.header_lsn sys.X.Setup.store p > 0
        && not (Buffer_pool.is_resident sys.X.Setup.pool p)
      then victim := p);
  check_bool "found a stamped victim page" true (!victim > 0);
  let b = Page_store.bytes sys.X.Setup.store !victim in
  Bytes.fill b 512 512 '\xab' (* tear sector 1 exactly *);
  (match Page_store.verify sys.X.Setup.store !victim with
  | Page_store.Bad_crc { bad_sectors; _ } ->
      check_bool "only sector 1 damaged" true (bad_sectors = [ 1 ])
  | Page_store.Ok -> Alcotest.fail "tear not detected");
  Fpb_wal.Wal.reset_stats wal;
  (match Buffer_pool.check_media sys.X.Setup.pool !victim with
  | `Repaired -> ()
  | _ -> Alcotest.fail "sector tear should be repaired");
  let kv = Fpb_wal.Wal.kv wal in
  check_int "one sector span patched" 1 (List.assoc "wal.repair.sectors" kv);
  check_int "no full-page rebuild" 0 (List.assoc "wal.repair.full" kv);
  check_bool "page verifies after patch" true
    (Page_store.verify sys.X.Setup.store !victim = Page_store.Ok);
  Fpb_wal.Wal.detach wal

(* --- scrub + WAL repair property, all four index structures --- *)

(* Build a committed index under a WAL with full-image coverage, flip
   random bytes in random non-resident pages, and require: the scrubber
   repairs every damaged page, structural invariants hold, and the key
   set still equals the model.  Golden-run equality comes free: the
   model is the run with zero flips. *)
let scrub_repair_roundtrip kind seed =
  let sys = X.Setup.make ~n_disks:2 ~pool_pages:32 ~page_size:4096 () in
  let rng = Fpb_workload.Prng.create 11 in
  let pairs = Fpb_workload.Keygen.bulk_pairs rng 1_500 in
  let idx = X.Run.build sys kind pairs ~fill:0.8 in
  let wal =
    Fpb_wal.Wal.attach ~log_base_images:true ~meta:(Index_sig.meta idx)
      sys.X.Setup.pool
  in
  (* A few committed updates so some pages carry post-image deltas. *)
  let m = Hashtbl.create 1024 in
  Array.iter (fun (k, v) -> Hashtbl.replace m k v) pairs;
  for i = 1 to 20 do
    let k, _ = pairs.(Fpb_workload.Prng.int rng (Array.length pairs)) in
    ignore (Index_sig.insert idx k (i * 7));
    Hashtbl.replace m k (i * 7);
    Fpb_wal.Wal.commit wal ~op:i ~meta:(Index_sig.meta idx)
  done;
  Buffer_pool.clear sys.X.Setup.pool;
  (* Flip bytes in a few live, non-resident pages. *)
  let live = ref [] in
  Page_store.iter_live sys.X.Setup.store (fun p -> live := p :: !live);
  let live = Array.of_list !live in
  let prng = Fpb_workload.Prng.create seed in
  let damaged = Hashtbl.create 8 in
  for _ = 1 to 1 + Fpb_workload.Prng.int prng 5 do
    let p = live.(Fpb_workload.Prng.int prng (Array.length live)) in
    if not (Buffer_pool.is_resident sys.X.Setup.pool p) then begin
      let b = Page_store.bytes sys.X.Setup.store p in
      let off = Fpb_workload.Prng.int prng (Bytes.length b) in
      let mask = 1 + Fpb_workload.Prng.int prng 254 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor mask));
      Hashtbl.replace damaged p ()
    end
  done;
  let report = Scrub.run sys.X.Setup.pool in
  if report.Scrub.unrecoverable <> [] then
    Alcotest.failf "scrub could not repair: %s"
      (String.concat ", "
         (List.map
            (fun (p, m) -> Printf.sprintf "page %d (%s)" p m)
            report.Scrub.unrecoverable));
  if report.Scrub.repaired < Hashtbl.length damaged then
    Alcotest.failf "flipped %d pages but scrub repaired only %d"
      (Hashtbl.length damaged) report.Scrub.repaired;
  (match Index_sig.check_invariants idx with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "invariants after repair: %s" msg);
  let got = ref [] in
  Index_sig.iter idx (fun k v -> got := (k, v) :: !got);
  let want = Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [] in
  if List.sort compare !got <> List.sort compare want then
    Alcotest.fail "key set differs from golden model after repair";
  Fpb_wal.Wal.detach wal;
  true

let scrub_qtest kind name =
  Util.qtest ~count:8 ("scrub repairs byte flips: " ^ name)
    QCheck2.Gen.(int_range 0 1_000_000)
    (scrub_repair_roundtrip kind)

let suite =
  [
    Alcotest.test_case "crc32 known vectors" `Quick test_crc_vectors;
    Alcotest.test_case "crc32 incremental update" `Quick test_crc_incremental;
    Alcotest.test_case "crc32 bit sensitivity" `Quick test_crc_sensitivity;
    Alcotest.test_case "crc32 rejects out-of-range spans" `Quick test_crc_bounds;
    prop_crc_matches_reference;
    Alcotest.test_case "page stamp/verify/heal" `Quick test_stamp_verify;
    Alcotest.test_case "transient reads retried with backoff" `Quick
      test_retry_recovers;
    Alcotest.test_case "retry budget exhausted raises Io_error" `Quick
      test_retry_exhausted;
    Alcotest.test_case "corruption detected without repair hook" `Quick
      test_detect_without_repair;
    Alcotest.test_case "prefetch against pinned pool is counted" `Quick
      test_prefetch_dropped;
    Alcotest.test_case "paced scrub scheduler" `Quick test_scrub_scheduler_paces;
    Alcotest.test_case "sector-granular repair" `Quick
      test_sector_granular_repair;
    scrub_qtest X.Setup.Disk_opt "disk-optimized B+tree";
    scrub_qtest X.Setup.Micro "micro-indexing";
    scrub_qtest X.Setup.Disk_first "disk-first fpB+tree";
    scrub_qtest X.Setup.Cache_first "cache-first fpB+tree";
  ]
