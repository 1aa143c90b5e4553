(* Unit and property tests for the durability subsystem: log record
   codec, commit/recover cycle, group-commit loss semantics, and the
   crash-at-every-record-boundary recovery property over all four index
   structures. *)

open Fpb_storage
open Fpb_btree_common
open Fpb_wal
module X = Fpb_experiments

let check_int = Alcotest.(check int)

(* --- record codec --- *)

let roundtrip label r =
  let s = Wal.Codec.encode r in
  match Wal.Codec.decode (Bytes.of_string s) 0 with
  | None -> Alcotest.failf "%s: decode failed" label
  | Some (r', next) ->
      check_int (label ^ ": consumed") (String.length s) next;
      Alcotest.(check bool) (label ^ ": round-trip") true (r = r')

let test_codec_roundtrip () =
  roundtrip "commit" (Wal.Commit { lsn = 7; op = 3; meta = [ 1; 0; -5; 1 lsl 30 ] });
  roundtrip "checkpoint" (Wal.Checkpoint { lsn = 1; op = 0; meta = [] });
  roundtrip "delta"
    (Wal.Delta { lsn = 9; page = 4; off = 123; bytes = Bytes.of_string "hello" });
  (* a full-page image: large bodies produce checksums above 2^31, which
     must survive the signed 32-bit framing *)
  let img = Bytes.init 4096 (fun i -> Char.chr (i * 31 land 0xff)) in
  roundtrip "image" (Wal.Image { lsn = 2; page = 5; img })

let test_codec_torn_tail () =
  let a = Wal.Codec.encode (Wal.Commit { lsn = 1; op = 1; meta = [ 42 ] }) in
  let b =
    Wal.Codec.encode
      (Wal.Delta { lsn = 2; page = 3; off = 0; bytes = Bytes.make 16 'z' })
  in
  let s = a ^ b in
  (* a truncated tail: the first record parses, the second stops the scan *)
  let torn = Bytes.of_string (String.sub s 0 (String.length s - 3)) in
  (match Wal.Codec.decode torn 0 with
  | Some (_, next) ->
      Alcotest.(check bool) "torn tail unreadable" true
        (Wal.Codec.decode torn next = None)
  | None -> Alcotest.fail "first record should parse");
  (* a flipped body byte: the checksum rejects the record *)
  let bad = Bytes.of_string a in
  Bytes.set bad 6 (Char.chr (Char.code (Bytes.get bad 6) lxor 0xff));
  Alcotest.(check bool) "corrupt record rejected" true
    (Wal.Codec.decode bad 0 = None)

let test_codec_crc_framing () =
  (* The frame is [len | body | crc32(body)] little-endian: pin the
     trailer to the independently computed CRC-32 of the body bytes, so
     the on-disk format can't silently drift back to a weaker sum. *)
  let r = Wal.Commit { lsn = 5; op = 2; meta = [ 9 ] } in
  let s = Wal.Codec.encode r in
  let b = Bytes.of_string s in
  let len = Int32.to_int (Bytes.get_int32_le b 0) in
  check_int "frame length" (String.length s) (len + 8);
  let crc = Int32.to_int (Bytes.get_int32_le b (4 + len)) land 0xffffffff in
  check_int "trailer is crc32 of body" crc
    (Fpb_storage.Checksum.update 0 b 4 len);
  (* CRC-32 check vector through the same path the codec uses. *)
  check_int "crc32 check value" 0xCBF43926
    (Fpb_storage.Checksum.string "123456789");
  (* A flipped CRC byte alone (body intact) must also reject. *)
  Bytes.set b (4 + len) (Char.chr (Char.code (Bytes.get b (4 + len)) lxor 1));
  Alcotest.(check bool) "corrupt trailer rejected" true
    (Wal.Codec.decode b 0 = None)

(* Golden frames, one per record kind: the on-log byte format must not
   move, whatever the encoder's implementation. *)
let golden_frames =
  [
    ( "image",
      Wal.Image
        { lsn = 2; page = 5; img = Bytes.init 24 (fun i -> Char.chr (i * 31 land 0xff)) },
      "21000000010200000005000000001f3e5d7c9bbad9f81736557493b2d1f00f2e4d6c8baac9321b99a0" );
    ( "delta",
      Wal.Delta { lsn = 9; page = 4; off = 123; bytes = Bytes.of_string "hello" },
      "120000000209000000040000007b00000068656c6c6f16460441" );
    ( "commit",
      Wal.Commit { lsn = 7; op = 3; meta = [ 1; 0; -5; 1 lsl 30 ] },
      "1d000000030700000003000000040000000100000000000000fbffffff0000004005e1857a" );
    ( "checkpoint",
      Wal.Checkpoint { lsn = 1; op = 0; meta = [] },
      "0d000000040100000000000000000000007b606854" );
    ("alloc", Wal.Alloc { lsn = 11; page = 6 }, "09000000050b000000060000006b129fd4");
    ("free", Wal.Free { lsn = 12; page = 7 }, "09000000060c00000007000000d2406b5f");
  ]

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let test_codec_golden () =
  List.iter
    (fun (label, r, want) ->
      Alcotest.(check string) (label ^ ": frame bytes") want (hex (Wal.Codec.encode r));
      roundtrip label r)
    golden_frames;
  (* a full 4 KB image, pinned by its length and the CRC-32 of its frame *)
  let img = Bytes.init 4096 (fun i -> Char.chr (i * 31 land 0xff)) in
  let s = Wal.Codec.encode (Wal.Image { lsn = 70000; page = 123456; img }) in
  check_int "4 KB image: frame length" 4113 (String.length s);
  check_int "4 KB image: frame crc" 0x17cd4061 (Fpb_storage.Checksum.string s)

(* --- page diff --- *)

(* Bytewise reference for [Wal.diff_span]. *)
let diff_reference a b =
  let n = Bytes.length a in
  let lo = ref 0 in
  while !lo < n && Bytes.get a !lo = Bytes.get b !lo do incr lo done;
  if !lo = n then None
  else begin
    let hi = ref (n - 1) in
    while Bytes.get a !hi = Bytes.get b !hi do decr hi done;
    Some (!lo, !hi - !lo + 1)
  end

(* [flip b i] changes byte [i] of a copy of [b]. *)
let flips b positions =
  let c = Bytes.copy b in
  List.iter
    (fun i -> Bytes.set c i (Char.chr (Char.code (Bytes.get c i) lxor 0x5a)))
    positions;
  c

let test_diff_span_cases () =
  let page = Bytes.init 4096 (fun i -> Char.chr (i * 13 land 0xff)) in
  let span = Alcotest.(option (pair int int)) in
  let check label positions want =
    Alcotest.check span label want (Wal.diff_span page (flips page positions))
  in
  check "identical pages" [] None;
  check "byte 0" [ 0 ] (Some (0, 1));
  check "last byte" [ 4095 ] (Some (4095, 1));
  check "single mid byte" [ 2051 ] (Some (2051, 1));
  check "both ends" [ 0; 4095 ] (Some (0, 4096));
  check "word-straddling span" [ 7; 8 ] (Some (7, 2));
  Alcotest.check span "short page" (Some (2, 1))
    (Wal.diff_span (Bytes.of_string "abcde") (Bytes.of_string "abXde"))

(* Property: on page pairs that differ at random positions (byte 0 and
   the last byte favoured), the word-wise diff equals the reference. *)
let prop_diff_span_matches_reference =
  let open QCheck2.Gen in
  let gen =
    let* n = frequency [ (1, 1 -- 24); (2, return 4096); (1, 1 -- 4096) ] in
    let* s = string_size (return n) in
    let pos = frequency [ (1, return 0); (1, return (n - 1)); (4, 0 -- (n - 1)) ] in
    let* positions = list_size (0 -- 3) pos in
    return (s, positions)
  in
  Util.qtest ~count:500 "diff_span equals bytewise reference" gen
    (fun (s, positions) ->
      let a = Bytes.of_string s in
      let b = flips a positions in
      Wal.diff_span a b = diff_reference a b)

(* --- written spans: every logged delta is the whole-page diff --- *)

(* A WAL-attached pool of [pages] 4 KB pages with room for only
   [frames] of them, so a write's page may be evicted before its commit.
   Every page is created, dirtied and committed once: its first log
   record is the full image, and every later one is a delta. *)
let span_system ~pages ~frames =
  let _, store, disks, pool = Util.make_system ~n_disks:2 ~capacity:frames () in
  let wal = Wal.attach ~meta:[] pool in
  let ids =
    Array.init pages (fun _ ->
        let id, _ = Buffer_pool.create_page pool in
        Buffer_pool.mark_dirty pool id;
        Buffer_pool.unpin pool id;
        id)
  in
  Wal.commit wal ~op:1 ~meta:[];
  (store, disks, pool, wal, ids)

type span_op =
  | W8 of int * int * int  (** page, offset, value *)
  | W16 of int * int * int
  | W32 of int * int * int
  | Blit of int * int * int * int * int  (** src page, off, dst page, off, len *)
  | Fill of int * int * int  (** page, offset, length *)
  | Evict  (** write back and drop every frame, mid-operation *)
  | Corrupt_read of int
      (** commit, drop every frame, then read the page through a disk
          that corrupts every read: the pool repairs it from the log *)
  | Commit

let show_span_op = function
  | W8 (p, o, v) -> Printf.sprintf "W8(%d,%d,%d)" p o v
  | W16 (p, o, v) -> Printf.sprintf "W16(%d,%d,%d)" p o v
  | W32 (p, o, v) -> Printf.sprintf "W32(%d,%d,%d)" p o v
  | Blit (p, o, q, o', n) -> Printf.sprintf "Blit(%d,%d,%d,%d,%d)" p o q o' n
  | Fill (p, o, n) -> Printf.sprintf "Fill(%d,%d,%d)" p o n
  | Evict -> "Evict"
  | Corrupt_read p -> Printf.sprintf "Corrupt_read(%d)" p
  | Commit -> "Commit"

let span_pages = 4

let gen_span_op =
  let open QCheck2.Gen in
  let page = 0 -- (span_pages - 1) in
  let len = frequency [ (3, 0 -- 16); (1, 0 -- 512) ] in
  frequency
    [
      (2, map3 (fun p o v -> W8 (p, o, v)) page (0 -- 4095) (0 -- 255));
      (2, map3 (fun p o v -> W16 (p, o, v)) page (0 -- 4094) (0 -- 0xffff));
      (4, map3 (fun p o v -> W32 (p, o, v)) page (0 -- 4092) int);
      ( 2,
        let* n = len in
        let* src = page and* dst = page in
        let* o = 0 -- (4096 - n) and* o' = 0 -- (4096 - n) in
        return (Blit (src, o, dst, o', n)) );
      ( 1,
        let* n = len in
        let* p = page in
        let* o = 0 -- (4096 - n) in
        return (Fill (p, o, n)) );
      (1, return Evict);
      (1, map (fun p -> Corrupt_read p) page);
      (3, return Commit);
    ]

(* The new image and delta records sealed since LSN [after], as
   (page, offset, bytes); an image is a delta at offset 0 of the whole
   page. *)
let logged_since wal ~after =
  List.filter_map
    (function
      | Wal.Image { lsn; page; img } when lsn > after -> Some (page, 0, img)
      | Wal.Delta { lsn; page; off; bytes } when lsn > after ->
          Some (page, off, bytes)
      | _ -> None)
    (Wal.durable_records wal)

(* Property: random charged writes ([write_*], [blit], [fill_zero])
   across four pages, with evictions between a write and its commit and
   reads that come back corrupted and are repaired.  At every commit
   the records logged for each dirtied page equal what the whole-page
   [Wal.diff_span] against the page's last-logged bytes gives: the
   bounded search inside the written span never misses a changed byte
   and never logs a wider span. *)
let prop_logged_delta_is_full_diff =
  let open QCheck2 in
  let prefix = [ W32 (0, 100, 7); Evict; Commit; Corrupt_read 1; W8 (1, 9, 1); Commit ] in
  Util.qtest ~count:100
    ~print:(fun ops -> String.concat "; " (List.map show_span_op ops))
    "logged delta = whole-page diff" (Gen.list_size (Gen.int_range 1 60) gen_span_op)
    (fun ops ->
      let store, disks, pool, wal, ids = span_system ~pages:span_pages ~frames:3 in
      let sim = Buffer_pool.sim pool in
      (* each page's bytes as last logged, and the pages dirtied since *)
      let logged = Array.map (fun id -> Bytes.copy (Page_store.bytes store id)) ids in
      let dirty = Array.make span_pages false in
      let op_no = ref 1 in
      let write p f =
        let id = ids.(p) in
        f (Buffer_pool.get pool id);
        Buffer_pool.mark_dirty pool id;
        Buffer_pool.unpin pool id;
        dirty.(p) <- true
      in
      let commit () =
        let expected = ref [] in
        for p = span_pages - 1 downto 0 do
          if dirty.(p) then begin
            let cur = Page_store.bytes store ids.(p) in
            (match Wal.diff_span logged.(p) cur with
            | Some (off, len) ->
                expected := (ids.(p), off, Bytes.sub cur off len) :: !expected
            | None -> ());
            logged.(p) <- Bytes.copy cur;
            dirty.(p) <- false
          end
        done;
        let after = Wal.last_lsn wal in
        incr op_no;
        Wal.commit wal ~op:!op_no ~meta:[];
        if logged_since wal ~after <> !expected then
          Test.fail_reportf "commit %d: logged records differ from the full diff"
            !op_no
      in
      List.iter
        (function
          | W8 (p, o, v) -> write p (fun r -> Fpb_simmem.Mem.write_u8 sim r o v)
          | W16 (p, o, v) -> write p (fun r -> Fpb_simmem.Mem.write_u16 sim r o v)
          | W32 (p, o, v) -> write p (fun r -> Fpb_simmem.Mem.write_i32 sim r o v)
          | Blit (p, o, q, o', n) ->
              let src = Buffer_pool.get pool ids.(p) in
              write q (fun dst -> Fpb_simmem.Mem.blit sim src o dst o' n);
              Buffer_pool.unpin pool ids.(p)
          | Fill (p, o, n) -> write p (fun r -> Fpb_simmem.Mem.fill_zero sim r o n)
          | Evict -> Buffer_pool.clear pool
          | Corrupt_read p ->
              commit ();
              Buffer_pool.clear pool;
              Disk_model.set_faults disks
                (Some { Fault.none with Fault.seed = p; corrupt = 1.0; torn_frac = 0.0 });
              ignore (Buffer_pool.get pool ids.(p));
              Buffer_pool.unpin pool ids.(p);
              Disk_model.set_faults disks None;
              if Page_store.bytes store ids.(p) <> logged.(p) then
                Test.fail_reportf "page %d: repair did not restore its committed bytes" p
          | Commit -> commit ())
        (prefix @ ops);
      commit ();
      true)

(* A read that comes back corrupted and is repaired rewrites the page
   outside [Mem]: the page's next delta falls back to one whole-page
   diff, counted, and still logs only the bytes that changed. *)
let test_repair_forces_one_full_diff () =
  let _, disks, pool, wal, ids = span_system ~pages:2 ~frames:2 in
  let sim = Buffer_pool.sim pool in
  let full_diffs () = List.assoc "wal.delta.full_diffs" (Wal.kv wal) in
  let put op v =
    let r = Buffer_pool.get pool ids.(0) in
    Fpb_simmem.Mem.write_i32 sim r 2048 v;
    Buffer_pool.mark_dirty pool ids.(0);
    Buffer_pool.unpin pool ids.(0);
    let after = Wal.last_lsn wal in
    Wal.commit wal ~op ~meta:[];
    logged_since wal ~after
  in
  let one_word v =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    [ (ids.(0), 2048, b) ]
  in
  Alcotest.(check bool) "tracked delta" true (put 2 0x01020304 = one_word 0x01020304);
  check_int "no full diff while every write is tracked" 0 (full_diffs ());
  Buffer_pool.clear pool;
  Disk_model.set_faults disks
    (Some { Fault.none with Fault.seed = 3; corrupt = 1.0; torn_frac = 0.0 });
  ignore (Buffer_pool.get pool ids.(0));
  Buffer_pool.unpin pool ids.(0);
  Disk_model.set_faults disks None;
  check_int "the read was repaired" 1
    (List.assoc "repair.repaired" (Buffer_pool.kv pool));
  Alcotest.(check bool) "delta after repair" true (put 3 0x05060708 = one_word 0x05060708);
  check_int "one counted full diff" 1 (full_diffs ());
  Alcotest.(check bool) "tracked again" true (put 4 0x0a0b0c0d = one_word 0x0a0b0c0d);
  check_int "span reset by the log" 1 (full_diffs ())

(* --- commit / crash / recover on a real system --- *)

let build_small kind n =
  let sys = X.Setup.make ~n_disks:2 ~pool_pages:64 ~page_size:4096 () in
  let rng = Fpb_workload.Prng.create 11 in
  let pairs = Fpb_workload.Keygen.bulk_pairs rng n in
  let idx = X.Run.build sys kind pairs ~fill:0.8 in
  (sys, pairs, idx)

let test_commit_recover () =
  let sys, _, idx = build_small X.Setup.Disk_first 300 in
  let wal = Wal.attach ~meta:(Index_sig.meta idx) sys.X.Setup.pool in
  for i = 1 to 10 do
    ignore (Index_sig.insert idx (1_000_000 + i) i);
    Wal.commit wal ~op:i ~meta:(Index_sig.meta idx)
  done;
  Wal.crash_now wal;
  let r = Wal.recover wal in
  check_int "all flushed commits durable" 10 r.Wal.committed_ops;
  (match Wal.verify_images wal with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("durable image check: " ^ m));
  Index_sig.restore_meta idx r.Wal.meta;
  Index_sig.check idx;
  for i = 1 to 10 do
    Alcotest.(check (option int))
      "committed insert recovered" (Some i)
      (Index_sig.search idx (1_000_000 + i))
  done

let test_group_commit_loss () =
  (* With a huge group-commit threshold, commits stay in the log buffer:
     a power cut loses them all, and recovery rolls back to the
     attach-time checkpoint. *)
  let sys, pairs, idx = build_small X.Setup.Disk_opt 300 in
  let before = X.Oracle.key_set idx in
  let wal =
    Wal.attach ~group_commit_bytes:8_000_000 ~meta:(Index_sig.meta idx)
      sys.X.Setup.pool
  in
  for i = 1 to 5 do
    ignore (Index_sig.insert idx (2_000_000 + i) i);
    Wal.commit wal ~op:i ~meta:(Index_sig.meta idx)
  done;
  Wal.crash_now wal;
  let r = Wal.recover wal in
  check_int "buffered commits lost" 0 r.Wal.committed_ops;
  Index_sig.restore_meta idx r.Wal.meta;
  Index_sig.check idx;
  Alcotest.(check bool) "key set back to bulkload" true (X.Oracle.key_set idx = before);
  check_int "bulkload size sanity" (Array.length pairs) (List.length before)

let test_explicit_flush_durable () =
  (* Same threshold, but an explicit flush before the cut: everything
     sealed so far survives. *)
  let sys, _, idx = build_small X.Setup.Disk_opt 300 in
  let wal =
    Wal.attach ~group_commit_bytes:8_000_000 ~meta:(Index_sig.meta idx)
      sys.X.Setup.pool
  in
  for i = 1 to 5 do
    ignore (Index_sig.insert idx (2_000_000 + i) i);
    Wal.commit wal ~op:i ~meta:(Index_sig.meta idx)
  done;
  Wal.flush wal;
  check_int "flush drains buffer" (Wal.log_bytes wal) (Wal.durable_bytes wal);
  Wal.crash_now wal;
  let r = Wal.recover wal in
  check_int "flushed commits durable" 5 r.Wal.committed_ops

(* --- mirrored log: detection at K=1, survival at K=2 --- *)

(* With a single log disk, damage to committed records must be detected
   and reported — recovery serves the intact prefix and says what it
   lost, never pretending the stream was merely cut short. *)
let test_single_mirror_loss_detected () =
  let sys, _, idx = build_small X.Setup.Disk_first 300 in
  let wal = Wal.attach ~meta:(Index_sig.meta idx) sys.X.Setup.pool in
  for i = 1 to 10 do
    ignore (Index_sig.insert idx (1_000_000 + i) i);
    Wal.commit wal ~op:i ~meta:(Index_sig.meta idx)
  done;
  (* Zero a span in the middle of the committed stream on the only
     mirror: bytes of some committed transaction are gone for good. *)
  Wal.inject_mirror_damage wal ~mirror:0
    (Wal.Zero_span { off = Wal.durable_bytes wal / 2; len = 64 });
  Wal.crash_now wal;
  let r = Wal.recover wal in
  Alcotest.(check bool) "loss detected" true (r.Wal.damaged_records > 0);
  Alcotest.(check bool) "replay stopped at the damage" true
    (r.Wal.committed_ops < 10);
  (* The intact prefix is still a consistent index. *)
  Index_sig.restore_meta idx r.Wal.meta;
  Index_sig.check idx

(* Property: with K = 2 mirrors, any single-mirror damage — torn tail,
   interior zeroing, bit rot, or a latent-sector fault schedule — costs
   no committed transaction, and recovery reports no damage (the other
   mirror served every record).  Media repair still works afterwards. *)
let prop_mirror_survives_single_fault =
  Util.qtest ~count:10 "K=2: single-mirror damage loses nothing"
    QCheck2.Gen.(pair (1 -- 1000) (0 -- 3))
    (fun (seed, dkind) ->
      let sys, _, idx = build_small X.Setup.Disk_first 200 in
      let wal =
        Wal.attach ~log_base_images:true ~log_mirrors:2
          ~meta:(Index_sig.meta idx) sys.X.Setup.pool
      in
      let prng = Fpb_workload.Prng.create seed in
      let victim = Fpb_workload.Prng.int prng 2 in
      for i = 1 to 8 do
        ignore (Index_sig.insert idx (1_000_000 + i) (seed + i));
        Wal.commit wal ~op:i ~meta:(Index_sig.meta idx)
      done;
      let expected = X.Oracle.key_set idx in
      let dlen = Wal.durable_bytes wal in
      (match dkind with
      | 0 ->
          Wal.inject_mirror_damage wal ~mirror:victim
            (Wal.Torn_tail (1 + Fpb_workload.Prng.int prng (dlen / 2)))
      | 1 ->
          Wal.inject_mirror_damage wal ~mirror:victim
            (Wal.Zero_span
               {
                 off = Fpb_workload.Prng.int prng dlen;
                 len = 1 + Fpb_workload.Prng.int prng 512;
               })
      | 2 ->
          Wal.inject_mirror_damage wal ~mirror:victim
            (Wal.Flip
               {
                 off = Fpb_workload.Prng.int prng dlen;
                 bit = Fpb_workload.Prng.int prng 8;
               })
      | _ ->
          (* every read of the victim mirror develops a latent sector *)
          Wal.set_log_faults wal ~mirror:victim
            (Some { Fpb_storage.Fault.none with seed; latent = 1.0 }));
      Wal.crash_now wal;
      let r = Wal.recover wal in
      Wal.set_log_faults wal None;
      Index_sig.restore_meta idx r.Wal.meta;
      Index_sig.check idx;
      let survived =
        r.Wal.committed_ops = 8
        && r.Wal.damaged_records = 0
        && X.Oracle.key_set idx = expected
      in
      (* and the healed log is still a usable repair source *)
      Buffer_pool.clear sys.X.Setup.pool;
      let page = ref 0 in
      Page_store.iter_live sys.X.Setup.store (fun p ->
          if !page = 0 && not (Buffer_pool.is_resident sys.X.Setup.pool p)
          then page := p);
      let b = Page_store.bytes sys.X.Setup.store !page in
      Bytes.set b 33 (Char.chr (Char.code (Bytes.get b 33) lxor 0x40));
      let repaired =
        match Buffer_pool.check_media sys.X.Setup.pool !page with
        | `Repaired -> true
        | _ -> false
      in
      Wal.detach wal;
      survived && repaired)

(* --- striped log: records round-robin across S log disks --- *)

let test_striped_commit_recover () =
  (* S=2: sealed records alternate between two log disks; recovery
     merges the per-stripe scans back into one stream by LSN. *)
  let sys, _, idx = build_small X.Setup.Disk_first 300 in
  let wal =
    Wal.attach ~log_stripes:2 ~meta:(Index_sig.meta idx) sys.X.Setup.pool
  in
  check_int "stripes" 2 (Wal.log_stripes wal);
  for i = 1 to 10 do
    ignore (Index_sig.insert idx (1_000_000 + i) i);
    Wal.commit wal ~op:i ~meta:(Index_sig.meta idx)
  done;
  Wal.crash_now wal;
  let r = Wal.recover wal in
  check_int "all commits durable across stripes" 10 r.Wal.committed_ops;
  check_int "no damage" 0 r.Wal.damaged_records;
  (match Wal.verify_images wal with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("durable image check: " ^ m));
  Index_sig.restore_meta idx r.Wal.meta;
  Index_sig.check idx;
  for i = 1 to 10 do
    Alcotest.(check (option int))
      "committed insert recovered" (Some i)
      (Index_sig.search idx (1_000_000 + i))
  done

let prop_striping_invariant =
  (* The stripe count is a bandwidth knob, not a semantics knob: the same
     workload crash-recovers to the same state at S = 1, 2, 4. *)
  Util.qtest ~count:8 "recovery result independent of stripe count"
    QCheck2.Gen.(1 -- 1000)
    (fun seed ->
      let outcome s =
        let sys, _, idx = build_small X.Setup.Disk_opt 200 in
        let wal =
          Wal.attach ~log_stripes:s ~meta:(Index_sig.meta idx)
            sys.X.Setup.pool
        in
        let prng = Fpb_workload.Prng.create seed in
        for i = 1 to 8 do
          ignore
            (Index_sig.insert idx
               (1_000_000 + Fpb_workload.Prng.int prng 50_000)
               i);
          Wal.commit wal ~op:i ~meta:(Index_sig.meta idx)
        done;
        Wal.crash_now wal;
        let r = Wal.recover wal in
        Index_sig.restore_meta idx r.Wal.meta;
        Index_sig.check idx;
        (r.Wal.committed_ops, r.Wal.damaged_records, X.Oracle.key_set idx)
      in
      let a = outcome 1 in
      a = outcome 2 && a = outcome 4)

let test_striped_loss_detected () =
  (* S=2, K=1: an interior span of ONE stripe is zeroed.  The surviving
     stripe still carries readable records with later LSNs, so only the
     merged LSN-gap check can see the hole — recovery must report the
     loss and stop replay there, not serve the other stripe's records
     from beyond the gap. *)
  let sys, _, idx = build_small X.Setup.Disk_first 300 in
  let wal =
    Wal.attach ~log_stripes:2 ~meta:(Index_sig.meta idx) sys.X.Setup.pool
  in
  for i = 1 to 12 do
    ignore (Index_sig.insert idx (1_000_000 + i) i);
    Wal.commit wal ~op:i ~meta:(Index_sig.meta idx)
  done;
  (* Damage offsets are stripe-local.  Records alternate stripes in seal
     order, so stripe 0's extent is the sizes of the even-indexed layout
     entries; smash the body of its middle record. *)
  let stripe0 = List.filteri (fun i _ -> i mod 2 = 0) (Wal.layout wal) in
  let n0 = List.length stripe0 in
  let local_start = ref 0 in
  List.iteri
    (fun i b -> if i < n0 / 2 then local_start := !local_start + b.Wal.size)
    stripe0;
  Wal.inject_mirror_damage wal ~mirror:0
    (Wal.Zero_span { off = !local_start + 4; len = 16 });
  Wal.crash_now wal;
  let r = Wal.recover wal in
  Alcotest.(check bool) "cross-stripe loss detected" true
    (r.Wal.damaged_records > 0);
  Alcotest.(check bool) "replay stopped at the gap" true
    (r.Wal.committed_ops < 12);
  Index_sig.restore_meta idx r.Wal.meta;
  Index_sig.check idx

let test_striped_mirror_survives () =
  (* S=2 x K=2: striping composes with mirroring.  Damaging one copy of
     one stripe costs nothing — its twin serves that stripe. *)
  let sys, _, idx = build_small X.Setup.Disk_first 300 in
  let wal =
    Wal.attach ~log_stripes:2 ~log_mirrors:2 ~meta:(Index_sig.meta idx)
      sys.X.Setup.pool
  in
  for i = 1 to 10 do
    ignore (Index_sig.insert idx (1_000_000 + i) i);
    Wal.commit wal ~op:i ~meta:(Index_sig.meta idx)
  done;
  (* Flattened disk index s*K + k: 0 is stripe 0, copy 0.  Hit the body
     of stripe 0's middle record (stripe-local offset from the layout:
     records alternate stripes in seal order). *)
  let stripe0 = List.filteri (fun i _ -> i mod 2 = 0) (Wal.layout wal) in
  let n0 = List.length stripe0 in
  let local_start = ref 0 in
  List.iteri
    (fun i b -> if i < n0 / 2 then local_start := !local_start + b.Wal.size)
    stripe0;
  Wal.inject_mirror_damage wal ~mirror:0
    (Wal.Zero_span { off = !local_start + 4; len = 16 });
  Wal.crash_now wal;
  let r = Wal.recover wal in
  check_int "nothing lost" 10 r.Wal.committed_ops;
  check_int "no damage reported" 0 r.Wal.damaged_records;
  Index_sig.restore_meta idx r.Wal.meta;
  Index_sig.check idx

(* --- satellite property: crash at every record boundary --- *)

(* For a random workload seed: run the golden scenario on each index
   structure, enumerate EVERY log record boundary as a crash point
   (no thinning, no mid-record points), and require recovery to restore
   exactly the committed prefix each time.  This reuses the crashtest
   harness' own building blocks so the oracle stays the golden run's
   commit offsets. *)
let prop_recovery_prefix =
  Util.qtest ~count:2 "crash at every boundary recovers committed prefix"
    QCheck2.Gen.(1 -- 1000)
    (fun seed ->
      List.for_all
        (fun kind ->
          let w = X.Oracle.workload X.Crashtest.mix ~seed 150 12 in
          let idx, wal, (), expect, _ =
            X.Crashtest.run_scenario kind w ~ckpt_every:5 ~crash_at:None
              ~attach:(fun _ _ -> ())
          in
          Index_sig.check idx;
          let points = Crash.points ~mid_record:false (Wal.layout wal) in
          List.for_all
            (fun p ->
              let _, errs =
                X.Crashtest.check_point kind w ~ckpt_every:5 ~expect p
              in
              errs = [])
            points)
        X.Setup.all_kinds)

(* --- a prefetch evicts clean frames --- *)

(* While the log holds records to force, a prefetch hint takes a clean
   frame, so it neither writes a page back nor forces the log; only when
   every evictable frame is dirty does it evict a dirty victim, forcing
   the log first.  The pool has 4 frames and a group-commit log, so
   commits stay buffered until a force.  Its SIEVE hand stands on the
   oldest frame, which holds page 0: a sweep that took dirty frames
   would evict page 0 first. *)
let test_prefetch_passes_over_dirty () =
  let _, _, disks, pool = Util.make_system ~n_disks:2 ~capacity:4 () in
  let wal = Wal.attach ~group_commit_bytes:65_536 ~meta:[] pool in
  let sim = Buffer_pool.sim pool in
  let ids =
    Array.init 8 (fun _ ->
        let id, _ = Buffer_pool.create_page pool in
        Buffer_pool.unpin pool id;
        id)
  in
  let op = ref 1 in
  Wal.commit wal ~op:!op ~meta:[];
  Buffer_pool.clear pool;
  let resident i = Buffer_pool.is_resident pool ids.(i) in
  let read i = Buffer_pool.with_page pool ids.(i) ignore in
  let dirty is =
    List.iter
      (fun i ->
        Buffer_pool.with_page pool ids.(i) (fun r ->
            Fpb_simmem.Mem.write_i32 sim r 0 (i + 1));
        Buffer_pool.mark_dirty pool ids.(i))
      is;
    incr op;
    Wal.commit wal ~op:!op ~meta:[]
  in
  let flushes () = List.assoc "wal.flushes" (Wal.kv wal) in
  let writes () = Disk_model.writes disks in
  let victims () =
    Fpb_obs.Counter.value (Buffer_pool.stats pool).Buffer_pool.prefetch_dirty_victims
  in
  List.iter read [ 0; 1; 2; 3 ];
  dirty [ 0; 1 ];
  let f0 = flushes () and w0 = writes () in
  Buffer_pool.prefetch pool ids.(4);
  Alcotest.(check bool) "page 4 prefetched" true (resident 4);
  Alcotest.(check (list bool)) "dirty pages stay" [ true; true ] [ resident 0; resident 1 ];
  Alcotest.(check (list bool)) "page 2 went" [ false; true ] [ resident 2; resident 3 ];
  check_int "no log force" f0 (flushes ());
  check_int "no write-back" w0 (writes ());
  check_int "no dirty victim" 0 (victims ());
  (* every evictable frame dirty: fall back to a dirty victim *)
  read 4;
  dirty [ 3; 4 ];
  let f1 = flushes () and w1 = writes () in
  Buffer_pool.prefetch pool ids.(5);
  Alcotest.(check bool) "page 5 prefetched" true (resident 5);
  check_int "one dirty victim" 1 (victims ());
  check_int "one log force" (f1 + 1) (flushes ());
  check_int "one write-back" (w1 + 1) (writes ());
  (* with the log durable a write-back forces nothing: the prefetch
     takes the demand victim, dirty or not *)
  read 5;
  dirty [ 5 ];
  Wal.flush wal;
  let f2 = flushes () and w2 = writes () in
  Buffer_pool.prefetch pool ids.(6);
  Alcotest.(check bool) "page 6 prefetched" true (resident 6);
  check_int "still one dirty victim" 1 (victims ());
  check_int "no force of a durable log" f2 (flushes ());
  check_int "a write-back without a force" (w2 + 1) (writes ());
  (* WAL-before-data: when the force fails, nothing reaches the disk *)
  read 6;
  dirty [ 6 ];
  Wal.set_crash_at_byte wal (Some (Wal.durable_bytes wal + 1));
  let w3 = writes () in
  (match Buffer_pool.prefetch pool ids.(7) with
  | () -> Alcotest.fail "the log force should have crashed"
  | exception Wal.Crashed -> ());
  check_int "no write-back past a failed force" w3 (writes ())

(* --- a demand miss reads while its dirty victim is written back --- *)

(* A one-frame pool holds dirty page [a] while the group-commit log holds
   unforced records, so evicting [a] forces the log.  A demand miss on
   [b] submits its read first, then forces the log and submits [a]'s
   write: it completes at the later of its read and the force, not their
   sum.  On distinct disks [a]'s write runs beside the read; on one disk
   it queues behind it.  Either way the write starts only after the
   force, and a failed force submits no write. *)
let test_demand_read_overlaps_writeback () =
  let read_ns =
    Disk_model.default_seek_ns + Disk_model.transfer_ns_of_page_size 4096
  in
  let case ~n_disks ~b_index =
    let label = Printf.sprintf "%d disk(s)" n_disks in
    let _, _, disks, pool = Util.make_system ~n_disks ~capacity:1 () in
    let wal = Wal.attach ~group_commit_bytes:65_536 ~meta:[] pool in
    let sim = Buffer_pool.sim pool in
    let clock = sim.Fpb_simmem.Sim.clock in
    let ids =
      Array.init 3 (fun _ ->
          let id, _ = Buffer_pool.create_page pool in
          Buffer_pool.unpin pool id;
          id)
    in
    Wal.commit wal ~op:1 ~meta:[];
    Buffer_pool.clear pool;
    let a = ids.(0) and b = ids.(b_index) in
    let da, _ = Page_store.location (Buffer_pool.store pool) a in
    let db, _ = Page_store.location (Buffer_pool.store pool) b in
    Alcotest.(check bool) (label ^ ": disks as intended") (n_disks = 1) (da = db);
    let idle () =
      Fpb_simmem.Clock.advance_to clock (Fpb_simmem.Clock.now clock + 100_000_000)
    in
    let dirty_a () =
      idle ();
      Buffer_pool.with_page pool a (fun r -> Fpb_simmem.Mem.write_i32 sim r 0 7);
      Buffer_pool.mark_dirty pool a;
      Wal.commit wal ~op:2 ~meta:[];
      idle ()
    in
    let flush_wait () = List.assoc "wal.flush_wait_ns" (Wal.kv wal) in
    dirty_a ();
    let t0 = Fpb_simmem.Clock.now clock and w0 = flush_wait () in
    Buffer_pool.with_page pool b ignore;
    let elapsed = Fpb_simmem.Clock.now clock - t0 in
    let force_ns = flush_wait () - w0 in
    Alcotest.(check bool) (label ^ ": the victim forced the log") true (force_ns > 0);
    let overlap = max read_ns force_ns in
    if elapsed < overlap || elapsed > overlap + 50_000 then
      Alcotest.failf "%s: miss took %d ns; read %d ns, log force %d ns" label
        elapsed read_ns force_ns;
    (* the victim's write, a positioned page like the read, is the last
       request on the farm to finish *)
    let write_start = Disk_model.drain disks - read_ns in
    if write_start < t0 + force_ns then
      Alcotest.failf "%s: write-back started %d ns before the log was durable"
        label (t0 + force_ns - write_start);
    if n_disks = 1 && write_start < t0 + read_ns then
      Alcotest.failf "%s: write-back served %d ns ahead of the read" label
        (t0 + read_ns - write_start);
    check_int (label ^ ": one dirty victim") 1
      (Fpb_obs.Counter.value
         (Buffer_pool.stats pool).Buffer_pool.demand_dirty_victims);
    (* WAL-before-data: a failed force leaves the read submitted and the
       write not *)
    dirty_a ();
    Wal.set_crash_at_byte wal (Some (Wal.durable_bytes wal + 1));
    let r0 = Disk_model.reads disks and w0 = Disk_model.writes disks in
    (match Buffer_pool.with_page pool b ignore with
    | () -> Alcotest.failf "%s: the log force should have crashed" label
    | exception Wal.Crashed -> ());
    check_int (label ^ ": the read went out") (r0 + 1) (Disk_model.reads disks);
    check_int (label ^ ": no write-back past a failed force") w0
      (Disk_model.writes disks)
  in
  case ~n_disks:2 ~b_index:1;
  case ~n_disks:1 ~b_index:2

let suite =
  [
    Alcotest.test_case "codec round-trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec torn tail" `Quick test_codec_torn_tail;
    Alcotest.test_case "codec crc32 framing" `Quick test_codec_crc_framing;
    Alcotest.test_case "codec golden frames" `Quick test_codec_golden;
    Alcotest.test_case "diff_span cases" `Quick test_diff_span_cases;
    prop_diff_span_matches_reference;
    Alcotest.test_case "commit then recover" `Quick test_commit_recover;
    Alcotest.test_case "group commit loses buffered tail" `Quick
      test_group_commit_loss;
    Alcotest.test_case "explicit flush is durable" `Quick
      test_explicit_flush_durable;
    Alcotest.test_case "K=1: log damage detected, not absorbed" `Quick
      test_single_mirror_loss_detected;
    Alcotest.test_case "S=2: striped commit then recover" `Quick
      test_striped_commit_recover;
    Alcotest.test_case "S=2: cross-stripe loss detected by LSN gap" `Quick
      test_striped_loss_detected;
    Alcotest.test_case "S=2 x K=2: striping composes with mirroring" `Quick
      test_striped_mirror_survives;
    prop_striping_invariant;
    prop_mirror_survives_single_fault;
    prop_recovery_prefix;
    prop_logged_delta_is_full_diff;
    Alcotest.test_case "repair forces one counted full diff" `Quick
      test_repair_forces_one_full_diff;
    Alcotest.test_case "prefetch passes over dirty frames" `Quick
      test_prefetch_passes_over_dirty;
    Alcotest.test_case "demand read overlaps the victim's write-back" `Quick
      test_demand_read_overlaps_writeback;
  ]
