(* Tests for the shadow-paging checkpoint & snapshot subsystem: the
   indirection-table / superblock codecs, generation fallback past
   damaged metadata, frozen snapshot reads beside live updates, the
   bounded-replay guarantee, and a crash-at-every-flip-boundary
   property mirroring the WAL's recovery-prefix property. *)

open Fpb_simmem
open Fpb_btree_common
open Fpb_wal
open Fpb_snapshot
module X = Fpb_experiments

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- table / superblock codec --- *)

let sample_table =
  {
    Page_map.gen = 7;
    entries =
      Array.init 9 (fun id ->
          if id = 0 then { Page_map.disk = -1; phys = -1; lsn = 0 }
          else { Page_map.disk = id land 1; phys = 100 + id; lsn = 3 * id });
    marks = [| 4096; 0; 123 |];
    alloc = (8, [ 6; 3 ]);
    op = 42;
    meta = [ 5; -1; 1 lsl 30 ];
  }

let test_table_roundtrip () =
  let blob = Page_map.encode_table sample_table in
  match Page_map.decode_table blob ~len:(Bytes.length blob) with
  | None -> Alcotest.fail "table blob failed to decode"
  | Some tb ->
      check_int "gen" sample_table.Page_map.gen tb.Page_map.gen;
      check_int "op" sample_table.Page_map.op tb.Page_map.op;
      Alcotest.(check (list int)) "meta" sample_table.Page_map.meta
        tb.Page_map.meta;
      check_bool "marks" true (sample_table.Page_map.marks = tb.Page_map.marks);
      check_bool "alloc" true (sample_table.Page_map.alloc = tb.Page_map.alloc);
      check_bool "entries" true
        (sample_table.Page_map.entries = tb.Page_map.entries)

let test_table_rejects_damage () =
  let blob = Page_map.encode_table sample_table in
  let len = Bytes.length blob in
  (* any flipped body byte must fail the trailing CRC *)
  for off = 0 to len - 1 do
    let b = Bytes.copy blob in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
    if Page_map.decode_table b ~len <> None then
      Alcotest.failf "bit flip at byte %d accepted" off
  done;
  (* a truncated prefix must be rejected, not mis-framed *)
  for cut = 0 to len - 1 do
    if Page_map.decode_table blob ~len:cut <> None then
      Alcotest.failf "truncation to %d bytes accepted" cut
  done

(* --- persistence + generation fallback (Page_map level) --- *)

(* Two generations written through the dual-slot protocol; rotting the
   newer generation's superblock (or table slot) must make [load] step
   back to the older one, counting the fallback. *)
let write_gen map tb =
  let blob = Page_map.encode_table tb in
  let slot = tb.Page_map.gen land 1 in
  Page_map.write_table map ~slot blob;
  Page_map.write_superblock map ~gen:tb.Page_map.gen ~slot
    ~table_len:(Bytes.length blob) ~crc:(Page_map.table_crc blob) ()

let two_gens () =
  let map = Page_map.create ~page_size:4096 (Clock.create ()) in
  let g1 = { sample_table with Page_map.gen = 1; op = 10 } in
  let g2 = { sample_table with Page_map.gen = 2; op = 20 } in
  write_gen map g1;
  write_gen map g2;
  map

let test_load_newest () =
  let map = two_gens () in
  match Page_map.load map with
  | Some (tb, fallbacks) ->
      check_int "newest gen" 2 tb.Page_map.gen;
      check_int "no fallback" 0 fallbacks
  | None -> Alcotest.fail "load found nothing"

let test_superblock_fallback () =
  let map = two_gens () in
  Page_map.inject_damage map (Page_map.Superblock (2 land 1))
    (Page_map.Flip_bit { off = 9; bit = 3 });
  match Page_map.load map with
  | Some (tb, fallbacks) ->
      check_int "fell back to prior gen" 1 tb.Page_map.gen;
      check_int "prior gen's op" 10 tb.Page_map.op;
      check_bool "fallback counted" true (fallbacks >= 1)
  | None -> Alcotest.fail "fallback generation not found"

let test_table_slot_fallback () =
  let map = two_gens () in
  Page_map.inject_damage map (Page_map.Table (2 land 1))
    (Page_map.Zero_span { off = 8; len = 32 });
  match Page_map.load map with
  | Some (tb, fallbacks) ->
      check_int "fell back to prior gen" 1 tb.Page_map.gen;
      check_bool "fallback counted" true (fallbacks >= 1)
  | None -> Alcotest.fail "fallback generation not found"

let test_both_superblocks_dead () =
  let map = two_gens () in
  Page_map.inject_damage map (Page_map.Superblock 0)
    (Page_map.Zero_span { off = 0; len = 8 });
  Page_map.inject_damage map (Page_map.Superblock 1)
    (Page_map.Zero_span { off = 0; len = 8 });
  check_bool "nothing loadable" true (Page_map.load map = None)

(* --- system-level fixtures --- *)

let build_small kind n =
  let sys = X.Setup.make ~n_disks:2 ~pool_pages:64 ~page_size:4096 () in
  let rng = Fpb_workload.Prng.create 11 in
  let pairs = Fpb_workload.Keygen.bulk_pairs rng n in
  let idx = X.Run.build sys kind pairs ~fill:0.8 in
  (sys, pairs, idx)

let attach_shadow sys idx =
  let wal = Wal.attach ~meta:(Index_sig.meta idx) sys.X.Setup.pool in
  let shadow = Shadow.attach ~meta:(Index_sig.meta idx) wal sys.X.Setup.pool in
  (wal, shadow)

(* Apply [n] committed insert/delete operations drawn from [rng],
   mutating [model] alongside. *)
let run_ops idx wal rng pairs model ~first_op n =
  for i = 0 to n - 1 do
    let existing () =
      fst pairs.(Fpb_workload.Prng.int rng (Array.length pairs))
    in
    (match Fpb_workload.Prng.int rng 3 with
    | 0 ->
        let k = 1 + Fpb_workload.Prng.int rng 0x3FFFFFFE in
        let v = Fpb_workload.Prng.int rng 0xFFFF in
        ignore (Index_sig.insert idx k v);
        Hashtbl.replace model k v
    | 1 ->
        let k = existing () and v = Fpb_workload.Prng.int rng 0xFFFF in
        ignore (Index_sig.insert idx k v);
        Hashtbl.replace model k v
    | _ ->
        let k = existing () in
        ignore (Index_sig.delete idx k);
        Hashtbl.remove model k);
    Wal.commit wal ~op:(first_op + i) ~meta:(Index_sig.meta idx)
  done

(* --- frozen snapshot beside updates --- *)

let test_snapshot_frozen_scan () =
  let sys, pairs, idx = build_small X.Setup.Disk_first 400 in
  let wal, shadow = attach_shadow sys idx in
  let store = Fpb_storage.Buffer_pool.store sys.X.Setup.pool in
  let rng = Fpb_workload.Prng.create 23 in
  let model = Hashtbl.create 512 in
  Array.iter (fun (k, v) -> Hashtbl.replace model k v) pairs;
  run_ops idx wal rng pairs model ~first_op:1 30;
  Shadow.checkpoint_sync shadow ~meta:(Index_sig.meta idx);
  (* between operations the store's bytes ARE the committed state: copy
     them as the oracle for every frozen read *)
  let live = ref [] in
  Fpb_storage.Page_store.iter_live store (fun id -> live := id :: !live);
  let expected =
    List.map
      (fun id -> (id, Bytes.copy (Fpb_storage.Page_store.bytes store id)))
      !live
  in
  let snap = Shadow.open_at_checkpoint shadow in
  let frozen_gen = Shadow.snapshot_gen snap in
  (* updates and two further checkpoints proceed beside the snapshot *)
  run_ops idx wal rng pairs model ~first_op:31 40;
  Shadow.checkpoint_sync shadow ~meta:(Index_sig.meta idx);
  run_ops idx wal rng pairs model ~first_op:71 40;
  Shadow.checkpoint_sync shadow ~meta:(Index_sig.meta idx);
  check_bool "snapshot generation retained" true
    (List.mem frozen_gen (Shadow.retained_generations shadow));
  List.iter
    (fun (id, want) ->
      match Shadow.read snap id with
      | None -> Alcotest.failf "frozen page %d unreadable" id
      | Some got ->
          if not (Bytes.equal got want) then
            Alcotest.failf "frozen page %d changed under the snapshot" id)
    expected;
  (* CoW must actually have relocated overwritten pages *)
  let kv = Shadow.kv shadow in
  let g name = Option.value ~default:0 (List.assoc_opt name kv) in
  check_bool "remaps happened" true (g "pagemap.remaps" > 0);
  Shadow.close snap;
  (* with the pin dropped, the next flip retires the old generation *)
  Shadow.checkpoint_sync shadow ~meta:(Index_sig.meta idx);
  check_bool "pinned generation retired after close" true
    (not (List.mem frozen_gen (Shadow.retained_generations shadow)));
  Index_sig.check idx

(* --- damaged metadata at reboot (Shadow level) --- *)

let test_recover_falls_back_past_damage () =
  let sys, pairs, idx = build_small X.Setup.Disk_first 400 in
  let wal, shadow = attach_shadow sys idx in
  let rng = Fpb_workload.Prng.create 29 in
  let model = Hashtbl.create 512 in
  Array.iter (fun (k, v) -> Hashtbl.replace model k v) pairs;
  run_ops idx wal rng pairs model ~first_op:1 25;
  Shadow.checkpoint_sync shadow ~meta:(Index_sig.meta idx);
  run_ops idx wal rng pairs model ~first_op:26 25;
  Shadow.checkpoint_sync shadow ~meta:(Index_sig.meta idx);
  let live_gen = Shadow.current_generation shadow - 1 in
  Page_map.inject_damage (Shadow.map shadow)
    (Page_map.Superblock (live_gen land 1))
    (Page_map.Flip_bit { off = 13; bit = 0 });
  Wal.crash_now wal;
  let r = Shadow.recover shadow in
  check_int "all committed ops survive the fallback" 50 r.Wal.committed_ops;
  let kv = Shadow.kv shadow in
  let g name = Option.value ~default:0 (List.assoc_opt name kv) in
  check_bool "fallback counted" true (g "pagemap.superblock_fallbacks" >= 1);
  check_int "no plain recovery" 0 (g "ckpt.plain_recoveries");
  Index_sig.restore_meta idx r.Wal.meta;
  Index_sig.check idx;
  let want =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare
  in
  check_bool "key set matches the model" true (X.Oracle.key_set idx = want)

(* --- bounded replay --- *)

let test_replay_bounded_by_flip () =
  (* the same committed workload, recovered with and without fuzzy
     checkpoints: the shadow cut must shrink the scanned record count *)
  let scanned fuzzy =
    let sys, pairs, idx = build_small X.Setup.Disk_first 400 in
    let wal = Wal.attach ~meta:(Index_sig.meta idx) sys.X.Setup.pool in
    let shadow =
      if fuzzy then Some (Shadow.attach ~meta:(Index_sig.meta idx) wal sys.X.Setup.pool)
      else None
    in
    let rng = Fpb_workload.Prng.create 31 in
    let model = Hashtbl.create 512 in
    Array.iter (fun (k, v) -> Hashtbl.replace model k v) pairs;
    for batch = 0 to 3 do
      run_ops idx wal rng pairs model ~first_op:(1 + (batch * 15)) 15;
      match shadow with
      | Some sh -> Shadow.checkpoint_sync sh ~meta:(Index_sig.meta idx)
      | None -> ()
    done;
    Wal.crash_now wal;
    let r =
      match shadow with
      | Some sh -> Shadow.recover sh
      | None -> Wal.recover wal
    in
    check_int "all ops recovered" 60 r.Wal.committed_ops;
    r.Wal.scanned_records
  in
  let full = scanned false in
  let bounded = scanned true in
  check_bool
    (Printf.sprintf "bounded replay scans fewer records (%d < %d)" bounded
       full)
    true
    (bounded < full)

(* --- crash at every flip boundary (property) --- *)

let prop_flip_boundary_recovery =
  Util.qtest ~count:2 "crash at every flip boundary recovers committed prefix"
    QCheck2.Gen.(1 -- 1000)
    (fun seed ->
      List.for_all
        (fun kind ->
          let w = X.Oracle.workload X.Crashtest.mix ~seed 150 12 in
          List.for_all
            (fun crash_ckpt ->
              List.for_all
                (fun (crash_point, name) ->
                  let errs =
                    X.Crashtest.check_shadow_point kind w
                      ~ckpt_every:4 ~crash_ckpt ~crash_point
                      ~label:(Printf.sprintf "ckpt%d/%s" crash_ckpt name)
                  in
                  errs = [])
                X.Crashtest.shadow_crash_points)
            [ 1; 2; 3 ])
        [ X.Setup.Disk_first; X.Setup.Cache_first ])

let suite =
  [
    Alcotest.test_case "table codec round-trip" `Quick test_table_roundtrip;
    Alcotest.test_case "table codec rejects damage" `Quick
      test_table_rejects_damage;
    Alcotest.test_case "load picks the newest generation" `Quick
      test_load_newest;
    Alcotest.test_case "torn superblock falls back a generation" `Quick
      test_superblock_fallback;
    Alcotest.test_case "damaged table slot falls back a generation" `Quick
      test_table_slot_fallback;
    Alcotest.test_case "both superblocks dead: nothing loadable" `Quick
      test_both_superblocks_dead;
    Alcotest.test_case "snapshot stays frozen beside updates" `Quick
      test_snapshot_frozen_scan;
    Alcotest.test_case "recover falls back past damaged metadata" `Quick
      test_recover_falls_back_past_damage;
    Alcotest.test_case "replay bounded by the last flip" `Quick
      test_replay_bounded_by_flip;
    prop_flip_boundary_recovery;
  ]
