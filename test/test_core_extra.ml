(* fpB+-Tree-specific tests: jump-pointer array mechanics, in-page
   structure behaviour, tuned configuration sanity, split pressure. *)

open Fpb_storage
open Fpb_simmem
open Fpb_core

let check_int = Alcotest.(check int)

(* --- Jump-pointer array ---------------------------------------------------- *)

let with_jp f =
  let pool = Util.make_pool ~page_size:4096 () in
  let jp = Jump_array.create pool in
  f pool jp

let test_jp_build_and_cursor () =
  with_jp (fun pool jp ->
      let store = Buffer_pool.store pool in
      let pages = Array.init 50 (fun _ -> Page_store.alloc store) in
      let assigned = Hashtbl.create 64 in
      Jump_array.build jp pages ~fill:0.5 ~on_assign:(fun pg ~chunk ->
          Hashtbl.replace assigned pg chunk);
      Alcotest.(check (list int)) "all ids in order" (Array.to_list pages)
        (Jump_array.peek_all jp);
      check_int "every page assigned" 50 (Hashtbl.length assigned);
      (* cursor from the middle *)
      let mid = pages.(20) in
      let cur =
        Jump_array.cursor_at jp ~chunk:(Hashtbl.find assigned mid) ~page:mid
      in
      let rest = ref [] in
      let rec drain () =
        match Jump_array.next cur with
        | Some id ->
            rest := id :: !rest;
            drain ()
        | None -> ()
      in
      drain ();
      Alcotest.(check (list int)) "cursor suffix"
        (Array.to_list (Array.sub pages 20 30))
        (List.rev !rest))

let test_jp_insert_and_split () =
  with_jp (fun pool jp ->
      let store = Buffer_pool.store pool in
      let pages = Array.init 10 (fun _ -> Page_store.alloc store) in
      let assigned = Hashtbl.create 64 in
      let on_assign pg ~chunk = Hashtbl.replace assigned pg chunk in
      Jump_array.build jp pages ~fill:1.0 ~on_assign;
      (* insert a new page after each existing one; chunk fill 1.0 means the
         first insert forces a chunk split *)
      let extra = Array.init 10 (fun _ -> Page_store.alloc store) in
      Array.iteri
        (fun i np ->
          let after = pages.(i) in
          Jump_array.insert_after jp
            ~chunk:(Hashtbl.find assigned after)
            ~after_page:after ~new_page:np ~on_assign)
        extra;
      let expected =
        List.concat_map (fun i -> [ pages.(i); extra.(i) ]) (List.init 10 Fun.id)
      in
      Alcotest.(check (list int)) "interleaved order" expected (Jump_array.peek_all jp);
      (* every page's recorded chunk really contains it *)
      Hashtbl.iter
        (fun pg chunk ->
          let cur = Jump_array.cursor_at jp ~chunk ~page:pg in
          match Jump_array.next cur with
          | Some id -> check_int "cursor lands on page" pg id
          | None -> Alcotest.fail "cursor empty")
        assigned)

(* --- Disk-first specifics ---------------------------------------------------- *)

let test_df_config () =
  let pool = Util.make_pool ~page_size:16384 () in
  let t = Disk_first.create pool in
  let c = Disk_first.cfg t in
  check_int "w" 3 c.Disk_first.w;
  check_int "x" 9 c.Disk_first.x;
  Alcotest.(check bool) "max_leaves sane" true
    (c.max_leaves * c.fl >= c.max_fanout)

let test_df_page_split_pressure () =
  (* fill a 100%-bulkloaded single-page region and force splits/reorgs *)
  let pool = Util.make_pool ~page_size:4096 () in
  let t = Disk_first.create pool in
  Disk_first.bulkload t (Array.init 400 (fun i -> (10 * i, i))) ~fill:1.0;
  for i = 0 to 4000 do
    ignore (Disk_first.insert t ((10 * i) + 5) i)
  done;
  Disk_first.check t;
  check_int "all present" 4401
    (Disk_first.range_scan t ~start_key:min_int ~end_key:max_int (fun _ _ -> ()))

let test_df_custom_widths () =
  let pool = Util.make_pool ~page_size:16384 () in
  let t = Disk_first.create_custom pool ~w:1 ~x:4 in
  Disk_first.bulkload t (Array.init 20_000 (fun i -> (i, i))) ~fill:0.9;
  Disk_first.check t;
  Alcotest.(check (option int)) "search" (Some 777) (Disk_first.search t 777)

(* --- Cache-first specifics ---------------------------------------------------- *)

let test_cf_config () =
  let pool = Util.make_pool ~page_size:16384 () in
  let t = Cache_first.create pool in
  let c = Cache_first.cfg t in
  check_int "node lines" 11 c.Cache_first.w;
  check_int "slots" 23 c.slots;
  check_int "fn" 69 c.fn;
  check_int "fl" 87 c.fl

let test_cf_overflow_pages_exist () =
  (* a three-node-level tree at 4KB must place most leaf parents in
     overflow pages (paper Section 4.3.1: 51 of 57) *)
  let pool = Util.make_pool ~page_size:4096 ~capacity:16384 () in
  let t = Cache_first.create pool in
  Cache_first.bulkload t (Array.init 300_000 (fun i -> (i, i))) ~fill:1.0;
  Cache_first.check t;
  Alcotest.(check bool) "tree has 3+ node levels" true (Cache_first.height t >= 3)

let test_cf_jp_tracks_splits () =
  let pool = Util.make_pool ~page_size:4096 ~capacity:16384 () in
  let t = Cache_first.create pool in
  Cache_first.bulkload t (Array.init 50_000 (fun i -> (4 * i, i))) ~fill:1.0;
  for i = 0 to 20_000 do
    ignore (Cache_first.insert t ((4 * i) + 1) i)
  done;
  (* check () verifies the jump-pointer array lists exactly the leaf pages
     in order, so passing it after heavy splitting is the assertion *)
  Cache_first.check t

(* [check] reads the jump-pointer chunk list both ways, the links a chunk
   split wrote included: it passes after inserts split the first chunk,
   and fails with the second chunk's prev link overwritten.  Chunk
   layout: 0 i32 next chunk, 4 i32 prev chunk. *)
let test_cf_jp_prev_link_checked () =
  let pool = Util.make_pool ~page_size:1024 ~capacity:16384 () in
  let t = Cache_first.create pool in
  Cache_first.bulkload t (Array.init 40_000 (fun i -> (2 * i, i))) ~fill:1.0;
  let n_chunks () = List.nth (Cache_first.meta t) 6 in
  let built = n_chunks () in
  for i = 0 to 9_999 do
    ignore (Cache_first.insert t ((2 * i) + 1) i)
  done;
  if n_chunks () <= built then Alcotest.fail "no chunk split";
  Cache_first.check t;
  let head = List.nth (Cache_first.meta t) 5 in
  let peek = Fpb_btree_common.Page_chain.peek pool in
  let second = Mem.peek_i32 (peek head) 0 in
  if second = Page_store.nil then Alcotest.fail "the jump-pointer array has one chunk";
  Alcotest.(check int) "second chunk points back at the head" head
    (Mem.peek_i32 (peek second) 4);
  Buffer_pool.with_page pool second (fun r ->
      Mem.write_i32 (Buffer_pool.sim pool) r 4 Page_store.nil);
  match Cache_first.check t with
  | () -> Alcotest.fail "check passed with a chunk's prev link broken"
  | exception Failure msg ->
      let expected = Printf.sprintf "page %d: prev link" second in
      if not (String.starts_with ~prefix:expected msg) then
        Alcotest.failf "check failed otherwise: %s" msg

let test_cf_page_count_includes_jp () =
  let pool = Util.make_pool ~page_size:4096 () in
  let t = Cache_first.create pool in
  Cache_first.bulkload t (Array.init 10_000 (fun i -> (i, i))) ~fill:1.0;
  Alcotest.(check bool) "page_count > index pages" true
    (Cache_first.page_count t > Cache_first.index_page_count t - 1)

(* --- Shared: mature-tree space behaviour ------------------------------------- *)

let test_space_overhead_bounds () =
  (* paper Figure 16(a): disk-first overhead < 9%, cache-first < 5% right
     after a 100% bulkload *)
  let n = 200_000 in
  let pairs = Array.init n (fun i -> (3 * i, i)) in
  let pages kind =
    let pool = Util.make_pool ~page_size:16384 ~capacity:65536 () in
    let idx = Fpb_experiments.Setup.make_index kind pool in
    Fpb_btree_common.Index_sig.bulkload idx pairs ~fill:1.0;
    Fpb_btree_common.Index_sig.page_count idx
  in
  let base = pages Fpb_experiments.Setup.Disk_opt in
  let df = pages Fpb_experiments.Setup.Disk_first in
  let cf = pages Fpb_experiments.Setup.Cache_first in
  let pct x = 100. *. (float_of_int x /. float_of_int base -. 1.) in
  Alcotest.(check bool)
    (Printf.sprintf "disk-first overhead %.1f%% < 10%%" (pct df))
    true (pct df < 10.);
  Alcotest.(check bool)
    (Printf.sprintf "cache-first overhead %.1f%% < 10%%" (pct cf))
    true (pct cf < 10.)

let test_pbtree_allocated_bytes () =
  let sim = Sim.create () in
  let t = Fpb_pbtree.Pbtree.create sim in
  Fpb_pbtree.Pbtree.bulkload t (Array.init 10_000 (fun i -> (i, i))) ~fill:1.0;
  Alcotest.(check bool) "arena grows" true (Fpb_pbtree.Pbtree.allocated_bytes t > 10_000 * 8)

let suite =
  [
    Alcotest.test_case "jump array: build + cursor" `Quick test_jp_build_and_cursor;
    Alcotest.test_case "jump array: insert + chunk split" `Quick test_jp_insert_and_split;
    Alcotest.test_case "disk-first: tuned config" `Quick test_df_config;
    Alcotest.test_case "disk-first: split/reorg pressure" `Quick test_df_page_split_pressure;
    Alcotest.test_case "disk-first: custom widths" `Quick test_df_custom_widths;
    Alcotest.test_case "cache-first: tuned config" `Quick test_cf_config;
    Alcotest.test_case "cache-first: deep tree + overflow" `Slow test_cf_overflow_pages_exist;
    Alcotest.test_case "cache-first: jump array tracks splits" `Quick test_cf_jp_tracks_splits;
    Alcotest.test_case "cache-first: check reads chunk prev links" `Quick
      test_cf_jp_prev_link_checked;
    Alcotest.test_case "cache-first: page count includes jump array" `Quick
      test_cf_page_count_includes_jp;
    Alcotest.test_case "space overhead bounds (Fig 16a)" `Slow test_space_overhead_bounds;
    Alcotest.test_case "pbtree arena accounting" `Quick test_pbtree_allocated_bytes;
  ]
