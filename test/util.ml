(* Shared test helpers. *)

open Fpb_simmem
open Fpb_storage

let make_system ?(page_size = 4096) ?(n_disks = 4) ?(capacity = 8192)
    ?(n_prefetchers = 4) ?n_shards () =
  let sim = Sim.create () in
  let store = Page_store.create ~page_size ~n_disks in
  let disks =
    Disk_model.create
      ~transfer_ns:(Disk_model.transfer_ns_of_page_size page_size)
      ~n_disks sim.Sim.clock
  in
  let pool =
    Buffer_pool.create ~n_prefetchers ?n_shards ~capacity sim store disks
  in
  (sim, store, disks, pool)

let make_pool ?page_size ?n_disks ?capacity ?n_shards () =
  let _, _, _, pool = make_system ?page_size ?n_disks ?capacity ?n_shards () in
  pool

let qtest ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

(* Overwrite one leaf page's backward link with [Page_store.nil] and
   expect [check] to fail on it.  The page is the first live one, by page
   ID, that [is_leaf] accepts and whose prev link (at byte [prev]) names
   a live page whose next link (at byte [next]) names it back. *)
let expect_prev_link_caught pool ~is_leaf ~prev ~next check =
  let store = Buffer_pool.store pool in
  let peek p =
    let r = Buffer_pool.get pool p in
    Buffer_pool.unpin pool p;
    r
  in
  let linked = ref [] in
  Page_store.iter_live store (fun p ->
      let r = peek p in
      let back = Mem.peek_i32 r prev in
      if is_leaf r && back <> Page_store.nil && Page_store.is_live store back
         && Mem.peek_i32 (peek back) next = p
      then linked := p :: !linked);
  match List.sort compare !linked with
  | [] -> Alcotest.fail "no leaf page has a left neighbour"
  | page :: _ -> (
      check ();
      Buffer_pool.with_page pool page (fun r ->
          Mem.write_i32 (Buffer_pool.sim pool) r prev Page_store.nil);
      match check () with
      | () -> Alcotest.failf "check passed with page %d's prev link broken" page
      | exception Failure msg ->
          let has_prev_link =
            let n = String.length msg in
            let rec at i = i + 9 <= n && (String.sub msg i 9 = "prev link" || at (i + 1)) in
            at 0
          in
          if not has_prev_link then Alcotest.failf "check failed otherwise: %s" msg)
