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
