(* Variable-length-key trees (the paper's deferred extension): slotted
   nodes, the baseline slotted B+-Tree and the varkey disk-first
   fpB+-Tree, model-checked against a string-keyed Map. *)

open Fpb_simmem
module SM = Map.Make (String)
module VB = Fpb_varkey.Vk_btree
module VD = Fpb_varkey.Vk_disk_first

let test_slotted_basics () =
  let sim = Sim.create () in
  let r = Fpb_simmem.Mem.make ~bytes:(Bytes.create 4096) ~base:0 in
  let nd = { Fpb_varkey.Slotted.r; off = 64; size = 512 } in
  Fpb_varkey.Slotted.init sim nd ~leaf:true;
  Alcotest.(check int) "empty" 0 (Fpb_varkey.Slotted.count sim nd);
  assert (Fpb_varkey.Slotted.insert_at sim nd ~i:0 "mango" 1);
  assert (Fpb_varkey.Slotted.insert_at sim nd ~i:0 "apple" 2);
  assert (Fpb_varkey.Slotted.insert_at sim nd ~i:2 "pear" 3);
  Alcotest.(check int) "count" 3 (Fpb_varkey.Slotted.count sim nd);
  Alcotest.(check string) "sorted slot 0" "apple" (Fpb_varkey.Slotted.key_at sim nd 0);
  Alcotest.(check string) "sorted slot 2" "pear" (Fpb_varkey.Slotted.key_at sim nd 2);
  Alcotest.(check int) "ptr" 1 (Fpb_varkey.Slotted.ptr_at sim nd 1);
  Alcotest.(check int) "find lower" 1 (Fpb_varkey.Slotted.find sim nd ~key:"mango" `Lower);
  Alcotest.(check int) "find upper" 2 (Fpb_varkey.Slotted.find sim nd ~key:"mango" `Upper);
  (* fill to overflow *)
  let i = ref 0 in
  while Fpb_varkey.Slotted.insert_at sim nd ~i:0 (Printf.sprintf "k%06d" !i) !i do
    incr i
  done;
  Alcotest.(check bool) "eventually full" true (!i > 10);
  (* rebuild compacts *)
  let items = Fpb_varkey.Slotted.entries sim nd in
  Fpb_varkey.Slotted.rebuild sim nd items;
  Alcotest.(check int) "rebuild keeps entries" (List.length items)
    (Fpb_varkey.Slotted.count sim nd)

(* Deterministic random string keys of mixed length. *)
let key_gen rng _ =
  let len = 3 + Fpb_workload.Prng.int rng 20 in
  String.init len (fun _ -> Char.chr (97 + Fpb_workload.Prng.int rng 26))

module type VK = sig
  type t

  val create : unit -> t
  val insert : t -> string -> int -> [ `Inserted | `Updated ]
  val search : t -> string -> int option
  val check : t -> unit
  val iter : t -> (string -> int -> unit) -> unit
end

let oracle_run (module T : VK) ~ops ~seed =
  let t = T.create () in
  let rng = Fpb_workload.Prng.create seed in
  let m = ref SM.empty in
  for step = 1 to ops do
    let k = key_gen rng () in
    (if Fpb_workload.Prng.int rng 4 < 3 then begin
       let v = Fpb_workload.Prng.int rng 10000 in
       let r = T.insert t k v in
       assert ((r = `Updated) = SM.mem k !m);
       m := SM.add k v !m
     end
     else assert (T.search t k = SM.find_opt k !m));
    if step mod 2000 = 0 then T.check t
  done;
  T.check t;
  (* every key present, and the leaves hold exactly the model, in order *)
  SM.iter (fun k v -> assert (T.search t k = Some v)) !m;
  let got = ref [] in
  T.iter t (fun k v -> got := (k, v) :: !got);
  assert (List.rev !got = SM.bindings !m)

let vb_module pool =
  (module struct
    type nonrec t = VB.t

    let create () = VB.create pool
    let insert = VB.insert
    let search = VB.search
    let check = VB.check
    let iter = VB.iter
  end : VK)

let vd_module pool =
  (module struct
    type nonrec t = VD.t

    let create () = VD.create pool
    let insert = VD.insert
    let search = VD.search
    let check = VD.check
    let iter = VD.iter
  end : VK)

let test_vk_btree_oracle () =
  let pool = Util.make_pool ~page_size:4096 ~capacity:16384 () in
  oracle_run (vb_module pool) ~ops:12_000 ~seed:51

let test_vk_disk_first_oracle () =
  let pool = Util.make_pool ~page_size:4096 ~capacity:16384 () in
  oracle_run (vd_module pool) ~ops:12_000 ~seed:52

let prop_vk_disk_first_small =
  Util.qtest ~count:20 "vk disk-first random small runs"
    QCheck2.Gen.(pair (0 -- 10_000) (50 -- 600))
    (fun (seed, ops) ->
      let pool = Util.make_pool ~page_size:4096 ~capacity:16384 () in
      oracle_run (vd_module pool) ~ops ~seed;
      true)

let test_vk_sentinel_cases () =
  let pool = Util.make_pool ~page_size:4096 () in
  let t = VD.create pool in
  Alcotest.(check bool) "empty key rejected" true
    (try
       ignore (VD.insert t "" 1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "oversized key rejected" true
    (try
       ignore (VD.insert t (String.make 100 'x') 1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check (option int)) "search empty tree" None (VD.search t "zzz")

(* Both varkey trees link their leaf pages both ways, and [check] reads
   the backward links: breaking one must fail it. *)
let prev_link_checked vk_module ~leaf_kind () =
  let pool = Util.make_pool ~page_size:4096 ~capacity:16384 () in
  let (module T : VK) = vk_module pool in
  let t = T.create () in
  for i = 0 to 2999 do
    ignore (T.insert t (Printf.sprintf "key%06d" i) i)
  done;
  Util.expect_prev_link_caught pool
    ~is_leaf:(fun r -> Mem.peek_u8 r 0 = leaf_kind)
    ~prev:4 ~next:8
    (fun () -> T.check t)

let suite =
  [
    Alcotest.test_case "slotted node basics" `Quick test_slotted_basics;
    Alcotest.test_case "vk B+tree vs string Map" `Slow test_vk_btree_oracle;
    Alcotest.test_case "vk disk-first vs string Map" `Slow test_vk_disk_first_oracle;
    prop_vk_disk_first_small;
    Alcotest.test_case "vk key validation" `Quick test_vk_sentinel_cases;
    Alcotest.test_case "vk B+tree: check reads prev links" `Quick
      (prev_link_checked vb_module ~leaf_kind:1);
    Alcotest.test_case "vk disk-first: check reads prev links" `Quick
      (prev_link_checked vd_module ~leaf_kind:0);
  ]
