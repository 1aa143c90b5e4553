(* The recovery oracle shared by the crash sweeps ({!Crashtest}) and the
   chaos legs ({!Chaos}).

   Both harnesses run a seeded search/insert/delete workload against an
   index, break the machine, recover (or fail over), and ask the same
   question: does the recovered index hold exactly what the model says
   it must?  The abstraction from recovered state to a key->value map is
   [key_set], the index's in-order iteration; the model is the workload
   replayed on a hash table.  Checks record each violation as a message
   instead of raising, so a sweep reports every broken point; an
   exception from recovery, promotion, checking or iteration is itself a
   violation ([guard]). *)

open Fpb_btree_common
open Fpb_wal
module Prng = Fpb_workload.Prng
module Replica = Fpb_replica.Replica
module Shadow = Fpb_snapshot.Shadow

(* ------------------------------ workload ------------------------------ *)

type op = Search of int | Ins of int * int | Del of int

(* Percentages of searches of an existing key, inserts of a fresh key
   and updates of an existing key; the rest delete an existing key. *)
type mix = { search : int; insert : int; update : int }

type workload = { pairs : (int * int) array; ops : op list }

(* [n_bulk] bulkload pairs, then [n_ops] operations, both drawn from one
   PRNG seeded with [seed]. *)
let workload mix ~seed n_bulk n_ops =
  let rng = Prng.create seed in
  let pairs = Fpb_workload.Keygen.bulk_pairs rng n_bulk in
  let existing () = fst pairs.(Prng.int rng (Array.length pairs)) in
  let ops =
    List.init n_ops (fun _ ->
        let r = Prng.int rng 100 in
        if r < mix.search then Search (existing ())
        else if r < mix.search + mix.insert then
          Ins (1 + Prng.int rng 0x3FFFFFFE, Prng.int rng 0xFFFF)
        else if r < mix.search + mix.insert + mix.update then
          Ins (existing (), Prng.int rng 0xFFFF)
        else Del (existing ()))
  in
  { pairs; ops }

(* ------------------------------- model -------------------------------- *)

(* What the index must hold, and how many searches answered otherwise. *)
type model = { tbl : (int, int) Hashtbl.t; mutable wrong : int }

let step m = function
  | Search _ -> ()
  | Ins (k, v) -> Hashtbl.replace m.tbl k v
  | Del k -> Hashtbl.remove m.tbl k

(* The model after the first [c] operations of [w]. *)
let model w c =
  let m = { tbl = Hashtbl.create 1024; wrong = 0 } in
  Array.iter (fun (k, v) -> Hashtbl.replace m.tbl k v) w.pairs;
  List.iteri (fun i op -> if i < c then step m op) w.ops;
  m

let sorted m =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.tbl [] |> List.sort compare

let exec idx = function
  | Search k -> ignore (Index_sig.search idx k)
  | Ins (k, v) -> ignore (Index_sig.insert idx k v)
  | Del k -> ignore (Index_sig.delete idx k)

(* Run [op] on [idx] and on [m].  A search answering anything but the
   model's value counts as wrong: a successful read passed checksum
   verification, so a wrong answer means corrupt bytes were served.  The
   model follows an update only once the index call returned. *)
let apply m idx op =
  match op with
  | Search k ->
      if Index_sig.search idx k <> Hashtbl.find_opt m.tbl k then
        m.wrong <- m.wrong + 1
  | Ins _ | Del _ ->
      exec idx op;
      step m op

(* Apply and commit operations [from + 1 .. upto] (numbered from 1),
   calling [after opn] once op [opn]'s commit has returned. *)
let drive m idx wal w ~from ~upto after =
  List.iteri
    (fun i op ->
      let opn = i + 1 in
      if opn > from && opn <= upto then begin
        apply m idx op;
        Wal.commit wal ~op:opn ~meta:(Index_sig.meta idx);
        after opn
      end)
    w.ops

(* A fuzzy checkpoint, begun and ticked four pages at a time to the end. *)
let fuzzy_checkpoint shadow idx =
  Shadow.checkpoint_begin shadow;
  while
    not (Shadow.checkpoint_tick ~pages:4 shadow ~meta:(Index_sig.meta idx))
  do
    ()
  done

(* ------------------------------- checks ------------------------------- *)

(* Oracle violations, newest first. *)
type failures = string list ref

let fail (fs : failures) fmt = Printf.ksprintf (fun s -> fs := s :: !fs) fmt

(* [Some (f ())], or [None] with the exception recorded against [what]. *)
let guard fs what f =
  match f () with
  | v -> Some v
  | exception e ->
      fail fs "%s raised: %s" what (Printexc.to_string e);
      None

let key_set idx =
  let got = ref [] in
  Index_sig.iter idx (fun k v -> got := (k, v) :: !got);
  List.sort compare !got

let check_answers fs m =
  if m.wrong > 0 then
    fail fs "%d searches silently returned wrong answers" m.wrong

(* [idx] passes its structural check and holds exactly [want]; [stage]
   names the state in the messages. *)
let check_state fs ~stage idx want =
  ignore
    (guard fs (stage ^ " structural check") (fun () -> Index_sig.check idx));
  ignore
    (guard fs (stage ^ " key-set read") (fun () ->
         let got = key_set idx in
         if got <> want then
           fail fs "%s key set mismatch: %d entries, %d expected" stage
             (List.length got) (List.length want)))

(* Recovery [r] found [committed] ops, and [idx], restored from its
   metadata, is sound and holds exactly [want]. *)
let check_recovered fs idx (r : Wal.recovery) ~committed want =
  if r.committed_ops <> committed then
    fail fs "recovered %d committed ops, expected %d" r.committed_ops
      committed;
  let restore () = Index_sig.restore_meta idx r.meta in
  match guard fs "restore_meta" restore with
  | Some () -> check_state fs ~stage:"recovered" idx want
  | None -> ()

(* Availability: the recovered system keeps running.  Re-apply every op
   past [from] to [idx] and to [m] (the model at [from]), committing each
   to [wal]; run [sync]; then [idx] must match the full model. *)
let check_continuation fs m idx wal w ~from sync =
  match
    guard fs "continuation" (fun () ->
        drive m idx wal w ~from ~upto:(List.length w.ops) ignore;
        sync ())
  with
  | Some () ->
      check_answers fs m;
      check_state fs ~stage:"post-continuation" idx (sorted m)
  | None -> ()

(* ------------------------------ failover ------------------------------ *)

(* The highest op any node holds durably at [horizon]. *)
let best_durable group ~horizon =
  let best = ref 0 in
  for i = 0 to Replica.n_nodes group - 1 do
    best :=
      max !best (Replica.node_durable_op group (Replica.node group i) ~horizon)
  done;
  !best

(* Under [Semi_sync] the promoted op keeps every commit [acked] by the
   kill; under [Async] it is exactly the most advanced durable prefix
   [best]; in both it is never ahead of the commits that [returned]. *)
let check_promotion fs ~mode ~acked ~best ~returned promoted =
  (match mode with
  | Replica.Semi_sync _ ->
      if promoted < acked then
        fail fs "promotion lost %d acked commits (acked %d, promoted %d)"
          (acked - promoted) acked promoted
  | Replica.Async ->
      if promoted <> best then
        fail fs "async promotion op %d, most-advanced durable prefix is %d"
          promoted best);
  if promoted > returned then
    fail fs "promotion op %d ahead of the %d commits that ever returned"
      promoted returned

(* After [Replica.kill group]: promote, check the rule, adopt the promoted
   state as an index of [kind] and check it against the model at the
   promoted op, continue the workload on it, and require the surviving
   replica to converge on the whole history.  Returns the promotion and
   the resumed group. *)
let failover fs kind w group ~mode ~acked ~returned =
  let horizon = Option.get (Replica.killed_at group) in
  let best = best_durable group ~horizon in
  let p = Replica.promote group in
  let op = p.Replica.committed_op in
  check_promotion fs ~mode ~acked ~best ~returned op;
  let idx = Run.adopt kind p.Replica.pool ~meta:p.Replica.meta in
  let m = model w op in
  check_state fs ~stage:"promoted" idx (sorted m);
  let g2 = Replica.resume group p in
  check_continuation fs m idx p.Replica.wal w ~from:op ignore;
  let n = List.length w.ops in
  let synced = Replica.sync_node g2 ~horizon:max_int (Replica.node g2 0) in
  if synced <> n then
    fail fs "surviving replica converged to op %d, expected %d" synced n;
  (p, g2)
