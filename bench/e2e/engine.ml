(* Builds one workload's system, runs its pre-drawn operation stream
   under the workload's driver, and checks every result afterwards.

   The program under test only ever sees generated keys: the whole
   action stream is drawn from [Mix.generator] before timing starts
   ([Mix.next] is uncharged and independent of results, so drawing ahead
   changes nothing the index sees), and it is kept as flat arrays so the
   measured loop allocates nothing of its own. *)

open Fpb_btree_common
open Fpb_storage
open Fpb_simmem
module W = Fpb_workload
module Setup = Fpb_experiments.Setup
module Wal = Fpb_wal.Wal
module Shadow = Fpb_snapshot.Shadow

(* Every sub-seed comes from the one [--seed]. *)
type seeds = { keys : int; mix : int; warm : int; arrivals : int }

let seeds seed =
  let r = W.Prng.create seed in
  let next () = Int64.to_int (W.Prng.next r) land 0x3fff_ffff in
  let keys = next () in
  let mix = next () in
  let warm = next () in
  let arrivals = next () in
  { keys; mix; warm; arrivals }

(* Action [i] is [kind.[i]] over operands [a.(i)], [b.(i)]:
   'r' read a | 'u' update a:=b | 'i' insert a:=b | 's' scan [a, b] |
   'm' read-modify-write a:=b. *)
type stream = { kind : Bytes.t; a : int array; b : int array }

let draw (spec : Spec.t) pairs ~seed n =
  let g =
    W.Mix.generator ~max_scan_span:spec.max_scan_span ~dist:spec.dist ~seed
      spec.mix pairs
  in
  let kind = Bytes.create n and a = Array.make n 0 and b = Array.make n 0 in
  for i = 0 to n - 1 do
    let c, x, y =
      match W.Mix.next g with
      | W.Mix.Read k -> ('r', k, 0)
      | W.Mix.Update (k, v) -> ('u', k, v)
      | W.Mix.Insert (k, v) -> ('i', k, v)
      | W.Mix.Scan (s, e) -> ('s', s, e)
      | W.Mix.Rmw (k, v) -> ('m', k, v)
    in
    Bytes.set kind i c;
    a.(i) <- x;
    b.(i) <- y
  done;
  { kind; a; b }

let is_read c = c = 'r' || c = 's'

type sys = {
  spec : Spec.t;
  s : Setup.system;
  idx : Index_sig.instance;
  wal : Wal.t option;
  shadow : Shadow.t option;
  pairs : (int * int) array;
  stream : stream;
  mutable commits : int;
}

(* Key generation, pre-draw, bulkload, WAL/Shadow attach, warm-up: the
   set-up a user pays once per system. *)
let build (spec : Spec.t) sd ~n_ops =
  let pairs = W.Keygen.bulk_pairs (W.Prng.create sd.keys) spec.keys in
  let stream = draw spec pairs ~seed:sd.mix n_ops in
  let s =
    Setup.make ~n_disks:spec.n_disks ~pool_pages:spec.pool_frames
      ~n_shards:spec.n_shards ~page_size:spec.page_size ()
  in
  let idx = Fpb_experiments.Run.build s spec.index pairs ~fill:spec.fill in
  let wal =
    if spec.wal then
      Some
        (Wal.attach ~group_commit_bytes:Spec.group_commit_bytes
           ~meta:(Index_sig.meta idx) s.Setup.pool)
    else None
  in
  let shadow =
    match wal with
    | Some w when spec.shadow_every > 0 ->
        Some (Shadow.attach ~meta:(Index_sig.meta idx) w s.Setup.pool)
    | _ -> None
  in
  (* A pool that can hold the whole tree starts fully resident; every
     pool then sees the workload's own popularity profile. *)
  if spec.pool_frames >= Index_sig.page_count idx then
    ignore
      (Index_sig.range_scan idx ~start_key:Key.min_key ~end_key:Key.max_key
         (fun _ _ -> ()));
  let rng = W.Prng.create sd.warm in
  let n = Array.length pairs in
  for _ = 1 to 2 * spec.pool_frames do
    ignore (Index_sig.search idx (fst pairs.(W.Keygen.draw_pos spec.dist rng ~n)))
  done;
  { spec; s; idx; wal; shadow; pairs; stream; commits = 0 }

(* What each op returned ([failed] if the pool refused it), its
   simulated latency, and the order ops took effect in. *)
type log = {
  res : int array;
  lat : int array;
  order : int array;
  mutable n : int;
  mutable failed : int;
  mutable probes : int;  (** reads served by [search_batch] *)
  mutable waves : int;
}

let failed = min_int

let new_log n =
  {
    res = Array.make n 0;
    lat = Array.make n 0;
    order = Array.make n 0;
    n = 0;
    failed = 0;
    probes = 0;
    waves = 0;
  }

type ctx = {
  sys : sys;
  run_idx : Index_sig.instance;  (** [sys.idx], or its tracing forwarder *)
  tr : Tracing.t option;
  log : log;
  meter : Host.Meter.t;
}

let enter c layer = match c.tr with Some t -> Tracing.enter t layer | None -> ()
let leave c = match c.tr with Some t -> ignore (Tracing.leave t) | None -> ()
let found = function None -> -1 | Some v -> v
let put idx k v = match Index_sig.insert idx k v with `Inserted -> 0 | `Updated -> 1

(* The write path's durability: WAL commit, then the fuzzy checkpoint's
   per-commit step. *)
let commit c =
  let sys = c.sys in
  match sys.wal with
  | None -> ()
  | Some w -> (
      sys.commits <- sys.commits + 1;
      enter c Tracing.wal;
      Wal.commit w ~op:sys.commits ~meta:(Index_sig.meta sys.idx);
      leave c;
      match sys.shadow with
      | None -> ()
      | Some sh ->
          if Shadow.checkpoint_in_progress sh then begin
            enter c Tracing.snapshot;
            ignore (Shadow.checkpoint_tick ~pages:2 sh ~meta:(Index_sig.meta sys.idx));
            leave c
          end
          else if sys.commits mod sys.spec.shadow_every = 0 then begin
            enter c Tracing.snapshot;
            Shadow.checkpoint_begin sh;
            leave c
          end)

let no_op (_ : int) (_ : int) = ()

let exec_one c i =
  let st = c.sys.stream and log = c.log in
  let k = st.a.(i) and v = st.b.(i) in
  log.order.(log.n) <- i;
  log.n <- log.n + 1;
  match
    match Bytes.get st.kind i with
    | 'r' -> found (Index_sig.search c.run_idx k)
    | 's' -> Index_sig.range_scan c.run_idx ~start_key:k ~end_key:v no_op
    | 'm' ->
        ignore (Index_sig.search c.run_idx k);
        let r = put c.run_idx k v in
        commit c;
        r
    | _ ->
        let r = put c.run_idx k v in
        commit c;
        r
  with
  | r -> log.res.(i) <- r
  | exception (Buffer_pool.Overloaded _ | Buffer_pool.Io_error _) ->
      log.res.(i) <- failed;
      log.failed <- log.failed + 1

let context ?tr sys meter =
  let run_idx =
    match tr with None -> sys.idx | Some t -> Tracing.forward t sys.idx
  in
  { sys; run_idx; tr; log = new_log (Bytes.length sys.stream.kind); meter }

(* Closed loop: op [i] is the i-th op the driver dispatches (the driver
   is deterministic, so so is the mapping); latency is the clock delta
   across the op, taken in the callback. *)
let run_closed c ~clients =
  let sim = c.sys.s.Setup.sim in
  let n = Bytes.length c.sys.stream.kind in
  let next = ref 0 in
  let op ~client ~seq:_ =
    let i = !next in
    incr next;
    let t0 = Sim.now sim in
    (match c.tr with
    | Some t -> Tracing.begin_dispatch t ~op_id:i ~tid:client ~ops:1
    | None -> ());
    exec_one c i;
    (match c.tr with Some t -> Tracing.end_dispatch t | None -> ());
    c.log.lat.(i) <- Sim.now sim - t0;
    Host.Meter.tick c.meter 1
  in
  Host.Meter.start c.meter;
  let st = W.Clients.run ~sim ~n_clients:clients ~ops_per_client:(n / clients) op in
  Host.Meter.stop c.meter;
  st

(* [Batch.run]'s arrival schedule, recomputed so each op's latency
   (arrival to its batch's completion) is exact rather than a histogram
   bucket.  [run_rung] checks the result against [Batch.run]'s own
   latency histogram. *)
let arrivals ~t0 ~seed ~rate n =
  let rng = W.Prng.create seed in
  let mean = 1e9 /. rate in
  let t = ref (float_of_int t0) in
  Array.init n (fun _ ->
      t := !t +. W.Prng.exponential rng ~mean;
      int_of_float !t)

(* Open loop, one rung: reads of a dispatch run as one [search_batch]
   wave, then its writes one at a time. *)
let run_rung c ~rate ~batch ~batch_wait_ns ~seed =
  let sim = c.sys.s.Setup.sim in
  let st = c.sys.stream and log = c.log in
  let n = Bytes.length st.kind in
  let arr = arrivals ~t0:(Sim.now sim) ~seed ~rate n in
  let exec seqs =
    let k = Array.length seqs in
    (match c.tr with
    | Some t -> Tracing.begin_dispatch t ~op_id:seqs.(0) ~tid:0 ~ops:k
    | None -> ());
    let reads = List.filter (fun i -> Bytes.get st.kind i = 'r') (Array.to_list seqs) in
    let reads = Array.of_list reads in
    if Array.length reads > 0 then begin
      Array.iter
        (fun i ->
          log.order.(log.n) <- i;
          log.n <- log.n + 1)
        reads;
      log.probes <- log.probes + Array.length reads;
      log.waves <- log.waves + 1;
      match Index_sig.search_batch c.run_idx (Array.map (fun i -> st.a.(i)) reads) with
      | r -> Array.iteri (fun j i -> log.res.(i) <- found r.(j)) reads
      | exception (Buffer_pool.Overloaded _ | Buffer_pool.Io_error _) ->
          Array.iter (fun i -> log.res.(i) <- failed) reads;
          log.failed <- log.failed + Array.length reads
    end;
    Array.iter (fun i -> if Bytes.get st.kind i <> 'r' then exec_one c i) seqs;
    (match c.tr with Some t -> Tracing.end_dispatch t | None -> ());
    let fin = Sim.now sim in
    Array.iter (fun i -> log.lat.(i) <- fin - arr.(i)) seqs;
    Host.Meter.tick c.meter k
  in
  Host.Meter.start c.meter;
  let bs =
    W.Batch.run ~sim ~n_ops:n ~rate_ops_per_s:rate ~seed ~batch ~batch_wait_ns exec
  in
  Host.Meter.stop c.meter;
  let sum = Array.fold_left ( + ) 0 log.lat in
  if
    Fpb_obs.Histogram.count bs.W.Batch.latency <> n
    || Fpb_obs.Histogram.sum bs.W.Batch.latency <> sum
  then failwith "batch latencies disagree with Batch.run's histogram";
  bs

(* ---------------------------------------------------------------- *)
(* Output oracle                                                     *)

module IS = Set.Make (Int)

(* Replays the log in effect order against a model (the bulk pairs, a
   table of written keys, the set of keys inserted fresh) and checks
   every read, batch slot and scan count, then the index's structural
   invariants and its final entry count.  Returns the live key count, or
   the first disagreement. *)
let check c =
  let pairs = c.sys.pairs and st = c.sys.stream and log = c.log in
  let nb = Array.length pairs in
  (* first position whose key is >= k *)
  let lower k =
    let lo = ref 0 and hi = ref nb in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst pairs.(mid) < k then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let written = Hashtbl.create 4096 in
  let fresh = ref IS.empty in
  let find k =
    match Hashtbl.find_opt written k with
    | Some v -> v
    | None ->
        let p = lower k in
        if p < nb && fst pairs.(p) = k then snd pairs.(p) else -1
  in
  let write k v =
    let r = if find k = -1 then 0 else 1 in
    if r = 0 && not (let p = lower k in p < nb && fst pairs.(p) = k) then
      fresh := IS.add k !fresh;
    Hashtbl.replace written k v;
    r
  in
  let count a b =
    let base = if b < a then 0 else lower (b + 1) - lower a in
    let extra =
      Seq.fold_left (fun n _ -> n + 1) 0
        (Seq.take_while (fun k -> k <= b) (IS.to_seq_from a !fresh))
    in
    base + extra
  in
  let kind_name = function
    | 'r' -> "read"
    | 's' -> "scan"
    | 'u' -> "update"
    | 'i' -> "insert"
    | _ -> "rmw"
  in
  let rec replay j =
    if j = log.n then Ok ()
    else
      let i = log.order.(j) in
      let k = st.a.(i) and v = st.b.(i) and c = Bytes.get st.kind i in
      if log.res.(i) = failed then replay (j + 1)
      else
        let want =
          match c with
          | 'r' -> find k
          | 's' -> count k v
          | _ -> write k v
        in
        if want = log.res.(i) then replay (j + 1)
        else
          Error
            (Printf.sprintf "op %d (%s %d %d): got %d, expected %d" i
               (kind_name c) k v log.res.(i) want)
  in
  match replay 0 with
  | Error _ as e -> e
  | Ok () -> (
      match Index_sig.check_invariants c.sys.idx with
      | Error e -> Error ("check_invariants: " ^ e)
      | Ok _ ->
          let live = nb + IS.cardinal !fresh in
          let entries = ref 0 in
          Index_sig.iter c.sys.idx (fun _ _ -> incr entries);
          if !entries <> live then
            Error (Printf.sprintf "index holds %d entries, expected %d" !entries live)
          else Ok live)
