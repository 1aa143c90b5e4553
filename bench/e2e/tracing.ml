(* Outside-in tracing for the traced run.  Spans are opened and closed
   by the benchmark's own code around each call into a layer: the op (or
   batch) dispatch of the workload driver, the index call, the WAL
   commit and the checkpoint tick.  Nothing is charged to the simulated
   machine, so a traced run produces exactly the simulated results of an
   untraced one; only host time differs.

   Per span the tracer takes host ns (bechamel's monotonic clock),
   simulated ns and four counters (busy and stall cycles, pool I/O wait,
   shard-latch wait).  Self time is the span minus its child spans.  A
   dispatch that serves [k] ops weighs k: each of those ops waited for
   all of it.  Spans of the first [record_ops] ops are also kept, in
   preallocated arrays, for the Trace Event Format file. *)

open Fpb_btree_common
open Fpb_simmem
module Json = Fpb_obs.Json
module Counter = Fpb_obs.Counter

let op = 0
let core = 1
let wal = 2
let snapshot = 3
let layer_names = [| "workload"; "core"; "wal"; "snapshot" |]
let n_layers = Array.length layer_names
let record_ops = 10_000
let max_depth = 8
let max_spans = 8 * record_ops

type t = {
  sim : Sim.t;
  io_wait : Counter.t;
  shard_wait : Counter.t;
  (* open-span stack *)
  mutable depth : int;
  s_layer : int array;
  s_host : int array;
  s_sim : int array;
  s_busy : int array;
  s_stall : int array;
  s_io : int array;
  s_shard : int array;
  s_child : int array;
  (* per-layer totals *)
  self_host : int array;
  sim_ns : int array;  (** span simulated ns *)
  wait_ns : int array;
      (** weighted simulated ns a span spent outside CPU, cache, pool
          I/O and latch waits: log forces, flip writes *)
  (* per-dispatch ledger, weighted by the ops each dispatch serves *)
  mutable weight : int;
  mutable busy : int;
  mutable stall : int;
  mutable io : int;
  mutable shard : int;
  mutable service : int;
  mutable dispatches : int;
  (* reads through [core] *)
  mutable reads : int;
  mutable read_host : int;
  mutable read_sim : int;
  mutable keys_read : int;
  (* recorded spans *)
  mutable op_id : int;
  mutable tid : int;
  mutable n : int;
  r_op : int array;
  r_layer : int array;
  r_tid : int array;
  r_sim0 : int array;
  r_sim1 : int array;
  r_host : int array;
}

let create sim pool =
  let st = Fpb_storage.Buffer_pool.stats pool in
  let a n = Array.make n 0 in
  {
    sim;
    io_wait = st.Fpb_storage.Buffer_pool.io_wait_ns;
    shard_wait = st.Fpb_storage.Buffer_pool.shard_waits_ns;
    depth = 0;
    s_layer = a max_depth;
    s_host = a max_depth;
    s_sim = a max_depth;
    s_busy = a max_depth;
    s_stall = a max_depth;
    s_io = a max_depth;
    s_shard = a max_depth;
    s_child = a max_depth;
    self_host = a n_layers;
    sim_ns = a n_layers;
    wait_ns = a n_layers;
    weight = 1;
    busy = 0;
    stall = 0;
    io = 0;
    shard = 0;
    service = 0;
    dispatches = 0;
    reads = 0;
    read_host = 0;
    read_sim = 0;
    keys_read = 0;
    op_id = 0;
    tid = 0;
    n = 0;
    r_op = a max_spans;
    r_layer = a max_spans;
    r_tid = a max_spans;
    r_sim0 = a max_spans;
    r_sim1 = a max_spans;
    r_host = a max_spans;
  }

let host_now () = Int64.to_int (Monotonic_clock.now ())

let enter t layer =
  let d = t.depth in
  let st = t.sim.Sim.stats in
  t.s_layer.(d) <- layer;
  t.s_sim.(d) <- Sim.now t.sim;
  t.s_busy.(d) <- Counter.value st.Stats.busy;
  t.s_stall.(d) <- Counter.value st.Stats.stall;
  t.s_io.(d) <- Counter.value t.io_wait;
  t.s_shard.(d) <- Counter.value t.shard_wait;
  t.s_child.(d) <- 0;
  t.depth <- d + 1;
  t.s_host.(d) <- host_now ()

(* Close the innermost span; returns its host duration. *)
let leave t =
  let host1 = host_now () in
  let d = t.depth - 1 in
  t.depth <- d;
  let st = t.sim.Sim.stats in
  let layer = t.s_layer.(d) in
  let host = host1 - t.s_host.(d) in
  let sim0 = t.s_sim.(d) and sim1 = Sim.now t.sim in
  let busy = Counter.value st.Stats.busy - t.s_busy.(d) in
  let stall = Counter.value st.Stats.stall - t.s_stall.(d) in
  let io = Counter.value t.io_wait - t.s_io.(d) in
  let shard = Counter.value t.shard_wait - t.s_shard.(d) in
  let w = t.weight in
  t.self_host.(layer) <- t.self_host.(layer) + host - t.s_child.(d);
  if d > 0 then t.s_child.(d - 1) <- t.s_child.(d - 1) + host;
  t.sim_ns.(layer) <- t.sim_ns.(layer) + (sim1 - sim0);
  t.wait_ns.(layer) <-
    t.wait_ns.(layer) + (w * (sim1 - sim0 - busy - stall - io - shard));
  if layer = op then begin
    t.busy <- t.busy + (w * busy);
    t.stall <- t.stall + (w * stall);
    t.io <- t.io + (w * io);
    t.shard <- t.shard + (w * shard);
    t.service <- t.service + (w * (sim1 - sim0));
    t.dispatches <- t.dispatches + 1
  end;
  if t.op_id < record_ops && t.n < max_spans then begin
    let i = t.n in
    t.r_op.(i) <- t.op_id;
    t.r_layer.(i) <- layer;
    t.r_tid.(i) <- t.tid;
    t.r_sim0.(i) <- sim0;
    t.r_sim1.(i) <- sim1;
    t.r_host.(i) <- host;
    t.n <- i + 1
  end;
  host

(* A dispatch of [ops] operations, the first numbered [op_id], on
   driver track [tid] (the client; 0 for the batch server). *)
let begin_dispatch t ~op_id ~tid ~ops =
  t.op_id <- op_id;
  t.tid <- tid;
  t.weight <- ops;
  enter t op

let end_dispatch t = ignore (leave t)

let leave_read t ~reads ~keys ~sim0 =
  let host = leave t in
  t.reads <- t.reads + reads;
  t.read_host <- t.read_host + host;
  t.read_sim <- t.read_sim + (Sim.now t.sim - sim0);
  t.keys_read <- t.keys_read + keys

(* [Index_sig.S] forwarder: the same index handle, with every charged
   entry point bracketed by a [core] span. *)
module Forward
    (M : Index_sig.S)
    (T : sig
      val t : t
    end) : Index_sig.S with type t = M.t = struct
  include M

  let tr = T.t

  let read ~reads f found =
    let sim0 = Sim.now tr.sim in
    enter tr core;
    match f () with
    | r ->
        leave_read tr ~reads ~keys:(found r) ~sim0;
        r
    | exception e ->
        leave_read tr ~reads ~keys:0 ~sim0;
        raise e

  let write f =
    enter tr core;
    match f () with
    | r ->
        ignore (leave tr);
        r
    | exception e ->
        ignore (leave tr);
        raise e

  let search x k =
    read ~reads:1 (fun () -> M.search x k) (function None -> 0 | Some _ -> 1)

  let search_batch x ks =
    read ~reads:(Array.length ks)
      (fun () -> M.search_batch x ks)
      (Array.fold_left (fun n r -> if r = None then n else n + 1) 0)

  let range_scan x ?prefetch ~start_key ~end_key f =
    read ~reads:1 (fun () -> M.range_scan x ?prefetch ~start_key ~end_key f) Fun.id

  let insert x k v = write (fun () -> M.insert x k v)
  let delete x k = write (fun () -> M.delete x k)
end

let forward t (Index_sig.Instance ((module M), x)) =
  let module F =
    Forward
      (M)
      (struct
        let t = t
      end)
  in
  Index_sig.Instance ((module F), x)

(* Trace Event Format ("X" complete events): timestamps and durations
   in simulated microseconds, one track per logical client, host
   nanoseconds as an argument.  Opens in Perfetto / chrome://tracing. *)
let to_trace_json t ~workload =
  let us ns = Json.Float (float_of_int ns /. 1e3) in
  let events =
    List.init t.n (fun i ->
        Json.Obj
          [
            ("name", Json.Str layer_names.(t.r_layer.(i)));
            ("cat", Json.Str workload);
            ("ph", Json.Str "X");
            ("ts", us t.r_sim0.(i));
            ("dur", us (t.r_sim1.(i) - t.r_sim0.(i)));
            ("pid", Json.Int 1);
            ("tid", Json.Int t.r_tid.(i));
            ( "args",
              Json.Obj
                [ ("op", Json.Int t.r_op.(i)); ("host_ns", Json.Int t.r_host.(i)) ]
            );
          ])
  in
  Json.Obj
    [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.Str "ns") ]
