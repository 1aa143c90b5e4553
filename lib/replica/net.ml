(* Simulated one-way network link: latency + jitter + per-byte cost,
   transient loss cured by retransmission, probabilistic reordering,
   partition windows.  Deliveries are resequenced in order, so loss and
   reordering surface as head-of-line latency (TCP-like).  All draws
   come from the link's private PRNG substream. *)

module Prng = Fpb_workload.Prng
module Counter = Fpb_obs.Counter

type profile = {
  base_ns : int;
  jitter_ns : int;
  byte_ns : int;
  loss : float;
  rto_ns : int;
  reorder_p : float;
  reorder_extra_ns : int;
  partitions : (int * int) list;
}

let default_profile =
  {
    base_ns = 100_000;
    jitter_ns = 20_000;
    byte_ns = 1;
    loss = 0.;
    rto_ns = 1_000_000;
    reorder_p = 0.;
    reorder_extra_ns = 0;
    partitions = [];
  }

type stats = {
  msgs : Counter.t;
  bytes : Counter.t;
  drops : Counter.t;
  retransmits : Counter.t;
  reorders : Counter.t;
  partition_waits : Counter.t;
}

type t = {
  prng : Prng.t;
  mutable profile : profile;
  mutable last_delivery : int;
  stats : stats;
}

let create ~prng profile =
  {
    prng;
    profile;
    last_delivery = 0;
    stats =
      {
        msgs = Counter.make "net.msgs";
        bytes = Counter.make "net.bytes";
        drops = Counter.make "net.drops";
        retransmits = Counter.make "net.retransmits";
        reorders = Counter.make "net.reorders";
        partition_waits = Counter.make "net.partition_waits";
      };
  }

let profile t = t.profile
let set_profile t p = t.profile <- p

(* First instant at or after [at] outside every partition window. *)
let rec escape_partitions t at =
  match
    List.find_opt (fun (a, b) -> a <= at && at < b) t.profile.partitions
  with
  | Some (_, b) ->
      Counter.incr t.stats.partition_waits;
      escape_partitions t b
  | None -> at

let deliver t ~send ~bytes =
  let p = t.profile in
  Counter.incr t.stats.msgs;
  Counter.add t.stats.bytes bytes;
  (* Retransmit until a transmission survives loss; each attempt first
     waits out any partition window it falls into. *)
  let rec attempt at n =
    let at = escape_partitions t at in
    if p.loss > 0. && Prng.float t.prng < p.loss then begin
      Counter.incr t.stats.drops;
      Counter.incr t.stats.retransmits;
      attempt (at + p.rto_ns) (n + 1)
    end
    else begin
      let jitter = if p.jitter_ns > 0 then Prng.int t.prng (p.jitter_ns + 1) else 0 in
      let extra =
        if p.reorder_p > 0. && Prng.float t.prng < p.reorder_p then begin
          Counter.incr t.stats.reorders;
          p.reorder_extra_ns
        end
        else 0
      in
      at + p.base_ns + jitter + (bytes * p.byte_ns) + extra
    end
  in
  let raw = attempt send 0 in
  (* in-order resequencing: nothing overtakes its predecessor *)
  let dlv = max raw t.last_delivery in
  t.last_delivery <- dlv;
  dlv

let stats t = t.stats

let kv t =
  List.map Counter.kv
    [
      t.stats.msgs; t.stats.bytes; t.stats.drops; t.stats.retransmits;
      t.stats.reorders; t.stats.partition_waits;
    ]
