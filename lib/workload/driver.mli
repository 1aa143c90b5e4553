(** The workload driver: one conservative discrete-event loop over the
    simulated clock for closed-loop, open-loop and batched service.

    {b Arrivals.} Op [j] belongs to client [j mod n_clients].  A
    [Closed] source gives each client [ops_per_client] ops and issues a
    client's next op the instant its previous one completes (or is
    dropped for good), so offered load adapts to capacity and overload
    shows up only as a throughput plateau.  An [Open] source fixes
    every op's first arrival up front — Poisson or fixed-rate, from the
    seed — independent of how the system keeps up, like traffic from a
    large population of independent users; past saturation its queues
    and tail latency grow without bound.

    {b Service.} Every arrival (fresh, retried or closed-loop) passes the
    {!Admission} policy and joins its client's FIFO.  A client dispatches
    once it is free and either [batch] ops are queued or its oldest
    queued op has waited [batch_wait_ns] — the size-or-timeout rule.
    [batch = 1] is per-op service; one client with [batch > 1] is a
    batch server whose dispatches run as level-wise [search_batch]
    waves.

    {b Overload control.} Ops may carry a deadline ([deadline_ns], from
    first arrival): completions within it are goodput.  Deadline-aware
    admission also drops, at dispatch, ops whose deadline has passed.
    Shed and dropped ops consult the client {!Retry} policy.  An open
    source may switch rate mid-run ([rate_change]); that second phase
    is reported separately ([stats.recovery]).

    {b Order.} The loop always takes the earliest event, an arrival or a
    client's next dispatch; arrivals win ties, and among dispatches the
    lowest client index wins.  It rewinds the shared clock to each
    dispatch and the callback runs the whole dispatch forward in host
    order.  Shard latches and the memory pipeline keep busy-interval
    timelines ({!Fpb_simmem.Timeline}), so a rewound client waits on
    them only where it overlaps another client's span (for the latch an
    approximation: a hold may run into one already executed, counted in
    [pool.shard.overlaps]); disks, the
    prefetcher pool, the WAL log force and the CPU-cache miss handlers
    keep a single free-at time, so there it queues behind everything
    already executed, an approximation.  A run is reproducible from its
    seed.  Latency is measured from an op's first arrival.  See
    [docs/WORKLOADS.md]. *)

(** Inter-arrival law: [Poisson] (exponential gaps, the memoryless
    many-independent-users model) or [Fixed] (constant gap, a paced
    load generator). *)
type discipline = Poisson | Fixed

val discipline_name : discipline -> string

type source =
  | Closed of { ops_per_client : int }
  | Open of {
      n_ops : int;
      rate_ops_per_s : float;
      discipline : discipline;
      rate_change : (int * float) option;
          (** [(j, r)]: ops [j] onwards arrive at rate [r] *)
    }

(** [open_loop ~n_ops rate] is an [Open] source ([discipline] default
    [Poisson], no [rate_change]). *)
val open_loop :
  ?discipline:discipline ->
  ?rate_change:int * float ->
  n_ops:int ->
  float ->
  source

type config = {
  source : source;
  n_clients : int;
  batch : int;  (** size trigger *)
  batch_wait_ns : int;  (** timeout trigger, from the oldest queued op *)
  seed : int;  (** arrival schedule, then retry jitter *)
  deadline_ns : int option;
  admission : Admission.t;
  retry : Retry.t;
}

(** [config source] with one client, per-op service ([batch = 1],
    [batch_wait_ns = 0]), seed 4242, no deadline, {!Admission.Admit_all}
    and {!Retry.none} unless given. *)
val config :
  ?n_clients:int ->
  ?batch:int ->
  ?batch_wait_ns:int ->
  ?seed:int ->
  ?deadline_ns:int ->
  ?admission:Admission.t ->
  ?retry:Retry.t ->
  source ->
  config

(** [check c] is [Error msg] when a parameter is out of range: fewer
    than one client, [batch < 1], [batch_wait_ns < 0], a non-positive
    deadline, rate or new rate, a queue cap below 1, a negative op
    count, or a [rate_change] index outside [0, n_ops]. *)
val check : config -> (unit, string) result

(** The run's stats, in a submodule so that the {!Clients} and {!Batch}
    adapters can re-export the field names with [include Driver.Stats]. *)
module Stats : sig
  (** Stats over the second phase of a [rate_change] run — the {e
      recovery window}, classified by the op's original arrival index. *)
  type window = {
    w_offered : int;  (** fresh arrivals in the window *)
    w_completed : int;
    w_good : int;  (** completed within their deadline *)
    w_shed : int;  (** admission rejections of window ops (events) *)
    w_dropped : int;  (** window ops that died with their retry budget *)
    w_span_ns : int;  (** first window arrival to last completion *)
    w_goodput_ops_per_s : float;
  }

  type stats = {
    ops : int;  (** ops offered: fresh arrivals, or clients × ops each *)
    offered_ops_per_s : float;
        (** the configured (phase-1) arrival rate; 0 for closed loop *)
    makespan_ns : int;  (** start to last completion *)
    latency : Fpb_obs.Histogram.t;
        (** per completed op, first arrival → its dispatch's completion
            ([driver.latency_ns]) — queueing, batching and retry delay
            included *)
    queue_ns : Fpb_obs.Histogram.t;
        (** per served attempt, (re-)enqueue → dispatch
            ([driver.queue_ns]) *)
    service_ns : Fpb_obs.Histogram.t;
        (** per dispatch, dispatch → completion ([driver.service_ns]) *)
    batch_fill : Fpb_obs.Histogram.t;
        (** ops served per dispatch ([driver.batch_fill]) *)
    throughput_ops_per_s : float;  (** completed ops / makespan *)
    batches : int;  (** dispatches that served at least one op *)
    mean_batch : float;  (** [completed / batches] *)
    max_backlog : int;  (** peak number of admitted, undispatched ops *)
    backlog_peak_at_ns : int;
        (** when (relative to the start) the backlog first reached
            [max_backlog] *)
    time_above_watermark_ns : int;
        (** simulated time the backlog spent above [backlog_watermark] *)
    backlog_watermark : int;  (** 4 × clients *)
    completed : int;  (** ops served *)
    good : int;  (** completed within their deadline (all, without one) *)
    shed : int;  (** admission rejections (events; retries re-offer) *)
    expired : int;
        (** deadline misses: dropped at dispatch under [Deadline_aware],
            or completed late under the other policies *)
    retries : int;  (** re-entries scheduled by the retry policy *)
    dropped : int;  (** ops that never completed: retry budget spent *)
    goodput_ops_per_s : float;  (** [good] / makespan *)
    recovery : window option;  (** phase 2 of a [rate_change] run *)
  }
end

include module type of struct
  include Stats
end

(** [run ~sim c exec] drives [c] to completion and returns its stats.
    Each dispatch calls [exec ~client seqs] with the client and its
    batch's ops in arrival order; [exec] must advance the simulated
    clock by the dispatch's service time.  Open-loop ops are numbered
    globally in first-arrival order; closed-loop ops by their index
    within their client.  The clock is left at the last completion.
    @raise Invalid_argument if {!check} rejects [c]. *)
val run :
  sim:Fpb_simmem.Sim.t -> config -> (client:int -> int array -> unit) -> stats

(** [each op] serves a dispatch by running [op ~client ~seq] for each of
    its ops in turn — per-op service for callers that do not batch. *)
val each :
  (client:int -> seq:int -> unit) -> client:int -> int array -> unit
