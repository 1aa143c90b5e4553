(** Simulated one-way network link sharing the discrete-event clock.

    A link carries framed WAL records (and acks, and snapshot pages)
    from one node to another under a fault profile in the spirit of
    {!Fpb_storage.Fault}: a latency floor plus uniform jitter, per-byte
    transfer cost, transient loss cured by timeout-and-retransmit,
    probabilistic reordering, and scheduled partition windows during
    which nothing gets through.  Delivery is in order — a message that
    would overtake its predecessor is held back, so reordering and
    retransmission surface as head-of-line latency, exactly as they do
    on a TCP-like transport.

    Every draw comes from the link's own {!Fpb_workload.Prng} substream
    (use {!Fpb_workload.Prng.split}), so fault schedules never perturb
    workload key draws and exact-rerun determinism survives replication. *)

type profile = {
  base_ns : int;  (** propagation + service floor per message *)
  jitter_ns : int;  (** uniform extra in [0, jitter_ns] *)
  byte_ns : int;  (** transfer cost per payload byte *)
  loss : float;  (** per-transmission loss probability, [0, 1) *)
  rto_ns : int;  (** retransmission timeout after a lost transmission *)
  reorder_p : float;  (** probability of an out-of-order extra delay *)
  reorder_extra_ns : int;  (** the extra delay a reordered message draws *)
  partitions : (int * int) list;
      (** absolute [start, stop) windows (simulated ns) during which no
          transmission succeeds; a send inside a window waits it out *)
}

(** 100 us floor, 20 us jitter, 1 ns/byte (~1 GB/s), lossless, no
    partitions: a healthy datacenter link. *)
val default_profile : profile

type stats = {
  msgs : Fpb_obs.Counter.t;  (** [net.msgs] *)
  bytes : Fpb_obs.Counter.t;  (** [net.bytes] *)
  drops : Fpb_obs.Counter.t;  (** [net.drops]: transmissions lost *)
  retransmits : Fpb_obs.Counter.t;  (** [net.retransmits] *)
  reorders : Fpb_obs.Counter.t;  (** [net.reorders] *)
  partition_waits : Fpb_obs.Counter.t;  (** [net.partition_waits] *)
}

type t

(** [create ~prng profile] — [prng] becomes the link's private stream
    (pass a fresh {!Fpb_workload.Prng.split} child, not a shared
    generator). *)
val create : prng:Fpb_workload.Prng.t -> profile -> t

val profile : t -> profile
val set_profile : t -> profile -> unit

(** [deliver t ~send ~bytes] computes the delivery time (absolute ns) of
    a [bytes]-byte message handed to the link at [send]: partitions are
    waited out, lost transmissions retransmit after [rto_ns], and the
    result is resequenced after the previous delivery.  Pure simulated
    time — the caller charges its own clock. *)
val deliver : t -> send:int -> bytes:int -> int

val stats : t -> stats

(** [net.*] counter values. *)
val kv : t -> (string * int) list
