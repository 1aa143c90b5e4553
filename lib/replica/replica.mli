(** WAL log-shipping replication: primary/replica groups over faulty
    links, semi-sync commits, failover with zero-committed-loss,
    snapshot catch-up.

    A {!t} (replication group) wraps an attached {!Fpb_wal.Wal}: it
    installs the WAL's durable-record observer — every record a
    successful log flush makes durable is shipped, as its framed bytes,
    over a per-replica {!Net} link — and the commit barrier, which under
    [Semi_sync k] advances the simulated clock until the k-th replica
    ack covers the commit's LSN (so [wal.commit_latency] shows the true
    cost of the durability mode under an open-loop workload).

    Each replica node models its own log device: a delivered record is
    appended to the node's log disk ({!Fpb_storage.Disk_model}) and
    acked, by LSN, once durable there.  Applied state (page images,
    allocator map, committed cursor) is materialised by redo of whole
    committed operations only — records beyond the last delivered
    commit stay staged, so a promotion never exposes uncommitted bytes
    and "truncate the unacked suffix" is exactly dropping the staged
    tail.

    {2 Failover}

    Kill the primary at an arbitrary byte/record boundary (arm
    {!Fpb_wal.Wal.set_crash_at_byte} or call
    {!Fpb_wal.Wal.crash_now}, then {!kill}); {!promote} syncs every
    replica to the kill instant, picks the most advanced one, charges
    the failure-detection timeout, and materialises a full node from its
    applied state: a fresh {!Fpb_storage.Page_store}, data disks,
    {!Fpb_storage.Buffer_pool} and an attached {!Fpb_wal.Wal} whose LSN
    sequence continues the shipped history ([first_lsn]).  The caller
    rebuilds its index handle from the returned metadata
    ({!Fpb_btree_common.Index_sig.restore_meta}); {!resume} re-attaches
    the surviving replicas to the new primary, re-shipping them the
    delta they missed.

    Because every link delivers in order, each replica's durable record
    set is a prefix of the shipped stream; the most advanced replica's
    prefix therefore contains every commit any replica ever acked — the
    zero-committed-loss property under [Semi_sync k], at every possible
    kill point.

    {2 Catch-up}

    A lagging replica catches up by log re-shipping
    ({!catch_up_via_log}) while the archive still holds the records it
    needs; once retention ({!trim_archive}, driven by
    {!Fpb_snapshot.Shadow.retention_lsn}) has released them, it
    bootstraps from a consistent snapshot instead
    ({!catch_up_via_snapshot}): frozen pages shipped page-by-page, then
    log replay from the snapshot's cut LSN. *)

module Wal = Fpb_wal.Wal

(** Per-commit durability mode. *)
type mode =
  | Async  (** primary acks locally at log-flush completion *)
  | Semi_sync of int
      (** wait for that many replica acks of the commit's LSN (clamped
          to the number of live replicas) *)

type config = {
  mode : mode;
  window : int;  (** bounded in-flight window, records (backpressure) *)
  ack_bytes : int;  (** ack frame size on the wire *)
  detect_timeout_ns : int;
      (** failure-detector timeout charged between the kill and the
          promotion (the unavoidable floor of the blackout window) *)
  n_disks : int;  (** data disks a promoted node gets *)
  pool_pages : int;  (** buffer-pool capacity a promoted node gets *)
  group_commit_bytes : int;  (** WAL attach parameter for promoted nodes *)
  log_mirrors : int;
  log_stripes : int;
}

(** [Semi_sync 1], window 64, 24-byte acks, 5 ms detection, 2 data
    disks, 96-page pool, per-commit flush, single unmirrored log. *)
val default_config : config

type node
type t

(** [create ~config ~prng ~profiles (wal, pool)] builds a group shipping
    [wal]'s records to one replica per entry of [profiles] (each entry
    is the forward-link profile; acks return over a link with the same
    profile minus its partitions).  Every replica bootstraps from the
    primary's current state — the moral equivalent of provisioning from
    a base backup — so shipping only ever covers records sealed after
    this call.  [prng] is split per link.  Must not be called
    mid-operation; flushes the WAL first. *)
val create :
  config:config ->
  prng:Fpb_workload.Prng.t ->
  profiles:Net.profile list ->
  Wal.t * Fpb_storage.Buffer_pool.t ->
  t

(** Detach the observer and barrier from the primary WAL. *)
val detach : t -> unit

val config : t -> config
val n_nodes : t -> int
val node : t -> int -> node

(** Forward link of a node, e.g. to tighten or cut its profile. *)
val node_link : node -> Net.t

(** Bring the node's applied state up to every whole committed operation
    durable on it by [horizon] (default: now); returns its committed
    operation number after the sync. *)
val sync_node : t -> ?horizon:int -> node -> int

val node_committed_op : node -> int

(** Highest operation number whose commit record (and whole batch) is
    durable on the node by [horizon] — pure inspection, applies
    nothing. *)
val node_durable_op : t -> node -> horizon:int -> int

(** Highest operation number acknowledged to clients by [horizon] under
    the group's mode: for [Async], the last commit record shipped (i.e.
    primary-durable) by then; for [Semi_sync k], the last with k replica
    acks in by then. *)
val acked_op : t -> horizon:int -> int

(** {2 Failover} *)

(** Freeze the group at the primary's death: the current simulated time
    becomes the horizon; nothing ships afterwards.  Idempotent. *)
val kill : t -> unit

val killed_at : t -> int option

type promotion = {
  node_id : int;
  committed_op : int;  (** operation number the new primary starts from *)
  committed_lsn : int;
  meta : int list;  (** index root metadata to restore a handle from *)
  truncated_records : int;
      (** staged (durable-but-uncommitted) records dropped — the unacked
          suffix *)
  store : Fpb_storage.Page_store.t;
  disks : Fpb_storage.Disk_model.t;
  pool : Fpb_storage.Buffer_pool.t;
  wal : Wal.t;  (** attached with [first_lsn = committed_lsn + 1] *)
}

(** Promote the most advanced live replica: sync every
    replica to the kill horizon, drop the chosen node's staged suffix,
    charge [detect_timeout_ns], and materialise store, disks, pool and a
    freshly attached WAL from its applied state.  The caller rebuilds
    the index handle from [meta] (free any pages the handle's [create]
    allocated before calling [restore_meta], so the replicated page
    space stays exact).  Requires {!kill} first and at least one live
    replica. *)
val promote : t -> promotion

(** [resume t p] returns a new group on the promoted WAL, shipping to
    the surviving replicas: each is first re-baselined to the promotion
    point — the committed records it missed are re-applied straight from
    the archive (counted under [replica.rebaselined_records]) and its
    staged suffix dropped.  Counters are shared with [t], so totals
    aggregate across the failover. *)
val resume : t -> promotion -> t

(** {2 Retention and catch-up} *)

(** Drop archive entries with LSN at or below [below_lsn] (e.g.
    {!Fpb_snapshot.Shadow.retention_lsn} after a flip): the shipping
    archive releases what the WAL's own retention released.  A replica
    whose replay point falls below the floor can no longer catch up by
    log re-shipping. *)
val trim_archive : t -> below_lsn:int -> int

(** Mark a replica dead (stop shipping to it) without failover — models
    a replica that goes dark and must later catch up. *)
val detach_replica : t -> node -> unit

(** Re-ship and apply every archive record the detached node is missing,
    serially over its link; revives the node.  Returns the records
    re-shipped and the simulated time the catch-up took, or
    [`Retention_exceeded] if the archive no longer holds the records. *)
val catch_up_via_log :
  t -> node -> [ `Ok of int * int | `Retention_exceeded ]

(** Bootstrap the detached node from a consistent snapshot: every frozen
    page is read ({!Fpb_snapshot.Shadow.read}, charged) and shipped over
    the node's link, the node's allocator and committed cursor reset to
    the snapshot's cut, then the archive tail after the snapshot's cut
    LSN is re-shipped and applied as in {!catch_up_via_log}.  Revives
    the node.  Returns (pages shipped, tail records, simulated ns). *)
val catch_up_via_snapshot :
  t -> node -> snapshot:Fpb_snapshot.Shadow.snapshot -> int * int * int

(** {2 Observability} *)

(** Semi-sync ack-wait distribution ([replica.ack_wait_ns]): extra
    simulated time each commit barrier blocked beyond local
    durability. *)
val ack_wait : t -> Fpb_obs.Histogram.t

(** [replica.*] counters plus the [net.*] counters summed over every
    link of the group. *)
val kv : t -> (string * int) list
