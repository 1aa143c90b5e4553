(** Physiological write-ahead log with redo-only (ARIES-lite) recovery
    over striped, mirrored, checksummed log disks.

    The log attaches to a {!Fpb_storage.Buffer_pool} through its
    [wal_hooks] and maintains, alongside the in-memory page store, a
    model of what is actually durable: a byte stream of LSN-stamped log
    records and a per-page "durable image" (what the page's disk sectors
    would hold after a power cut).  Everything is driven by the same
    simulated clock as the rest of the system, so log forces and
    recovery replay are charged as real (sequential) disk I/O.

    {2 Protocol}

    - The caller brackets every index operation with a {!commit}: the
      pages the operation dirtied are diffed against their last-logged
      shadow copies and emitted as physiological records — a full page
      {e image} on first touch after a checkpoint (this is what repairs
      torn pages), a byte-range {e delta} afterwards — followed by a
      commit record carrying the operation number and the index's root
      metadata.
    - Records are sealed into a pending list; a flush places each record
      round-robin (by seal order) on one of [log_stripes] stripes,
      appends it to every mirror of that stripe, and waits for the
      slowest log disk — stripes absorb their spans in parallel, so
      striping buys log bandwidth (group commit batches flushes until
      [group_commit_bytes] accumulate).
    - Eviction write-backs run [before_page_write], which forces the log
      first (WAL-before-data).  A write-back of a page with uncommitted
      changes does {e not} update its durable image (a redo-only log
      cannot undo), at the cost of re-writing the page at the next
      checkpoint.
    - {!checkpoint} forces the log, writes back all dirty pages,
      refreshes stale durable images, and appends a checkpoint record
      from which the next recovery starts.

    {2 Surviving log-media failure}

    The durable stream lives on [log_stripes] (S >= 1) stripes of
    [log_mirrors] (K >= 1) log disks each — S*K disks in all, where
    stripe [s] mirror [k] is disk [s*K + k] — and every record is framed
    with its own CRC-32.  The K mirrors of a stripe hold
    position-identical byte streams.  Log disks are {e not} exempt from
    media faults: arm a {!Fpb_storage.Fault.profile} on them with
    {!set_log_faults} (or damage one disk's bytes deterministically with
    {!inject_mirror_damage}).  A scan — recovery replay or the page
    repair that {!attach} installs on the pool — reads log pages through
    the fault schedule; a record that is torn, rotted, or on a lost
    sector of one mirror falls back to the next mirror of its stripe
    ([wal.mirror.fallbacks]) and
    heals the damaged span on the failed mirror in passing
    ([wal.mirror.repairs]).  A record unreadable on {e every} mirror is
    {e detected}, never silently served: the scan stops there, the
    recovery reports it in [damaged_records], and page repair refuses
    to serve from a log with holes in it.

    Striping adds one more detection layer: LSNs are allocated in seal
    order, one per record, so the per-stripe scans merge into a sequence
    that must be LSN-consecutive.  A gap with records beyond it proves a
    stripe silently lost committed records (a genuine crash cut only
    truncates the tail of the seal order); the scan stops at the gap and
    reports damage.

    Recovery ({!recover}) discards all volatile state, resets every page
    to its durable image, truncates the durable log at the last complete
    commit/checkpoint record (a torn tail parses as garbage and stops
    the scan), and replays records whose LSN is newer than the page's
    durable image.  Redone pages are written back in (disk, physical)
    order when batched redo is on (the default, see {!set_batched_redo}),
    so adjacent pages go out as sequential I/O.  The returned metadata
    reconstructs index handles.

    Crash injection: {!set_crash_at_byte} cuts the durable log mid-flush
    at an exact byte offset and raises {!Crashed};
    {!tear_last_writeback} additionally corrupts the second half of the
    most recently written-back page, simulating a torn sector write. *)

(** Raised by any logging entry point once the simulated machine has
    crashed — by the flush that crossed the armed byte boundary, and by
    every call after {!crash_now} — until {!recover} runs. *)
exception Crashed

type record =
  | Image of { lsn : int; page : int; img : Bytes.t }
  | Delta of { lsn : int; page : int; off : int; bytes : Bytes.t }
  | Commit of { lsn : int; op : int; meta : int list }
  | Checkpoint of { lsn : int; op : int; meta : int list }
      (** [op] is the last committed operation number, so a recovery
          that replays no commit records still reports it. *)
  | Alloc of { lsn : int; page : int }
      (** page allocation, sealed at event time; recovery replays
          committed Alloc/Free records over the checkpoint's allocator
          snapshot to restore the committed allocation map *)
  | Free of { lsn : int; page : int }

(** On-disk record framing: [length | body | CRC-32], all little-endian
    32-bit; the checksum is {!Fpb_storage.Checksum} (CRC-32/IEEE) over
    the body.  A record that fails length or checksum validation marks
    the end of the readable log on that mirror. *)
module Codec : sig
  val encode : record -> string

  (** [decode b pos] parses the framed record at [pos] of the stream
      held in [b] (the stream occupies bytes [0, len), defaulting to all
      of [b]); [None] if the bytes are truncated or corrupt.  Returns
      the record and the position just past it. *)
  val decode : ?len:int -> Bytes.t -> int -> (record * int) option
end

(** [diff_span a b] is the smallest [(off, len)] such that two
    equal-length buffers agree outside [[off, off + len)], or [None] if
    they are equal: the span a delta record logs.  Exposed for tests. *)
val diff_span : Bytes.t -> Bytes.t -> (int * int) option

type t

(** One sealed record in the durable byte stream: its end offset, its
    framed size (so [end_off - size] is where it starts), and its kind —
    the crash controller enumerates injection points from these. *)
type boundary = {
  end_off : int;
  size : int;
  kind : [ `Image | `Delta | `Commit | `Checkpoint | `Alloc | `Free ];
}

(** Deterministic damage to one log disk's durable bytes (lengths never
    change; contents rot); offsets are relative to that disk's own
    stripe stream.  [Torn_tail n] zeroes the last [n] bytes; [Zero_span]
    zeroes an interior span (e.g. one sector of a log page); [Flip]
    flips one bit. *)
type damage =
  | Torn_tail of int
  | Zero_span of { off : int; len : int }
  | Flip of { off : int; bit : int }

(** What a recovery pass established. *)
type recovery = {
  committed_ops : int;  (** highest operation number durably committed *)
  meta : int list;  (** index metadata as of that operation *)
  scanned_records : int;  (** records parsed from the last checkpoint *)
  redo_records : int;  (** image/delta records actually re-applied *)
  redo_pages : int;  (** distinct pages touched by redo *)
  free_pages : int;  (** pages on the restored (committed) free list *)
  torn_tail_bytes : int;  (** unreadable bytes at the durable tail *)
  damaged_records : int;
      (** stream positions unreadable on {e every} mirror with readable
          content known to lie beyond — committed records may be lost,
          and the loss is reported rather than silently absorbed *)
  recovery_ns : int;  (** simulated time the pass took *)
}

(** [attach pool ~meta] flushes the pool, snapshots every existing page
    as its durable image (and the allocator state as the recovery base),
    installs the WAL hooks and the media-repair hook
    ({!Fpb_storage.Buffer_pool.set_repair}), and seals an initial
    checkpoint carrying [meta].  [group_commit_bytes = 0] (default)
    forces the log on every commit; [> 0] lets commits accumulate until
    that many buffered bytes before flushing (group commit — commits in
    the buffer are lost by a crash).  [log_base_images] additionally
    seals a full image record for every live page before the initial
    checkpoint, so media repair of pre-existing (bulkloaded) pages can
    replay from the log itself rather than the snapshot.
    [log_mirrors] (default 1) is the number of mirrored log disks per
    stripe; [log_stripes] (default 1) is the number of stripes sealed
    records are round-robined across.  [first_lsn] (default 1) starts
    the LSN sequence higher: a promoted replica ([Replica.promote])
    continues its shipped history's LSN space, so the LSN stamped on
    every page it copied stays below each record its new log seals. *)
val attach :
  ?group_commit_bytes:int ->
  ?log_base_images:bool ->
  ?log_mirrors:int ->
  ?log_stripes:int ->
  ?first_lsn:int ->
  meta:int list ->
  Fpb_storage.Buffer_pool.t ->
  t

(** Remove the hooks (including the repair hook); the pool reverts to
    non-durable operation. *)
val detach : t -> unit

(** Number of mirrored log disks per stripe. *)
val log_mirrors : t -> int

(** Number of log stripes. *)
val log_stripes : t -> int

(** The log-disk farm (disk index = stripe * K + mirror), for inspecting
    its [disk.*] counters. *)
val log_disks : t -> Fpb_storage.Disk_model.t

(** Arm (or with [None] disarm) the seeded fault schedule on one log
    disk (flattened index stripe * K + mirror), or on all of them
    without [mirror]: the log is subject to the same media failures as
    the data disks. *)
val set_log_faults : t -> ?mirror:int -> Fpb_storage.Fault.profile option -> unit

(** Deterministically damage one log disk's durable bytes (tests and the
    chaos harness's detection legs); [mirror] is the flattened disk
    index stripe * K + mirror. *)
val inject_mirror_damage : t -> mirror:int -> damage -> unit

(** Seal the current operation: log the pages dirtied since the last
    commit and a commit record numbered [op] carrying [meta]. *)
val commit : t -> op:int -> meta:int list -> unit

(** Sharp checkpoint: force the log, write back all dirty pages, refresh
    stale durable images, and seal a checkpoint record carrying [meta].
    Must not be called mid-operation (with undirtied commits pending).

    It stays beside the shadow fuzzy checkpoint
    ({!external_checkpoint}, driven by [Shadow]) on purpose: it is the
    stop-the-world baseline that [fpb exp checkpoint] (table
    [checkpoint-a]) measures the fuzzy checkpoint's writer stall
    against, and [exp_recovery] and [crashtest] crash around it to
    check recovery from a checkpoint the WAL took itself, with no
    shadow attached. *)
val checkpoint : t -> meta:int list -> unit

(** Force all sealed records to their stripes' durable streams (every
    mirror of each stripe), waiting for the slowest log disk.  No-op on
    an empty pending list. *)
val flush : t -> unit

(** {2 Shadow-paging (fuzzy checkpoint) support}

    A shadow-paging layer ({!Fpb_snapshot.Shadow}) performs the data half
    of a checkpoint itself — paced write-back to copy-on-write blocks,
    then an atomic superblock flip — and uses these hooks to coordinate
    with the log. *)

(** Per-stripe sealed extents right now: the "cut" a fuzzy checkpoint
    captures when it begins.  A log scan from these marks sees exactly
    the records sealed after the capture. *)
val current_marks : t -> int array

(** Last committed operation number. *)
val last_committed_op : t -> int

(** The page's durable image and the LSN it reflects (a private copy);
    [None] if it was never written back. *)
val durable_image : t -> int -> (Bytes.t * int) option

(** LSN of the page's durable image (0 if none). *)
val page_durable_lsn : t -> int -> int

(** The page's newest {e committed} content and its LSN (a private copy):
    the last-logged shadow if the page was ever logged, else its durable
    image.  The shadow layer freezes these at flip time for pages whose
    durable images lag the flip, keeping snapshots operation-consistent.
    With [into], a page-sized buffer, the copy goes there (and [into] is
    returned) instead of into a fresh buffer. *)
val committed_image : ?into:Bytes.t -> t -> int -> (Bytes.t * int) option

(** Whether an operation is in flight (pages touched since the last
    commit).  Checkpoint cuts must not be taken mid-operation. *)
val in_operation : t -> bool

(** Bring one page's durable image up to its newest {e committed} state
    (pool write-back if dirty, direct image refresh if a deferred
    write-back left it stale): the unit of work of a paced fuzzy
    checkpoint.  Returns [false] — retry later — while the page carries
    uncommitted in-flight changes. *)
val harden_page : t -> int -> bool

(** Pages whose durable image lags their newest logged state: the fuzzy
    checkpoint's worklist beyond the pool's dirty frames. *)
val stale_pages : t -> int list

(** Seal and force a checkpoint record for a checkpoint whose data half
    was performed outside the WAL, moving the recovery start point to
    the {e cut} captured when that checkpoint began: [marks] is the
    cut's {!current_marks}, [alloc] its (total_pages, free_list).
    Replay covers everything after the cut, so images hardened by the
    external pass need only reflect commits up to it. *)
val external_checkpoint :
  t -> marks:int array -> alloc:int * int list -> meta:int list -> unit

(** What a shadow-paging layer hands {!recover}: page images reachable
    from the persisted indirection table ([load_page], [None] = not in
    the checkpointed generation), the cut's per-stripe log marks, and
    the allocator state at that cut. *)
type base = {
  load_page : int -> (Bytes.t * int) option;
  base_marks : int array;
  base_alloc : int * int list;
}

(** Install (or clear) the recovery base.  While set, {!recover} reboots
    page contents, its log-scan start point and its allocator base from
    it instead of the WAL's own durable images. *)
val set_recovery_base : t -> base option -> unit

(** Install (or clear) the pre-log observer, called with the page id
    {e before} the page's first logging since the last checkpoint (or
    since its allocation): during the call, {!committed_image} still
    returns the page's pre-update committed content.  The shadow layer,
    whose flips are checkpoints ({!external_checkpoint}), uses this to
    freeze that content into checkpoint generations lacking it. *)
val set_pre_log_observer : t -> (int -> unit) option -> unit

(** Sharp-checkpoint writer-stall distribution
    ([wal.checkpoint.stall_ns]): simulated time each {!checkpoint} call
    blocked its caller (log force + whole-pool write-back + data
    durability barrier). *)
val checkpoint_stall : t -> Fpb_obs.Histogram.t

(** {2 Log shipping and retention}

    Hooks a replication layer ({!Fpb_replica}) builds on: every record
    that becomes durable is observable, commits can block on a
    replication barrier, and log space below a durable checkpoint's cut
    can be released once replicas no longer need it. *)

(** Install (or clear) the durable-record observer: called once per
    record, in seal order, when a flush makes it fully durable, with the
    record's LSN and framed bytes (the [[len|body|crc]] frame — exactly
    what ships to a replica).  Records cut by an armed crash boundary
    are never reported.  The simulated clock stands at the flush
    completion during the calls. *)
val set_durable_observer : t -> (int -> string -> unit) option -> unit

(** Install (or clear) the commit barrier: called by {!commit} after its
    (conditional) flush and before the latency histogram records.  A
    semi-sync replication layer advances the simulated clock here until
    enough replica acks cover the commit's LSN, so [wal.commit_latency]
    shows the true cost of the durability mode. *)
val set_commit_barrier : t -> (op:int -> lsn:int -> unit) option -> unit

(** Newest allocated LSN (0 before the first record). *)
val last_lsn : t -> int

(** [truncate_to t ~marks] releases log space below the per-stripe
    offsets [marks] (a durable checkpoint's cut, e.g. the oldest shadow
    generation still retained): the retention floor advances to the
    mark, the released records leave {!layout}, and every mirror drops
    the released bytes from memory when its buffer next fills.  Clamped
    to the recovery start point, so a scan from the last
    checkpoint is never affected.  Counts physical bytes released
    (across mirrors) into [wal.log.truncated_bytes] and returns the
    bytes released by this call. *)
val truncate_to : t -> marks:int array -> int

(** Every readable durable record above the retention floor, including
    the uncommitted tail; charge-free.  [Replica.create] reads the base
    backup's index metadata from the newest commit or checkpoint among
    them. *)
val durable_records : t -> record list

(** Total bytes ever sealed / durably flushed. *)
val log_bytes : t -> int

val durable_bytes : t -> int

(** Every record sealed so far that {!truncate_to} has not released,
    oldest first.  Crash-point enumeration runs over a completed golden
    run that checkpoints with {!checkpoint}, which never truncates, so
    there this is the full stream. *)
val layout : t -> boundary list

(** Arm ([Some b]) or disarm ([None]) the crash trigger: the flush whose
    durable extent would cross {e logical} byte offset [b] (an offset in
    the sealed stream, as reported by {!layout}) cuts the durable log
    exactly there — records wholly before [b] reach their stripes, the
    record straddling [b] keeps only its prefix — and raises
    {!Crashed}. *)
val set_crash_at_byte : t -> int option -> unit

(** Power cut right now: sealed-but-unflushed records are lost. *)
val crash_now : t -> unit

val is_crashed : t -> bool

(** After a crash, corrupt the second half of the durable image of the
    page most recently written back (torn sector write) and mark it so
    redo re-applies unconditionally.  Returns [false] when there is no
    such page or when the durable log cannot repair it (its full image
    predates the recovery start point, i.e. the write was already
    fsynced under a completed checkpoint). *)
val tear_last_writeback : t -> bool

(** Batched redo (default on): recovery sorts redo write-backs by
    (disk, physical page) so adjacent pages go out sequentially, instead
    of issuing them in replay-table order.  Off reproduces the unsorted
    baseline for comparison. *)
val set_batched_redo : t -> bool -> unit

(** Redo-write coalescing (default on): recovery merges physically
    adjacent redo write-backs on the same disk into one multi-page
    request ({!Fpb_storage.Disk_model.write_run}), paying positioning
    and per-request overhead once per run instead of once per page.
    Off reproduces the one-request-per-page baseline. *)
val set_redo_coalescing : t -> bool -> unit

(** Bring the system back from a crash: drop the pool, reset pages to
    durable images, replay the log from the last durable checkpoint
    (reading log pages through the fault schedule with mirror fallback),
    and restart the log with a fresh checkpoint.  Charges log reads and
    page write-backs as simulated I/O. *)
val recover : t -> recovery

(** Post-recovery structural check of the durability layer itself: every
    page's memory bytes must equal its durable image (or be all-zero if
    it never had one).  Only meaningful immediately after {!recover}. *)
val verify_images : t -> (unit, string) result

(** Commit latency distribution ([wal.commit_latency_ns]): simulated
    time from commit start to log durability. *)
val commit_latency : t -> Fpb_obs.Histogram.t

(** Current [wal.*] counter values as [(name, value)] pairs. *)
val kv : t -> (string * int) list

val reset_stats : t -> unit
