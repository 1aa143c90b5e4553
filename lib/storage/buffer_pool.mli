(** Buffer pool with sharded SIEVE replacement, pinning, asynchronous
    prefetch, and media-failure handling.

    The page table and SIEVE replacement are split into [n_shards]
    independent shards keyed by a mix of the page id, each owning a
    disjoint slice of the frame arena with its own hash table, SIEVE
    queue and hand, and simulated latch.  Acquiring a shard latch costs
    {!Fpb_simmem.Cost_model.latch_cycles} busy time; acquiring it at a
    time inside another logical client's hold (each shard keeps its holds
    as a {!Fpb_simmem.Timeline}) additionally waits until that hold ends,
    counted under [pool.shard.conflicts] / [pool.shard.waits_ns].  The
    latch is released across disk waits.  With one shard and a single
    client the latch never conflicts and behaviour is identical to the
    unsharded pool.

    Replacement is SIEVE (Zhang et al., NSDI 2024), where the paper's
    buffer manager uses CLOCK.  Each shard keeps its frames in the order
    they took their pages.  A page enters unvisited, whether a demand
    miss or a prefetch read it, and a later hit marks it visited.  The
    hand walks from the oldest frame toward the newest, then wraps; it
    clears the visited bits it passes, skips pinned and in-flight frames
    with their bits intact, and evicts the first unvisited frame, which
    becomes the newest.  A page used once so leaves before a page used
    again.

    Every frame records when its contents became valid (read completion
    or page creation); a client replayed at an earlier time waits for a
    page whose read has not landed yet, as [pool.io_wait_ns], and such a
    frame cannot be evicted.

    Frames give resident pages their simulated physical addresses (frame
    index x page size), so the CPU-cache simulator sees a
    conflict-realistic address space; reassigning a frame invalidates its
    CPU-cache lines.  Prefetch requests are served by a configurable pool
    of prefetcher threads (the paper's DB2 experiment varies exactly
    this); a demand [get] of an in-flight page waits only for the
    remaining latency.

    A tree's descents pin their pages by {!pin} (one page) and
    {!get_batch} (one level of a batch), which hold the pin policy: a
    nonleaf page through the frame the tree's memo ({!held}) remembers,
    without the buffer-manager call; a leaf page by that call, the
    cache-first tree's with its leaf node's lines prefetched.  Pins that
    are not a descent's (scan leaves, the jump-pointer cursor, inserts'
    page-level work, checkers) call {!get}.

    Every read that crosses the disk boundary is verified against the
    page's checksum header ({!Page_store.verify}).  Transient I/O errors
    are retried with exponential backoff charged to simulated time;
    persistent damage (latent sectors, corruption) escalates to the
    repair hook installed by the write-ahead log, and only when that
    fails does the caller see a typed {!Io_error}. *)

(** Named counters; [*_ns] counters are in simulated nanoseconds, the
    rest event counts.  Namespaces: [pool.*] for caching behaviour,
    [io.retry.*]/[io.error.*] for the media-read path, [repair.*] for
    WAL-based page repair. *)
type stats = {
  hits : Fpb_obs.Counter.t;  (** [pool.hits] *)
  held_hits : Fpb_obs.Counter.t;
      (** [pool.held_hits]: nonleaf {!pin}s served from the held frame,
          without a page-table lookup or a shard latch *)
  misses : Fpb_obs.Counter.t;
      (** [pool.misses]: demand reads that went to disk *)
  evictions : Fpb_obs.Counter.t;
      (** [pool.evictions]: resident pages replaced by the SIEVE sweep *)
  prefetch_issued : Fpb_obs.Counter.t;  (** [pool.prefetch_issued] *)
  prefetch_hits : Fpb_obs.Counter.t;
      (** [pool.prefetch_hits]: gets satisfied by a prefetched page *)
  prefetch_dropped : Fpb_obs.Counter.t;
      (** [pool.prefetch_dropped]: hints dropped because the pool was too
          hot to find a frame or the prefetch read erred *)
  prefetch_dirty_victims : Fpb_obs.Counter.t;
      (** [pool.prefetch_dirty_victims]: prefetches that found no clean
          evictable frame while the log had records to force, so wrote
          a dirty victim back behind a log force *)
  demand_dirty_victims : Fpb_obs.Counter.t;
      (** [pool.demand_dirty_victims]: demand misses whose SIEVE victim
          was dirty, so its write-back (and the log force before it) ran
          while the miss's own read was in flight *)
  io_wait_ns : Fpb_obs.Counter.t;
      (** [pool.io_wait_ns]: time the caller waited on I/O (includes
          retry backoff, and another client's read that has not landed
          yet at the caller's time) *)
  shard_conflicts : Fpb_obs.Counter.t;
      (** [pool.shard.conflicts]: latch acquisitions whose time fell
          inside another logical client's hold *)
  shard_waits_ns : Fpb_obs.Counter.t;
      (** [pool.shard.waits_ns]: simulated time spent waiting on shard
          latches *)
  shard_overlaps : Fpb_obs.Counter.t;
      (** [pool.shard.overlaps]: holds that started in a gap but ran into
          another logical client's hold, so two clients held the latch
          at once in simulated time *)
  retry_read : Fpb_obs.Counter.t;
      (** [io.retry.read]: demand-read attempts beyond the first *)
  retry_wait_ns : Fpb_obs.Counter.t;
      (** [io.retry.wait_ns]: simulated time spent backing off *)
  err_transient : Fpb_obs.Counter.t;  (** [io.error.transient] *)
  err_latent : Fpb_obs.Counter.t;  (** [io.error.latent] *)
  err_checksum : Fpb_obs.Counter.t;  (** [io.error.checksum] *)
  err_unrecoverable : Fpb_obs.Counter.t;
      (** [io.error.unrecoverable]: errors surfaced as {!Io_error} *)
  repair_attempts : Fpb_obs.Counter.t;  (** [repair.attempts] *)
  repair_repaired : Fpb_obs.Counter.t;  (** [repair.repaired] *)
  repair_failed : Fpb_obs.Counter.t;  (** [repair.failed] *)
  overloaded : Fpb_obs.Counter.t;
      (** [pool.overloaded]: demand requests refused with {!Overloaded}
          after the bounded victim rescans *)
  overload_wait_ns : Fpb_obs.Counter.t;
      (** [pool.overload_wait_ns]: simulated time spent waiting between
          victim rescans on a pinned-full pool *)
}

(** Durability hooks installed by the write-ahead log.  The pool announces
    page lifecycle events; the log implements the WAL protocol over them.
    [before_page_write] runs before a dirty page's write-back is submitted
    (log-before-data; it may raise to simulate a crash), [on_page_write]
    after it, so the log can refresh its durable image of the page.
    [page_lsn] reports the LSN of the newest logged change to a page; the
    pool stamps it into the page's checksum header on write-back.
    [write_forces_log] tells whether a write-back now would force the log
    (some sealed records are not yet durable); {!prefetch} then passes
    over dirty frames. *)
type wal_hooks = {
  on_page_dirty : int -> unit;
  before_page_write : int -> unit;
  on_page_write : int -> unit;
  on_page_alloc : int -> unit;
  on_page_free : int -> unit;
  page_lsn : int -> int;
  write_forces_log : unit -> bool;
}

type io_cause = [ `Transient | `Latent | `Checksum ]

(** A page could not be produced intact: retries exhausted (transient), a
    latent sector with no repair source, or a checksum mismatch the WAL
    could not repair.  Counted under [io.error.unrecoverable]. *)
exception
  Io_error of {
    page : int;
    attempts : int;
    cause : io_cause;
    repair : [ `Not_attempted | `Failed of string ];
  }

type t

(** Raised internally when a victim sweep finds every frame pinned.  A
    [get] or [create_page] that finds only in-flight prefetches first
    waits for the earliest completion and retries; demand requests that
    hit genuine exhaustion surface the typed {!Overloaded} (after two
    rescans, 0.2 ms apart) — [Pool_exhausted] itself
    escapes only from maintenance entry points such as {!clear}. *)
exception Pool_exhausted

(** The pool is out of frames for a demand request: every frame stayed
    pinned across [scans] victim sweeps (each but the first preceded by
    a simulated-time wait).  This is a load signal, not a failure —
    callers are expected to shed or retry the {e operation}, not crash;
    counted under [pool.overloaded]. *)
exception Overloaded of { page : int; scans : int }

(** [n_shards] (default 1) splits the page table, SIEVE replacement and
    frame arena into that many independent shards; must lie in
    [1, capacity]. *)
val create :
  ?n_prefetchers:int ->
  ?n_shards:int ->
  capacity:int ->
  Fpb_simmem.Sim.t ->
  Page_store.t ->
  Disk_model.t ->
  t

val stats : t -> stats
val reset_stats : t -> unit

(** Current pool counter values as [(name, value)] pairs. *)
val kv : t -> (string * int) list
val sim : t -> Fpb_simmem.Sim.t
val store : t -> Page_store.t
val disks : t -> Disk_model.t
val capacity : t -> int
val n_shards : t -> int

(** Which shard a page id maps to (deterministic mixing hash mod
    [n_shards]); exposed so tests and experiments can partition traces
    the same way the pool does. *)
val shard_of_page : t -> int -> int

(** Pin a page, reading (and verifying) it from disk if not resident;
    returns the region to access its contents through.  Balance with
    [unpin].  A miss whose victim is dirty submits its read before the
    victim's log force and write-back, so it waits for the longer of the
    two, not their sum.  May raise {!Io_error} under fault injection. *)
val get : t -> int -> Fpb_simmem.Mem.region

val unpin : t -> int -> unit

(** The frames a tree last saw its pages in, one per page id: a tree
    handle keeps one for its descents. *)
type held

(** A fresh memo.  Every page id reads frame 0, which its first {!pin}
    validates like any other frame. *)
val held : unit -> held

(** [pin t h page ~leaf ~off ~len] pins a page of a descent under the
    pin policy every tree shares.  Balance with [unpin].

    A nonleaf page is served from the frame [h] remembers for it when
    that frame still holds [page], its read has landed at the caller's
    time, and it is not a prefetch arrival no [get] has verified: two
    loads ([2 x c_access] busy cycles) and no page-table lookup,
    buffer-manager call or shard latch; it sets the frame's visited bit
    and counts [pool.held_hits] instead of [pool.hits].  Otherwise (the
    page evicted, the pool cleared or dropped, the page freed and
    reallocated elsewhere, [page] never remembered) it is {!get}.

    A leaf page is {!get}, the paper's per-page buffer-manager call.
    With [len > 0], the [len] bytes at offset [off] are in flight when
    the pin returns: prefetched before the call when the frame [h]
    remembers passes the checks above (the same two loads), else right
    after it.  A nonleaf pin ignores [off] and [len].

    When the pin checked [h] and called {!get}, [h] then remembers the
    frame [get] pinned; it grows by doubling to the largest page id
    remembered. *)
val pin :
  t -> held -> int -> leaf:bool -> off:int -> len:int -> Fpb_simmem.Mem.region

(** Pin a batch of pages of one descent level together, returning their
    regions in the same order: a nonleaf level through [h] and a leaf
    level by {!get}, as {!pin} pins them (no span).  Before pinning,
    every page that would demand-miss is issued as an asynchronous
    {!prefetch}, so the batch's disk reads overlap across the prefetcher
    pool instead of serialising one miss at a time.  Balance with one
    [unpin] per array element.

    If a frame cannot be found partway through, the pages already pinned
    by this call are unpinned before the exception ({!Overloaded} under
    frame exhaustion) escapes — a refused batch never leaks pins, so the
    caller can degrade by splitting the batch and retrying smaller (see
    [docs/BATCHING.md]).  Pages should be distinct for the coalescing to
    help; duplicates are still pinned (and must be unpinned) once per
    occurrence. *)
val get_batch : t -> held -> leaf:bool -> int array -> Fpb_simmem.Mem.region array

(** Mark a resident page dirty; it is written back on eviction. *)
val mark_dirty : t -> int -> unit

(** [get]/[unpin] bracket. *)
val with_page : t -> int -> (Fpb_simmem.Mem.region -> 'a) -> 'a

(** Request an asynchronous read; no-op if resident or in flight.  Served
    by the earliest-available prefetcher.  While a write-back would force
    the log, the read takes the first clean frame the SIEVE sweep gives
    up, passing over dirty ones and leaving the hand on the first of
    them for the next demand miss, so the hint forces no log; only when no
    clean frame is evictable does it evict a dirty victim as a demand
    miss would (counted under [pool.prefetch_dirty_victims]).  Dropped
    (counted under [pool.prefetch_dropped]) if the pool is too hot to find
    a frame or the read errs; verification of prefetched bytes happens at
    the first [get]. *)
val prefetch : t -> int -> unit

val is_resident : t -> int -> bool

(** Media check for the scrubber: read a non-resident page through the
    full retry/verify/repair path without installing it in a frame.
    Never raises; unrecoverable damage is reported in the result.
    [`Busy attempts] means a transient-error streak exhausted the retry
    budget — the disk would not answer, but the media is not known to be
    damaged; check again later. *)
val check_media :
  t ->
  int ->
  [ `Resident | `Ok | `Repaired | `Busy of int | `Unrecoverable of string ]

(** Allocate a fresh page and make it resident with one pin (no disk
    read: it is born in memory).  Returns the page ID and its region. *)
val create_page : t -> int * Fpb_simmem.Mem.region

(** Release an unpinned page back to the store. *)
val free_page : t -> int -> unit

(** Evict every unpinned page (writing back dirty ones): a cold pool.
    Each shard's SIEVE hand restarts at its oldest frame, so the misses
    that follow fill every empty frame before evicting a page. *)
val clear : t -> unit

(** Write back every dirty page without evicting anything: the data half
    of a sharp checkpoint. *)
val flush_dirty : t -> unit

(** Write back one page if it is resident and dirty; returns whether a
    write happened.  The unit of work for a paced (fuzzy) checkpoint. *)
val write_back_page : t -> int -> bool

(** Whether the page is resident with its dirty bit set. *)
val is_dirty : t -> int -> bool

(** Currently dirty resident pages: a fuzzy checkpoint's worklist. *)
val dirty_pages : t -> int list

(** Discard every frame WITHOUT write-back and reset pins, in-flight reads,
    prefetcher state and the SIEVE hands (as {!clear} does): the pool's
    contents after a machine crash. *)
val drop_all : t -> unit

(** Install (or with [None] remove) the write-ahead-log hooks. *)
val set_wal_hooks : t -> wal_hooks option -> unit

(** Install (or with [None] remove) the page-repair hook the media-read
    path escalates to; the WAL installs one that replays the page from
    its last durable image ({!Fpb_wal.Wal.attach}).  [bad_sectors] names
    the sector indexes whose per-sector CRC failed ([] when the damage is
    not localisable, e.g. a latent whole-page error), letting the hook
    replay only the damaged spans. *)
val set_repair :
  t ->
  (int -> bad_sectors:int list -> [ `Repaired | `Unrecoverable of string ])
  option ->
  unit

val resident_pages : t -> int

(** Classic sequential I/O prefetching (paper, Section 2): after a demand
    miss, asynchronously read the next [depth] physically-consecutive
    pages on the same disk.  0 (default) disables. *)
val set_sequential_readahead : t -> int -> unit
