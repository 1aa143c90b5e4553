(** Background media scrubber.

    A pass walks every live page in ID order and checks the non-resident
    ones through the buffer pool's media-read path
    ({!Buffer_pool.check_media}): retries, checksum verification, and
    WAL-based repair when a repair hook is installed.  Disk time is
    charged to the simulated clock.  Reports are per-pass and pure; the
    pool's [io.*]/[repair.*] counters advance as a side effect of the
    reads.

    {!run} is the synchronous full pass; a {!sched} paces the same walk
    as a budgeted background job — at most [pages_per_tick] pages per
    {!tick} — so scrub I/O interleaves with foreground work and its
    latency cost is measurable. *)

type report = {
  scanned : int;  (** live pages visited *)
  resident : int;  (** skipped: authoritative copy in memory *)
  clean : int;  (** read back and verified *)
  repaired : int;  (** damage found and repaired from the WAL *)
  deferred : int;
      (** skipped because the pool was too hot to lend a frame
          ([Pool_exhausted]) or a transient-error streak exhausted the
          read-retry budget ([`Busy]: the disk would not answer, but the
          media is not known damaged); retried on a later lap *)
  unrecoverable : (int * string) list;  (** page, diagnosis *)
}

val empty : report

(** Synchronous full pass over every live page. *)
val run : Buffer_pool.t -> report

(** Report as [(name, value)] pairs under the [scrub.*] namespace. *)
val kv : report -> (string * int) list

(** Pointwise sum (unrecoverable lists concatenated). *)
val merge : report -> report -> report

(** Paced scrub: a persistent cursor over the page-ID space that advances
    a bounded number of pages per tick and wraps, so every live page is
    eventually visited without a stop-the-world pass. *)
type sched

(** [scheduler ?pages_per_tick pool] (default bandwidth 1 page/tick;
    [0] pauses the scrubber). *)
val scheduler : ?pages_per_tick:int -> Buffer_pool.t -> sched

(** Install (or with [None] remove) a backpressure probe.  While it
    returns [true] — e.g. the foreground backlog is above its watermark
    — every {!tick} yields: no pages are checked, the cursor does not
    move, and the yield is counted.  The cheapest graceful-degradation
    lever: a loaded system stops paying for background I/O first. *)
val set_backpressure : sched -> (unit -> bool) option -> unit

(** Ticks skipped because the backpressure probe said the foreground
    was loaded. *)
val yields : sched -> int

(** Check up to [pages_per_tick] live pages at the cursor (wrapping past
    the high-water mark) and return this tick's report.  Never raises:
    pages the pool cannot currently serve are counted as [deferred], and
    a tick under backpressure returns {!empty} without moving the
    cursor. *)
val tick : sched -> report

(** Cumulative report across every tick so far. *)
val total : sched -> report

(** AIMD auto-throttle over a scheduler's bandwidth knob.  Feed it the
    foreground operation latencies you care about; every [window]
    observations it computes that window's p99 and sets the scheduler's
    bandwidth: halve when the p99 exceeds [target_p99_ns]
    (multiplicative decrease under pressure), plus one when at or below
    it (additive increase while idle), clamped to [[min_bw, max_bw]]. *)
type throttler

(** [throttler ?min_bw ?max_bw ?window ~target_p99_ns sched] wraps
    [sched] (clamping its current bandwidth into bounds).  Defaults:
    [min_bw = 0] (may pause entirely), [max_bw = 64], [window = 64].
    Raises [Invalid_argument] on an empty window or inverted bounds. *)
val throttler :
  ?min_bw:int -> ?max_bw:int -> ?window:int -> target_p99_ns:int -> sched ->
  throttler

(** Record one foreground operation latency (simulated ns).  Completing
    a window adjusts the underlying scheduler's bandwidth as a side
    effect. *)
val observe : throttler -> int -> unit

(** Current pages-per-tick of the throttled scheduler. *)
val bandwidth : throttler -> int

(** [(backoffs, raises)]: windows that lowered / raised the bandwidth. *)
val adjustments : throttler -> int * int
