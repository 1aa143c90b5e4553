(* Buffer pool with sharded SIEVE replacement, pinning, asynchronous
   prefetch, and media-failure handling.

   Page contents always live in the page store; the pool tracks which pages
   are memory-resident, charges simulated disk time for the rest, and
   assigns each resident page a frame.  Frames give pages their simulated
   physical addresses (frame index x page size), so the CPU-cache simulator
   sees a stable, conflict-realistic address space; reassigning a frame
   invalidates its CPU-cache lines.

   The page table and SIEVE replacement are split into [n_shards]
   independent shards keyed by a mix of the page id (PostgreSQL's
   buffer-mapping partitions, LeanStore's partitioned pools).  Each shard
   owns a disjoint slice of the frame arena, its own hash table, SIEVE
   queue and hand, and a simulated latch: acquiring the latch costs
   [Cost_model.latch_cycles] busy time, and acquiring it at a time that
   falls inside another logical client's hold additionally waits until
   that hold ends, counted in [pool.shard.conflicts] /
   [pool.shard.waits_ns].  With one shard and one client the latch never
   conflicts and the pool behaves exactly like the pre-sharding
   implementation.

   SIEVE (Zhang et al., NSDI 2024) replaces the paper's CLOCK.  Each shard
   keeps its frames in the order they took their pages, oldest to newest.
   A page enters unvisited; a later hit marks it visited.  The hand walks
   from the oldest frame toward the newest, then wraps to the oldest,
   clearing visited bits as it passes, and evicts the first unvisited
   frame it meets; that frame takes the new page and becomes the newest,
   and the hand stays where it stopped.  So a page touched once leaves
   before one touched again, without moving a frame on a hit.

   Every frame carries the time its contents became valid: demand-read
   completion, prefetch completion or page creation.  A client replayed
   at an earlier time that finds a page whose read has not landed yet
   waits for it (as I/O wait, outside the latch) instead of reading it
   early.

   Prefetch requests are dispatched by a configurable pool of prefetcher
   threads (the paper's DB2 experiment varies exactly this): each request is
   picked up by the earliest-available prefetcher, which then stays busy
   until the disk read completes.  A demand [get] of an in-flight page waits
   only for the remaining latency.  Prefetchers keep a single free-at time
   each, so a rewound client queues behind every request already issued.
   Issuing a request does not block while a clean frame is evictable: when
   a write-back would force the log, a prefetch's sweep passes over dirty
   frames and parks the hand on the first it passed, and only with none
   clean left does it write a dirty victim back behind a log force, as a
   demand miss does.  Dirty pages so stay resident longer, and one
   write-back covers more updates.

   Every read that crosses the disk boundary is checked against the page's
   checksum header (see [Page_store]).  Transient I/O errors are retried
   with exponential backoff charged to simulated time; persistent damage
   (latent sectors, corrupted bytes) escalates to a repair hook installed
   by the write-ahead log, and only when that fails does the caller see a
   typed [Io_error]. *)

open Fpb_simmem
module Counter = Fpb_obs.Counter

type stats = {
  hits : Counter.t;
  held_hits : Counter.t;  (* nonleaf [pin]s served from the held frame *)
  misses : Counter.t;  (* demand reads that went to disk *)
  evictions : Counter.t;  (* pages replaced by the SIEVE sweep *)
  prefetch_issued : Counter.t;
  prefetch_hits : Counter.t;  (* gets satisfied by a prefetched page *)
  prefetch_dropped : Counter.t;  (* hints dropped: pool too hot, or I/O error *)
  prefetch_dirty_victims : Counter.t;  (* prefetches that forced the log *)
  demand_dirty_victims : Counter.t;  (* misses whose victim was dirty *)
  io_wait_ns : Counter.t;  (* time the querying thread waited on I/O *)
  shard_conflicts : Counter.t;  (* latch acquisitions that found it held *)
  shard_waits_ns : Counter.t;  (* simulated time spent waiting on latches *)
  shard_overlaps : Counter.t;  (* holds that ran into another client's *)
  retry_read : Counter.t;  (* read attempts beyond the first *)
  retry_wait_ns : Counter.t;  (* simulated time spent backing off *)
  err_transient : Counter.t;
  err_latent : Counter.t;
  err_checksum : Counter.t;
  err_unrecoverable : Counter.t;  (* errors surfaced as [Io_error] *)
  repair_attempts : Counter.t;
  repair_repaired : Counter.t;
  repair_failed : Counter.t;
  overloaded : Counter.t;  (* demand requests refused as [Overloaded] *)
  overload_wait_ns : Counter.t;  (* time spent in bounded victim rescans *)
}

let make_stats () =
  {
    hits = Counter.make "pool.hits";
    held_hits = Counter.make "pool.held_hits";
    misses = Counter.make "pool.misses";
    evictions = Counter.make "pool.evictions";
    prefetch_issued = Counter.make "pool.prefetch_issued";
    prefetch_hits = Counter.make "pool.prefetch_hits";
    prefetch_dropped = Counter.make "pool.prefetch_dropped";
    prefetch_dirty_victims = Counter.make "pool.prefetch_dirty_victims";
    demand_dirty_victims = Counter.make "pool.demand_dirty_victims";
    io_wait_ns = Counter.make "pool.io_wait_ns";
    shard_conflicts = Counter.make "pool.shard.conflicts";
    shard_waits_ns = Counter.make "pool.shard.waits_ns";
    shard_overlaps = Counter.make "pool.shard.overlaps";
    retry_read = Counter.make "io.retry.read";
    retry_wait_ns = Counter.make "io.retry.wait_ns";
    err_transient = Counter.make "io.error.transient";
    err_latent = Counter.make "io.error.latent";
    err_checksum = Counter.make "io.error.checksum";
    err_unrecoverable = Counter.make "io.error.unrecoverable";
    repair_attempts = Counter.make "repair.attempts";
    repair_repaired = Counter.make "repair.repaired";
    repair_failed = Counter.make "repair.failed";
    overloaded = Counter.make "pool.overloaded";
    overload_wait_ns = Counter.make "pool.overload_wait_ns";
  }

let stats_counters s =
  [
    s.hits; s.held_hits; s.misses; s.evictions; s.prefetch_issued;
    s.prefetch_hits; s.prefetch_dropped; s.prefetch_dirty_victims;
    s.demand_dirty_victims;
    s.io_wait_ns; s.shard_conflicts; s.shard_waits_ns; s.shard_overlaps;
    s.retry_read; s.retry_wait_ns; s.err_transient; s.err_latent;
    s.err_checksum; s.err_unrecoverable; s.repair_attempts;
    s.repair_repaired; s.repair_failed; s.overloaded; s.overload_wait_ns;
  ]

let stats_kv s = List.map Counter.kv (stats_counters s)

(* Durability hooks installed by the write-ahead log (see [Fpb_wal.Wal]).
   The pool stays ignorant of log internals: it only announces the events
   the WAL protocol is defined over.  [before_page_write] runs before a
   dirty page's write-back is submitted (WAL-before-data: the log forces
   itself durable up to the page's LSN, and may raise to simulate a crash);
   [on_page_write] runs after, so the log can refresh its durable image of
   the page.  [page_lsn] reports the LSN of the newest logged change to a
   page, which the pool stamps into the page's checksum header on every
   write-back.  [write_forces_log] tells whether a write-back now would
   force the log (some sealed records are not yet durable). *)
type wal_hooks = {
  on_page_dirty : int -> unit;
  before_page_write : int -> unit;
  on_page_write : int -> unit;
  on_page_alloc : int -> unit;
  on_page_free : int -> unit;
  page_lsn : int -> int;
  write_forces_log : unit -> bool;
}

(* How hard a demand read fights transient errors before giving up.  The
   backoff is charged to the simulated clock (and to [io.retry.wait_ns]),
   so retry storms show up in latency results, not just counters. *)
type retry_policy = {
  max_retries : int;  (* attempts beyond the first *)
  backoff_ns : int;  (* wait before the first retry *)
  backoff_mult : int;  (* multiplier per subsequent retry *)
}

(* 4 retries, 0.5 ms initial backoff, doubling. *)
let retry = { max_retries = 4; backoff_ns = 500_000; backoff_mult = 2 }

type io_cause = [ `Transient | `Latent | `Checksum ]

let io_cause_name = function
  | `Transient -> "transient"
  | `Latent -> "latent"
  | `Checksum -> "checksum"

exception
  Io_error of {
    page : int;
    attempts : int;
    cause : io_cause;
    repair : [ `Not_attempted | `Failed of string ];
  }

let () =
  Printexc.register_printer (function
    | Io_error { page; attempts; cause; repair } ->
        Some
          (Printf.sprintf "Io_error(page %d, %s, %d attempt%s%s)" page
             (io_cause_name cause) attempts
             (if attempts = 1 then "" else "s")
             (match repair with
             | `Not_attempted -> ""
             | `Failed msg -> ", repair failed: " ^ msg))
    | _ -> None)

(* One shard: a disjoint frame slice [lo, hi), its own page table, the
   SIEVE queue of its frames and its hand, plus the simulated latch
   state.  The latch is a cost model, not a mutex: operations execute
   atomically in host order, but [holds] records every span [acquire,
   release) in simulated time, so a logical client replayed at an
   earlier time waits only if it lands inside another client's hold, not
   behind the latest release (an approximation: see [latch_acquire]). *)
type shard = {
  table : Page_table.t;  (* page id -> frame *)
  lo : int;  (* first frame owned (inclusive) *)
  hi : int;  (* last frame owned (exclusive) *)
  mutable oldest : int;  (* the queue's ends: see [newer] / [older] *)
  mutable newest : int;
  mutable hand : int;  (* the frame the next sweep starts at *)
  holds : Timeline.t;
  mutable held_from : int;  (* when the current holder acquired *)
  mutable conflicts : int;  (* per-shard tally of contended acquires *)
  mutable waits_ns : int;
}

(* How a demand request behaves when every frame is pinned: rescan the
   victim sweep [victim_rescans] more times, each preceded by a
   [rescan_wait_ns] wait charged to simulated time (in-flight reads may
   land, pins may expire in simulated time), then give up with a typed
   [Overloaded] so the caller can shed the request instead of crashing. *)
let victim_rescans = 2
let rescan_wait_ns = 200_000

type t = {
  sim : Sim.t;
  store : Page_store.t;
  disks : Disk_model.t;
  capacity : int;
  frames : int array;  (* frame -> page id (Page_store.nil if empty) *)
  regions : Mem.region array;
      (* frame -> the region the last hit on it returned *)
  ref_bit : bool array;  (* SIEVE's visited bit *)
  newer : int array;
  older : int array;
      (* frame -> its neighbours in its shard's queue, in the order the
         frames took their pages (-1 past either end) *)
  pin : int array;
  dirty : bool array;
  ready_at : int array;  (* frame -> when its contents became valid *)
  prefetched : bool array;  (* frame filled by a prefetch no get has seen *)
  shards : shard array;
  prefetcher_free : int array;  (* per prefetcher: time it becomes idle *)
  mutable unwritten : int;
      (* the dirty page the last victim held, its write-back not yet
         submitted (Page_store.nil if none): see [write_victim] *)
  mutable pinned : int;  (* the frame the last [get] pinned *)
  mutable readahead : int;  (* sequential readahead depth (0 = off) *)
  mutable wal : wal_hooks option;
  mutable repair :
    (int -> bad_sectors:int list -> [ `Repaired | `Unrecoverable of string ])
      option;
  stats : stats;
}

exception Pool_exhausted

exception Overloaded of { page : int; scans : int }

let () =
  Printexc.register_printer (function
    | Overloaded { page; scans } ->
        Some
          (Printf.sprintf
             "Buffer_pool.Overloaded(page %d: every frame pinned after %d \
              victim scan%s)"
             page scans
             (if scans = 1 then "" else "s"))
    | _ -> None)

(* Deterministic multiplicative mix so shard choice decorrelates from the
   round-robin disk striping ((id-1) mod n_disks) and from any sequential
   allocation pattern. *)
let mix_page page =
  let h = page * 0x9E3779B1 in
  let h = h lxor (h lsr 16) in
  h land max_int

let n_shards t = Array.length t.shards
let shard_of_page t page =
  if Array.length t.shards = 1 then 0
  else mix_page page mod Array.length t.shards

let shard_of t page = t.shards.(shard_of_page t page)

(* Simulated latch acquisition: charge the uncontended cost, then if this
   client's time falls inside another client's hold, count a conflict and
   wait until that hold ends.  With a monotone clock (single client) every
   hold lies in the past and the wait branch never triggers.

   The hold's length is unknown until release, so a client that starts
   in a gap takes the latch even if its hold will run past the start of
   a hold the host already executed (a dirty eviction forcing the WAL
   under the latch).  The two holds then overlap in simulated time: an
   optimistic approximation, counted in [pool.shard.overlaps]. *)
let latch_acquire t sh =
  Sim.charge_busy t.sim t.sim.Sim.cost.Cost_model.latch_cycles;
  let clock = t.sim.Sim.clock in
  let now = Clock.now clock in
  let free = Timeline.free_from sh.holds now in
  if free > now then begin
    let w = free - now in
    sh.conflicts <- sh.conflicts + 1;
    sh.waits_ns <- sh.waits_ns + w;
    Counter.incr t.stats.shard_conflicts;
    Counter.add t.stats.shard_waits_ns w;
    Clock.advance_to clock free
  end;
  sh.held_from <- free

let latch_release t sh =
  if Timeline.add sh.holds sh.held_from (Clock.now t.sim.Sim.clock) then
    Counter.incr t.stats.shard_overlaps

(* Drop every trace of [page] from the pool without writing it back: frame,
   ref bit, dirty bit, in-flight entry, CPU-cache lines.  Runs on every
   [Page_store.free] (the pool registers itself as an observer), so a
   free + realloc cycle can never resurrect stale frame state no matter
   which layer initiated the free. *)
let invalidate_page t page =
  let sh = shard_of t page in
  match Page_table.find sh.table page with
  | -1 -> ()
  | frame ->
      if t.pin.(frame) > 0 then
        invalid_arg "Buffer_pool: freeing a pinned page";
      Page_table.remove sh.table page;
      t.prefetched.(frame) <- false;
      t.frames.(frame) <- Page_store.nil;
      t.ref_bit.(frame) <- false;
      t.dirty.(frame) <- false;
      let page_size = Page_store.page_size t.store in
      Cache.invalidate_range t.sim.Sim.cache (frame * page_size) page_size

let create ?(n_prefetchers = 8) ?(n_shards = 1) ~capacity sim store disks =
  if capacity <= 0 then invalid_arg "Buffer_pool.create";
  if n_shards < 1 || n_shards > capacity then
    invalid_arg "Buffer_pool.create: n_shards must be in [1, capacity]";
  let shards =
    Array.init n_shards (fun i ->
        let lo = i * capacity / n_shards in
        let hi = (i + 1) * capacity / n_shards in
        {
          table = Page_table.create (2 * (hi - lo));
          lo;
          hi;
          oldest = lo;
          newest = hi - 1;
          hand = lo;
          holds = Timeline.create ~floor:(fun () -> Clock.floor sim.Sim.clock);
          held_from = 0;
          conflicts = 0;
          waits_ns = 0;
        })
  in
  let t =
    {
      sim;
      store;
      disks;
      capacity;
      frames = Array.make capacity Page_store.nil;
      regions = Array.make capacity (Mem.make ~bytes:Bytes.empty ~base:0);
      ref_bit = Array.make capacity false;
      newer = Array.init capacity (fun f -> f + 1);
      older = Array.init capacity (fun f -> f - 1);
      pin = Array.make capacity 0;
      dirty = Array.make capacity false;
      ready_at = Array.make capacity 0;
      prefetched = Array.make capacity false;
      shards;
      prefetcher_free = Array.make (max 1 n_prefetchers) 0;
      unwritten = Page_store.nil;
      pinned = 0;
      readahead = 0;
      wal = None;
      repair = None;
      stats = make_stats ();
    }
  in
  Array.iter
    (fun sh ->
      t.older.(sh.lo) <- -1;
      t.newer.(sh.hi - 1) <- -1)
    shards;
  Page_store.add_on_free store (invalidate_page t);
  t

let set_wal_hooks t hooks = t.wal <- hooks
let set_repair t hook = t.repair <- hook

let stats t = t.stats
let sim t = t.sim
let store t = t.store
let disks t = t.disks
let capacity t = t.capacity

let reset_stats t =
  List.iter Counter.reset (stats_counters t.stats);
  Array.iter
    (fun sh ->
      sh.conflicts <- 0;
      sh.waits_ns <- 0)
    t.shards

let kv t = stats_kv t.stats

let region_of_frame t frame page =
  Mem.make_tracked ~span:(Page_store.span t.store page)
    ~bytes:(Page_store.bytes t.store page)
    ~base:(frame * Page_store.page_size t.store)

(* The region of [page] for a hit on its [frame].  The store creates a
   page's bytes and span once per id, so a frame keeps one region while
   it holds the same page, built by the first hit after the frame took
   the page.  A read or a prefetch arrival returns a fresh region
   instead: caching it would promote a region per page read to the
   major heap, most of them dead once the page is evicted unhit. *)
let hit_region t frame page =
  let r = t.regions.(frame) in
  if r.Mem.bytes == Page_store.bytes t.store page then r
  else begin
    let r = region_of_frame t frame page in
    t.regions.(frame) <- r;
    r
  end

(* A frame whose read is still in flight at the caller's time cannot be
   reassigned. *)
let evictable t frame =
  t.pin.(frame) = 0
  && (t.frames.(frame) = Page_store.nil
     || t.ready_at.(frame) <= Clock.now t.sim.Sim.clock)

let wait_until t when_ =
  let now = Clock.now t.sim.Sim.clock in
  if when_ > now then begin
    Counter.add t.stats.io_wait_ns (when_ - now);
    Clock.advance_to t.sim.Sim.clock when_
  end

(* Write back the dirty page [p], bracketed by the WAL hooks that enforce
   log-before-data and refresh the durable page image.  The write re-stamps
   the page's checksum header (a disk write always lays down fresh,
   consistent sector checksums) with the newest logged LSN. *)
let write_back t p =
  (match t.wal with Some h -> h.before_page_write p | None -> ());
  let disk, phys = Page_store.write_location t.store p in
  Disk_model.write t.disks ~disk ~phys;
  let lsn = match t.wal with Some h -> h.page_lsn p | None -> 0 in
  Sim.busy_crc t.sim ~bytes:(Page_store.page_size t.store);
  Page_store.stamp ~lsn t.store p;
  match t.wal with Some h -> h.on_page_write p | None -> ()

(* ------------------------- media read path -------------------------- *)

(* Apply a corruption spec drawn by the disk model to the page's backing
   bytes.  Raw offsets are reduced mod the page size; a torn sector zeroes
   the 512-byte-aligned span containing the offset. *)
let apply_corruption t page spec =
  let b = Page_store.bytes t.store page in
  let ps = Bytes.length b in
  Page_store.rewritten t.store page;
  match spec with
  | Disk_model.Bit_flips flips ->
      List.iter
        (fun (off, mask) ->
          let off = off mod ps in
          Bytes.set b off
            (Char.chr (Char.code (Bytes.get b off) lxor mask land 0xff)))
        flips
  | Disk_model.Torn_sector off ->
      let start = off mod ps land lnot 511 in
      Bytes.fill b start (min 512 (ps - start)) '\000'

(* Finish reading [page]'s media into its backing bytes, given the outcome
   of the first attempt, already submitted to the disk.  Transient errors
   are retried up to the policy with exponential backoff charged to
   simulated time; persistent damage (latent sector, checksum mismatch)
   escalates to the repair hook.  Returns whether the bytes came back
   clean or had to be repaired; raises [Io_error] when the page cannot be
   produced. *)
let media_finish t page ~disk ~phys first =
  let fail ~attempts ~cause ~repair =
    Counter.incr t.stats.err_unrecoverable;
    raise (Io_error { page; attempts; cause; repair })
  in
  let repair_or ~attempts ~cause ~bad_sectors =
    match t.repair with
    | None -> fail ~attempts ~cause ~repair:`Not_attempted
    | Some r -> (
        Counter.incr t.stats.repair_attempts;
        match r page ~bad_sectors with
        | `Repaired ->
            Counter.incr t.stats.repair_repaired;
            `Repaired
        | `Unrecoverable msg ->
            Counter.incr t.stats.repair_failed;
            fail ~attempts ~cause ~repair:(`Failed msg))
  in
  let verify ~attempts =
    Sim.busy_crc t.sim ~bytes:(Page_store.page_size t.store);
    match Page_store.verify t.store page with
    | Page_store.Ok -> `Ok
    | Page_store.Bad_crc { bad_sectors; _ } ->
        Counter.incr t.stats.err_checksum;
        repair_or ~attempts ~cause:`Checksum ~bad_sectors
  in
  let rec attempt n backoff outcome =
    match outcome with
    | Disk_model.Read_ok c ->
        wait_until t c;
        verify ~attempts:n
    | Disk_model.Read_corrupt (c, spec) ->
        wait_until t c;
        apply_corruption t page spec;
        verify ~attempts:n
    | Disk_model.Read_error (c, kind) -> (
        wait_until t c;
        match kind with
        | `Transient ->
            Counter.incr t.stats.err_transient;
            if n <= retry.max_retries then begin
              Counter.incr t.stats.retry_read;
              Counter.add t.stats.retry_wait_ns backoff;
              wait_until t (Clock.now t.sim.Sim.clock + backoff);
              attempt (n + 1)
                (backoff * retry.backoff_mult)
                (Disk_model.read_result t.disks ~disk ~phys ())
            end
            else fail ~attempts:n ~cause:`Transient ~repair:`Not_attempted
        | `Latent ->
            Counter.incr t.stats.err_latent;
            (* the whole page is unreadable: no sector localisation *)
            repair_or ~attempts:n ~cause:`Latent ~bad_sectors:[])
  in
  attempt 1 retry.backoff_ns first

(* ----------------------------- replacement --------------------------- *)

(* The frame after [f] on the hand's walk: the next newer one, or past
   the newest, the oldest. *)
let next_frame t sh f =
  let n = t.newer.(f) in
  if n < 0 then sh.oldest else n

(* SIEVE sweep over the shard's queue from the hand: the first evictable
   frame, empty or unvisited, within two laps ([steps] so far).  Visited
   frames it passes lose their bit; pinned and in-flight ones keep it.
   The hand then stays on the frame after the victim.  With
   [skip_dirty], dirty frames are passed over with their bits left
   alone, and the hand parks on the first of them, [parked] (-1 while
   none), so a prefetch's clean sweep does not carry it past frames a
   demand miss would take.  When nothing is evictable, no bit was
   cleared; the hand stays where the walk stopped, one frame on from
   where it began, and [Pool_exhausted] is raised. *)
let sweep t sh ~skip_dirty =
  let n = sh.hi - sh.lo in
  let rec go f steps parked =
    if steps > 2 * n then begin
      sh.hand <- f;
      raise Pool_exhausted
    end
    else if not (evictable t f) then go (next_frame t sh f) (steps + 1) parked
    else if skip_dirty && t.dirty.(f) then
      go (next_frame t sh f) (steps + 1) (if parked < 0 then f else parked)
    else if t.frames.(f) <> Page_store.nil && t.ref_bit.(f) then begin
      t.ref_bit.(f) <- false;
      go (next_frame t sh f) (steps + 1) parked
    end
    else begin
      sh.hand <- (if parked >= 0 then parked else next_frame t sh f);
      f
    end
  in
  go sh.hand 0 (-1)

(* Move frame [f] to the newest end of its shard's queue. *)
let relink_newest t sh f =
  let n = t.newer.(f) in
  if n >= 0 then begin
    let o = t.older.(f) in
    t.older.(n) <- o;
    if o >= 0 then t.newer.(o) <- n else sh.oldest <- n;
    t.newer.(sh.newest) <- f;
    t.older.(f) <- sh.newest;
    t.newer.(f) <- -1;
    sh.newest <- f
  end

(* Take the frame [f] the sweep gave up, evicting its current page, and
   make it the newest: it is about to take a new page, unvisited.  A
   dirty page is not written back here but left in [t.unwritten] for
   [write_victim], so a demand miss can submit its own read first. *)
let evict_frame t sh f =
  let page_size = Page_store.page_size t.store in
  (match t.frames.(f) with
  | p when p = Page_store.nil -> ()
  | p ->
      Page_table.remove sh.table p;
      t.prefetched.(f) <- false;
      Counter.incr t.stats.evictions;
      if t.dirty.(f) then begin
        t.dirty.(f) <- false;
        t.unwritten <- p
      end;
      Cache.invalidate_range t.sim.Sim.cache (f * page_size) page_size);
  t.frames.(f) <- Page_store.nil;
  t.ref_bit.(f) <- false;
  relink_newest t sh f;
  f

(* Write back the dirty page the last victim held, if any: the log force
   first, then the data write. *)
let write_victim t =
  let p = t.unwritten in
  if p <> Page_store.nil then begin
    t.unwritten <- Page_store.nil;
    write_back t p
  end

(* The demand victim: the first frame the sweep gives up, its dirty page
   left for [write_victim]. *)
let victim_frame t sh = evict_frame t sh (sweep t sh ~skip_dirty:false)

(* A prefetch's victim.  While a write-back would force the log, the
   sweep takes only a clean frame, so a hint never makes its issuer wait
   for a log force, and it parks the hand on the first dirty frame it
   passed, for the next demand miss.  Only when no clean frame is
   evictable does it fall back to the demand victim, swept from where the
   clean sweep began: that victim is dirty, and its write-back forces the
   log (counted under [pool.prefetch_dirty_victims]).  With the log
   durable, or with no log, it is the demand victim. *)
let prefetch_frame t sh =
  let f =
    match t.wal with
    | Some h when h.write_forces_log () -> (
        let start = sh.hand in
        match sweep t sh ~skip_dirty:true with
        | f -> evict_frame t sh f
        | exception Pool_exhausted ->
            sh.hand <- start;
            let f = victim_frame t sh in
            Counter.incr t.stats.prefetch_dirty_victims;
            f)
    | _ -> victim_frame t sh
  in
  write_victim t;
  f

(* Like [victim_frame], but when the sweep fails because every unpinned
   frame holds a read still in flight, wait for the earliest completion
   and retry instead of giving up: an in-flight read about to land is not
   pool exhaustion.  Raises only when every frame is genuinely pinned. *)
let victim_frame_waiting t sh =
  try victim_frame t sh
  with Pool_exhausted ->
    let now = Clock.now t.sim.Sim.clock in
    let earliest = ref max_int in
    for f = sh.lo to sh.hi - 1 do
      let r = t.ready_at.(f) in
      if t.pin.(f) = 0 && t.frames.(f) <> Page_store.nil && r > now
         && r < !earliest
      then earliest := r
    done;
    if !earliest = max_int then raise Pool_exhausted
    else begin
      wait_until t !earliest;
      victim_frame t sh
    end

(* Demand-path frame acquisition with graceful degradation: when the
   sweep finds every frame pinned, retry it a bounded number of times
   with a wait charged to simulated time (an in-flight read may land or
   a pin expire in the meantime), then surface a typed [Overloaded]
   (counted under [pool.overloaded]) so the caller sheds the request
   instead of dying on a raw [Pool_exhausted]. *)
let victim_frame_demand t sh page =
  let rec go scans =
    try victim_frame_waiting t sh
    with Pool_exhausted ->
      if scans > victim_rescans then begin
        Counter.incr t.stats.overloaded;
        raise (Overloaded { page; scans })
      end
      else begin
        Counter.add t.stats.overload_wait_ns rescan_wait_ns;
        wait_until t (Clock.now t.sim.Sim.clock + rescan_wait_ns);
        go (scans + 1)
      end
  in
  go 1

(* Drop an unpinned frame whose page turned out unusable (failed
   verification on arrival): forget the mapping without write-back. *)
let drop_frame t sh frame page =
  Page_table.remove sh.table page;
  t.prefetched.(frame) <- false;
  t.frames.(frame) <- Page_store.nil;
  t.ref_bit.(frame) <- false;
  t.dirty.(frame) <- false;
  let page_size = Page_store.page_size t.store in
  Cache.invalidate_range t.sim.Sim.cache (frame * page_size) page_size

(* Cycles to enqueue a prefetch request. *)
let prefetch_request_busy = 200

(* Request an asynchronous read of [page].  No-op if already resident or in
   flight.  The request is served by the earliest-available prefetcher.  A
   prefetcher does not retry or repair: on any I/O error it drops the hint
   (counted) and lets the eventual demand read do the fighting. *)
let prefetch t page =
  let sh = shard_of t page in
  if not (Page_table.mem sh.table page) then begin
    Sim.charge_busy t.sim prefetch_request_busy;
    latch_acquire t sh;
    (try
       let frame = prefetch_frame t sh in
       let worker = ref 0 in
       for i = 1 to Array.length t.prefetcher_free - 1 do
         if t.prefetcher_free.(i) < t.prefetcher_free.(!worker) then worker := i
       done;
       let now = Clock.now t.sim.Sim.clock in
       let free = t.prefetcher_free.(!worker) in
       let earliest = if free > now then free else now in
       let disk, phys = Page_store.location t.store page in
       let install completion =
         t.prefetcher_free.(!worker) <- completion;
         t.frames.(frame) <- page;
         Page_table.replace sh.table page frame;
         t.ready_at.(frame) <- completion;
         t.prefetched.(frame) <- true;
         Counter.incr t.stats.prefetch_issued
       in
       match Disk_model.read_result t.disks ~earliest ~disk ~phys () with
       | Disk_model.Read_ok c -> install c
       | Disk_model.Read_corrupt (c, spec) ->
           (* the bad bytes land in the frame; verification at first [get]
              catches them *)
           apply_corruption t page spec;
           install c
       | Disk_model.Read_error (c, kind) ->
           t.prefetcher_free.(!worker) <- c;
           (match kind with
           | `Transient -> Counter.incr t.stats.err_transient
           | `Latent -> Counter.incr t.stats.err_latent);
           Counter.incr t.stats.prefetch_dropped
     with Pool_exhausted ->
       (* pool too hot to prefetch: drop the hint *)
       Counter.incr t.stats.prefetch_dropped);
    latch_release t sh
  end

(* Sequential readahead after a demand miss at (disk, phys): asynchronously
   read the next physically-consecutive pages on the same disk. *)
let issue_readahead t ~disk ~phys =
  for k = 1 to t.readahead do
    let nxt = Page_store.page_at t.store ~disk ~phys:(phys + k) in
    if nxt <> Page_store.nil then prefetch t nxt
  done

(* A prefetched page just landed in [frame]: verify it like any other disk
   read.  On checksum failure, escalate to repair; if that cannot produce
   the page, evict the frame before raising so the pool never serves bytes
   it knows are bad. *)
let verify_arrival t sh page frame =
  Sim.busy_crc t.sim ~bytes:(Page_store.page_size t.store);
  match Page_store.verify t.store page with
  | Page_store.Ok -> ()
  | Page_store.Bad_crc { bad_sectors; _ } -> (
      Counter.incr t.stats.err_checksum;
      let fail repair =
        drop_frame t sh frame page;
        Counter.incr t.stats.err_unrecoverable;
        raise (Io_error { page; attempts = 1; cause = `Checksum; repair })
      in
      match t.repair with
      | None -> fail `Not_attempted
      | Some r -> (
          Counter.incr t.stats.repair_attempts;
          match r page ~bad_sectors with
          | `Repaired -> Counter.incr t.stats.repair_repaired
          | `Unrecoverable msg ->
              Counter.incr t.stats.repair_failed;
              fail (`Failed msg)))

(* Pin a page, reading it from disk if not resident.  Returns the region to
   access its contents through.  Must be balanced by [unpin].

   A miss whose victim is dirty submits its own read first, then
   writes the victim back (the log force, then the data write), then
   waits for the read: the client waits about the longer of the read and
   the log force, not their sum, and on a shared disk the read is served
   ahead of the write.

   Latch discipline: the shard latch covers the hash lookup and any
   frame-state mutation, including a dirty victim's write-back and its
   log force, but is released across disk waits (the remaining latency
   of an in-flight prefetch, a read another client started, or a demand
   media read) and re-acquired to install the result — holding a latch
   across a read would serialise the whole shard on the disk.  Each hold
   is recorded as a span on the shard's timeline, so the release is real
   for a client replayed at an earlier time too. *)
let get t page =
  let sh = shard_of t page in
  latch_acquire t sh;
  Sim.busy_bufcall t.sim;
  match Page_table.find sh.table page with
  | frame when frame >= 0 ->
      let arrival = t.prefetched.(frame) in
      if arrival then begin
        (* the page's first use: it stays unvisited *)
        t.prefetched.(frame) <- false;
        Counter.incr t.stats.prefetch_hits;
        latch_release t sh;
        wait_until t t.ready_at.(frame);
        verify_arrival t sh page frame;
        latch_acquire t sh
      end
      else begin
        Counter.incr t.stats.hits;
        t.ref_bit.(frame) <- true;
        if t.ready_at.(frame) > Clock.now t.sim.Sim.clock then begin
          latch_release t sh;
          wait_until t t.ready_at.(frame);
          latch_acquire t sh
        end
      end;
      t.pin.(frame) <- t.pin.(frame) + 1;
      t.pinned <- frame;
      latch_release t sh;
      if arrival then region_of_frame t frame page else hit_region t frame page
  | _ ->
      let frame =
        try victim_frame_demand t sh page
        with Overloaded _ as e ->
          latch_release t sh;
          raise e
      in
      let disk, phys = Page_store.location t.store page in
      Counter.incr t.stats.misses;
      if t.unwritten <> Page_store.nil then begin
        (* capture the victim's bytes for its write before the read lands
           in the frame: a page-sized move *)
        Counter.incr t.stats.demand_dirty_victims;
        Sim.charge_busy t.sim
          (Page_store.page_size t.store
          / t.sim.Sim.cost.Cost_model.move_bytes_per_cycle)
      end;
      let first = Disk_model.read_result t.disks ~disk ~phys () in
      write_victim t;
      latch_release t sh;
      ignore (media_finish t page ~disk ~phys first : [ `Ok | `Repaired ]);
      t.ready_at.(frame) <- Clock.now t.sim.Sim.clock;
      latch_acquire t sh;
      t.frames.(frame) <- page;
      Page_table.replace sh.table page frame;
      t.pin.(frame) <- 1;
      t.pinned <- frame;
      latch_release t sh;
      let region = region_of_frame t frame page in
      if t.readahead > 0 then issue_readahead t ~disk ~phys;
      region

(* The frame of [page], or -1 if it is not resident. *)
let frame_of_page t page = Page_table.find (shard_of t page).table page

(* The frames a tree last saw its pages in, indexed by page id: a tree
   handle keeps one for its descents.  Ids are dense (the store hands
   out 1, 2, ...), so the array grows by doubling to the largest id
   remembered.  An unremembered id reads frame 0, which exists in every
   pool, so the memo needs no sentinel: [held_frame] validates frame 0
   like any other. *)
type held = { mutable frame_of : int array }

let held () = { frame_of = [||] }

let remember h page frame =
  let n = Array.length h.frame_of in
  if page >= n then begin
    let m = ref (if n = 0 then 64 else 2 * n) in
    while page >= !m do
      m := 2 * !m
    done;
    let a = Array.make !m 0 in
    Array.blit h.frame_of 0 a 0 n;
    h.frame_of <- a
  end;
  h.frame_of.(page) <- frame

(* The frame [h] remembers for [page], if it still holds [page], its
   read has landed at the caller's time, and it is not a prefetch arrival
   whose bytes no [get] has verified yet; -1 otherwise (eviction, a
   cleared or crashed pool, the page freed and reallocated, a page never
   remembered).  The validation is two loads of frame state. *)
let[@inline] held_frame t h page =
  let memo = h.frame_of in
  let f = if page < Array.length memo then memo.(page) else 0 in
  Sim.charge_busy t.sim (2 * t.sim.Sim.cost.Cost_model.c_access);
  if
    t.frames.(f) = page
    && t.ready_at.(f) <= Clock.now t.sim.Sim.clock
    && not t.prefetched.(f)
  then f
  else -1

(* The pin policy of every descent, singleton or batched.

   A nonleaf page (the root included) is pinned through its
   [held_frame]: two loads instead of the paper's buffer-manager call
   and the shard latch, the FB+-tree's optimistic inner-node read;
   without one, by [get].  A leaf page keeps the full call in every
   tree: that call is the baseline busy time of the paper's Fig. 3(b),
   and holding leaves too would put the pB+-Tree above its 40 % of the
   baseline.

   Only a caller that knows the leaf node's lines before the pin passes
   a span, and only the cache-first tree does: its child pointer names
   the node's first line as well as its page, while a disk-first or
   micro-indexing parent names only the page.  The pin starts the
   span's fetch as early as it can: when the leaf page has a
   [held_frame], there before the call, so the node's memory latency
   overlaps it; otherwise right after it, into the frame [get] pinned.
   Either way the span is in flight when the pin returns, so the caller
   does not prefetch it again.  After a call, [h] remembers the frame
   it pinned. *)
let pin t h page ~leaf ~off ~len =
  if leaf && len = 0 then get t page
  else begin
    let f = held_frame t h page in
    if f >= 0 && not leaf then begin
      Counter.incr t.stats.held_hits;
      t.ref_bit.(f) <- true;
      t.pin.(f) <- t.pin.(f) + 1;
      hit_region t f page
    end
    else begin
      if f >= 0 then
        Cache.prefetch_range t.sim.Sim.cache
          ~busy_per_line:t.sim.Sim.cost.Cost_model.c_prefetch
          ((f * Page_store.page_size t.store) + off)
          len;
      let r = get t page in
      remember h page t.pinned;
      if leaf && f < 0 then Mem.prefetch t.sim r ~off ~len;
      r
    end
  end

let unpin t page =
  let frame = frame_of_page t page in
  if frame >= 0 && t.pin.(frame) > 0 then t.pin.(frame) <- t.pin.(frame) - 1
  else invalid_arg "Buffer_pool.unpin: page not pinned"

(* Pin a batch of pages together.  The whole batch's missing pages are
   first issued as asynchronous prefetches, so their disk reads overlap
   across the prefetcher pool instead of serialising one demand miss at
   a time; then every page is pinned in order under [pin]'s policy: a
   nonleaf level through [h], a leaf level by [get].  If a frame cannot
   be found partway through ([Overloaded] — or any other error), the
   pages already pinned by this call are unpinned before the exception
   escapes, so a refused batch never leaks pins and can be retried
   smaller: callers degrade by splitting the batch (docs/BATCHING.md),
   not by deadlocking on frame exhaustion.

   Pages should be distinct for the coalescing to help, but duplicates
   are handled correctly (each occurrence takes its own pin). *)
let get_batch t h ~leaf pages =
  let n = Array.length pages in
  if n = 0 then [||]
  else begin
    (* Coalesce: async-read everything that would demand-miss.  A hint
       dropped because the pool is hot just falls back to the demand
       read below. *)
    Array.iter
      (fun p ->
        if not (Page_table.mem (shard_of t p).table p) then prefetch t p)
      pages;
    let acc = ref [] in
    let pinned = ref 0 in
    (try
       for i = 0 to n - 1 do
         acc := pin t h pages.(i) ~leaf ~off:0 ~len:0 :: !acc;
         incr pinned
       done
     with e ->
       for j = !pinned - 1 downto 0 do
         unpin t pages.(j)
       done;
       raise e);
    Array.of_list (List.rev !acc)
  end

let mark_dirty t page =
  let frame = frame_of_page t page in
  if frame < 0 then invalid_arg "Buffer_pool.mark_dirty: page not resident";
  t.dirty.(frame) <- true;
  match t.wal with Some h -> h.on_page_dirty page | None -> ()

let with_page t page f =
  let region = get t page in
  Fun.protect ~finally:(fun () -> unpin t page) (fun () -> f region)

let is_resident t page = Page_table.mem (shard_of t page).table page

(* Media check for the scrubber: read a non-resident page through the full
   retry/verify/repair path without installing it in a frame.  Resident
   pages are skipped — the in-memory copy is authoritative and will lay
   down a fresh checksum when written back. *)
let check_media t page =
  if is_resident t page then `Resident
  else
    let disk, phys = Page_store.location t.store page in
    match
      media_finish t page ~disk ~phys
        (Disk_model.read_result t.disks ~disk ~phys ())
    with
    | `Ok -> `Ok
    | `Repaired -> `Repaired
    (* A transient streak that exhausts the retry budget is the disk
       refusing to answer, not media damage — the sector may be fine.
       Report it as [`Busy] so a scrubber re-tries on a later lap
       instead of declaring the page unrecoverable. *)
    | exception Io_error { attempts; cause = `Transient; _ } -> `Busy attempts
    | exception Io_error { attempts; cause; repair; _ } ->
        `Unrecoverable
          (Printf.sprintf "%s error after %d attempt%s%s"
             (io_cause_name cause) attempts
             (if attempts = 1 then "" else "s")
             (match repair with
             | `Not_attempted -> ""
             | `Failed msg -> "; repair failed: " ^ msg))

(* Classic sequential I/O prefetching (the paper's Section 2 contrast to
   jump-pointer arrays): after a demand miss, asynchronously read the next
   [depth] pages in *physical* order on the same disk.  Effective for
   clustered/bulkloaded layouts, useless once updates have scattered the
   leaf order. *)
let set_sequential_readahead t depth = t.readahead <- max 0 depth

(* Allocate a fresh page and make it resident (no disk read: it is born in
   memory) with one pin.  Returns the page id and its region. *)
let create_page t =
  let page = Page_store.alloc t.store in
  let sh = shard_of t page in
  latch_acquire t sh;
  let frame =
    try victim_frame_demand t sh page
    with Overloaded _ as e ->
      (* the page was allocated but can never be installed: give it back
         before surfacing the overload *)
      latch_release t sh;
      Page_store.free t.store page;
      raise e
  in
  write_victim t;
  t.frames.(frame) <- page;
  Page_table.replace sh.table page frame;
  t.ready_at.(frame) <- Clock.now t.sim.Sim.clock;
  (* unlike a page read in, a page born here enters visited: its
     creator is about to fill it *)
  t.ref_bit.(frame) <- true;
  t.pin.(frame) <- 1;
  t.dirty.(frame) <- true;
  latch_release t sh;
  (match t.wal with
  | Some h ->
      h.on_page_alloc page;
      h.on_page_dirty page
  | None -> ());
  Sim.busy_bufcall t.sim;
  (page, region_of_frame t frame page)

(* Release a page back to the store.  It must be unpinned.  The pool's
   stale state (frame, dirty bit, in-flight entry) is invalidated by the
   [Page_store] free observer registered at [create]. *)
let free_page t page =
  let frame = frame_of_page t page in
  if frame >= 0 && t.pin.(frame) > 0 then
    invalid_arg "Buffer_pool.free_page: pinned";
  (match t.wal with Some h -> h.on_page_free page | None -> ());
  Page_store.free t.store page

(* With every frame empty, each shard's hand restarts at its oldest
   frame, so the sweeps that follow fill the empty frames oldest to
   newest before they meet a page read since.  Left where it was, a hand
   partway along the queue reaches the frames it already filled (now
   the newest, unvisited) before the empty ones behind it. *)
let restart_hands t = Array.iter (fun sh -> sh.hand <- sh.oldest) t.shards

(* Evict every unpinned page (writing back dirty ones): a cold pool, as in
   the paper's search-I/O experiments.  Raises [Pool_exhausted] via victim
   search only if pages remain pinned. *)
let clear t =
  let page_size = Page_store.page_size t.store in
  for f = 0 to t.capacity - 1 do
    match t.frames.(f) with
    | p when p = Page_store.nil -> ()
    | p ->
        if t.pin.(f) > 0 then invalid_arg "Buffer_pool.clear: pinned page";
        Page_table.remove (shard_of t p).table p;
        t.prefetched.(f) <- false;
        if t.dirty.(f) then begin
          t.dirty.(f) <- false;
          write_back t p
        end;
        t.frames.(f) <- Page_store.nil;
        t.ref_bit.(f) <- false;
        Cache.invalidate_range t.sim.Sim.cache (f * page_size) page_size
  done;
  restart_hands t;
  Array.fill t.prefetcher_free 0 (Array.length t.prefetcher_free) 0

(* Write back every dirty page without evicting anything: the data half of
   a sharp checkpoint. *)
let flush_dirty t =
  for f = 0 to t.capacity - 1 do
    match t.frames.(f) with
    | p when p = Page_store.nil -> ()
    | p ->
        if t.dirty.(f) then begin
          t.dirty.(f) <- false;
          write_back t p
        end
  done

(* Write back ONE dirty page if it is resident and dirty; returns whether
   a write happened.  The unit of work for a paced (fuzzy) checkpoint,
   which hardens pages a few at a time between client operations instead
   of draining the whole pool in one stall. *)
let write_back_page t page =
  let f = frame_of_page t page in
  if f >= 0 && t.dirty.(f) then begin
    t.dirty.(f) <- false;
    write_back t page;
    true
  end
  else false

let is_dirty t page =
  let f = frame_of_page t page in
  f >= 0 && t.dirty.(f)

(* Currently dirty resident pages: a fuzzy checkpoint's initial worklist. *)
let dirty_pages t =
  let acc = ref [] in
  for f = t.capacity - 1 downto 0 do
    if t.dirty.(f) && t.frames.(f) <> Page_store.nil then
      acc := t.frames.(f) :: !acc
  done;
  !acc

(* Crash semantics: discard every frame WITHOUT writing anything back and
   reset pins, in-flight reads and prefetcher state.  Dirty page contents
   that never reached disk die here — exactly what recovery must repair. *)
let drop_all t =
  let page_size = Page_store.page_size t.store in
  for f = 0 to t.capacity - 1 do
    (match t.frames.(f) with
    | p when p = Page_store.nil -> ()
    | p ->
        Page_table.remove (shard_of t p).table p;
        Cache.invalidate_range t.sim.Sim.cache (f * page_size) page_size);
    t.frames.(f) <- Page_store.nil;
    t.ref_bit.(f) <- false;
    t.dirty.(f) <- false;
    t.prefetched.(f) <- false;
    t.pin.(f) <- 0
  done;
  restart_hands t;
  Array.fill t.prefetcher_free 0 (Array.length t.prefetcher_free) 0

let resident_pages t =
  Array.fold_left (fun a sh -> a + Page_table.length sh.table) 0 t.shards
