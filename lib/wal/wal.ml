(* Physiological write-ahead log with redo-only (ARIES-lite) recovery.

   The log sits between the buffer pool and the page store and maintains
   the fiction of a durable disk: a byte stream of framed log records plus
   a per-page durable image (what the page's sectors would hold after a
   power cut).  The in-memory page store always holds the current bytes;
   durability is exactly {durable stream + durable images}, and recovery
   reconstructs the committed prefix from those two alone.

   Invariant that makes redo-only recovery sound: a page's durable image
   is only ever updated from state covered by a *successful* log flush,
   and sealed log content always consists of whole committed operations
   (pages are diffed and sealed at commit time, never mid-operation).  So
   no durable image can run ahead of the last durable commit record, and
   nothing ever needs undoing.  The price is the "deferred write-back":
   evicting a page with uncommitted changes writes the *store* bytes to
   the simulated disk but leaves the durable image stale; the next
   checkpoint re-writes such pages.

   The durable stream is kept on S >= 1 log stripes of K >= 1 mirrored
   log disks each (S*K log disks total; the disk for stripe s, mirror k
   is s*K + k).  Sealed records are placed round-robin across stripes by
   seal order, so consecutive records land on different spindles and a
   flush drives them in parallel — log striping for bandwidth.  Within a
   stripe the K mirrors hold position-identical byte streams: every
   flush appends to all of them and waits for the slowest.  Every record
   carries its own CRC-32, so a read that hits a torn or rotted record
   on one mirror is detected and falls back to the next mirror of the
   same stripe, healing the damaged span in passing.  Log disks draw
   from the same [Fault.profile] machinery as data disks — the log is
   not exempt from media failure, it survives it.

   LSN invariant the striping leans on: every [fresh_lsn] call is
   immediately followed by exactly one [append], so LSNs are allocated
   in seal order and the sealed stream carries consecutive LSNs.  A scan
   reads each stripe independently and merges records by LSN; any gap in
   the merged sequence with records beyond it proves committed records
   were lost in some stripe (a genuine crash cut can only truncate the
   tail of the seal order, never punch a hole in it). *)

open Fpb_simmem
open Fpb_storage
module Counter = Fpb_obs.Counter
module Histogram = Fpb_obs.Histogram

exception Crashed

type record =
  | Image of { lsn : int; page : int; img : Bytes.t }
  | Delta of { lsn : int; page : int; off : int; bytes : Bytes.t }
  | Commit of { lsn : int; op : int; meta : int list }
  | Checkpoint of { lsn : int; op : int; meta : int list }
  | Alloc of { lsn : int; page : int }
  | Free of { lsn : int; page : int }

(* -------------------------------------------------------------------- *)
(* Record framing: [len | body | crc32(body)], 32-bit little-endian.    *)

module Codec = struct
  let kind_image = 1
  let kind_delta = 2
  let kind_commit = 3
  let kind_checkpoint = 4
  let kind_alloc = 5
  let kind_free = 6
  let max_body = 1 lsl 24 (* sanity bound when parsing *)

  let set_i32 b pos v = Bytes.set_int32_le b pos (Int32.of_int v)

  let set_meta b pos meta =
    set_i32 b pos (List.length meta);
    List.iteri (fun i v -> set_i32 b (pos + 4 + (4 * i)) v) meta

  (* Every body starts [kind | lsn | one more i32]; [at] is where the
     frame starts. *)
  let set_head b at kind lsn x =
    Bytes.set_uint8 b (at + 4) kind;
    set_i32 b (at + 5) lsn;
    set_i32 b (at + 9) x

  (* Frame length and checksum around a body the writer filled in. *)
  let seal b at body_len =
    set_i32 b at body_len;
    set_i32 b (at + 4 + body_len) (Checksum.update 0 b (at + 4) body_len)

  let body_len = function
    | Image { img; _ } -> 9 + Bytes.length img
    | Delta { bytes; _ } -> 13 + Bytes.length bytes
    | Commit { meta; _ } | Checkpoint { meta; _ } -> 13 + (4 * List.length meta)
    | Alloc _ | Free _ -> 9

  let size r = body_len r + 8
  let delta_size len = 21 + len

  (* The frame of [Delta { lsn; page; off; bytes }], [bytes] being the
     [len] bytes of [src] at [src_off], written at [at]: the WAL frames a
     delta straight from the page, without copying the slice out. *)
  let write_delta b at ~lsn ~page ~off src ~src_off ~len =
    set_head b at kind_delta lsn page;
    set_i32 b (at + 13) off;
    Bytes.blit src src_off b (at + 17) len;
    seal b at (13 + len)

  let write_meta b at kind lsn op meta =
    set_head b at kind lsn op;
    set_meta b (at + 13) meta;
    seal b at (13 + (4 * List.length meta))

  let write_page b at kind lsn page =
    set_head b at kind lsn page;
    seal b at 9

  (* Write [r]'s frame at [at]; [b] has room for [size r] bytes there. *)
  let write b at = function
    | Image { lsn; page; img } ->
        let n = Bytes.length img in
        set_head b at kind_image lsn page;
        Bytes.blit img 0 b (at + 13) n;
        seal b at (9 + n)
    | Delta { lsn; page; off; bytes } ->
        write_delta b at ~lsn ~page ~off bytes ~src_off:0
          ~len:(Bytes.length bytes)
    | Commit { lsn; op; meta } -> write_meta b at kind_commit lsn op meta
    | Checkpoint { lsn; op; meta } -> write_meta b at kind_checkpoint lsn op meta
    | Alloc { lsn; page } -> write_page b at kind_alloc lsn page
    | Free { lsn; page } -> write_page b at kind_free lsn page

  let encode r =
    let b = Bytes.create (size r) in
    write b 0 r;
    Bytes.unsafe_to_string b

  let get_i32 b pos = Int32.to_int (Bytes.get_int32_le b pos)

  (* Parse the framed record at [pos] in [b] (the stream occupies bytes
     [0, len), defaulting to all of [b]); [None] on a torn or corrupt
     record. *)
  let decode ?len:(n = -1) b pos =
    let n = if n < 0 then Bytes.length b else n in
    if pos + 4 > n then None
    else
      let len = get_i32 b pos in
      if len < 9 || len > max_body || pos + 4 + len + 4 > n then None
      else
        let body = pos + 4 in
        (* mask: i32 round-trip sign-extends checksums >= 2^31 *)
        let sum = get_i32 b (body + len) land 0xffffffff in
        if sum <> Checksum.update 0 b body len then None
        else
          let kind = Char.code (Bytes.get b body) in
          let lsn = get_i32 b (body + 1) in
          let payload = body + 5 in
          let payload_len = len - 5 in
          let meta_at off =
            let count = get_i32 b off in
            if count < 0 || off + 4 + (4 * count) > body + len then None
            else
              Some (List.init count (fun i -> get_i32 b (off + 4 + (4 * i))))
          in
          let next = body + len + 4 in
          match kind with
          | k when k = kind_image ->
              let page = get_i32 b payload in
              let img = Bytes.sub b (payload + 4) (payload_len - 4) in
              Some (Image { lsn; page; img }, next)
          | k when k = kind_delta ->
              if payload_len < 8 then None
              else
                let page = get_i32 b payload in
                let off = get_i32 b (payload + 4) in
                let bytes = Bytes.sub b (payload + 8) (payload_len - 8) in
                Some (Delta { lsn; page; off; bytes }, next)
          | k when k = kind_commit -> (
              let op = get_i32 b payload in
              match meta_at (payload + 4) with
              | Some meta -> Some (Commit { lsn; op; meta }, next)
              | None -> None)
          | k when k = kind_checkpoint -> (
              let op = get_i32 b payload in
              match meta_at (payload + 4) with
              | Some meta -> Some (Checkpoint { lsn; op; meta }, next)
              | None -> None)
          | k when k = kind_alloc ->
              Some (Alloc { lsn; page = get_i32 b payload }, next)
          | k when k = kind_free ->
              Some (Free { lsn; page = get_i32 b payload }, next)
          | _ -> None
end

(* -------------------------------------------------------------------- *)

type boundary = {
  end_off : int;
  size : int;
  kind : [ `Image | `Delta | `Commit | `Checkpoint | `Alloc | `Free ];
}

type damage =
  | Torn_tail of int
  | Zero_span of { off : int; len : int }
  | Flip of { off : int; bit : int }

type recovery = {
  committed_ops : int;
  meta : int list;
  scanned_records : int;
  redo_records : int;
  redo_pages : int;
  free_pages : int;
  torn_tail_bytes : int;
  damaged_records : int;
  recovery_ns : int;
}

type stats = {
  records : Counter.t;
  images : Counter.t;
  deltas : Counter.t;
  commits : Counter.t;
  checkpoints : Counter.t;
  allocs : Counter.t;
  frees : Counter.t;
  c_log_bytes : Counter.t;
  flushes : Counter.t;
  flush_wait_ns : Counter.t;
  deferred_writebacks : Counter.t;
  crashes : Counter.t;
  torn_pages : Counter.t;
  recoveries : Counter.t;
  c_redo_records : Counter.t;
  c_redo_pages : Counter.t;
  c_recovery_ns : Counter.t;
  mirror_fallbacks : Counter.t;
  mirror_repairs : Counter.t;
  c_damaged : Counter.t;
  repair_sectors : Counter.t;
  repair_full : Counter.t;
  c_truncated : Counter.t;
  full_diffs : Counter.t;
}

let make_stats () =
  {
    records = Counter.make "wal.records";
    images = Counter.make "wal.images";
    deltas = Counter.make "wal.deltas";
    commits = Counter.make "wal.commits";
    checkpoints = Counter.make "wal.checkpoints";
    allocs = Counter.make "wal.alloc_records";
    frees = Counter.make "wal.free_records";
    c_log_bytes = Counter.make "wal.log_bytes";
    flushes = Counter.make "wal.flushes";
    flush_wait_ns = Counter.make "wal.flush_wait_ns";
    deferred_writebacks = Counter.make "wal.deferred_writebacks";
    crashes = Counter.make "wal.crashes";
    torn_pages = Counter.make "wal.torn_pages";
    recoveries = Counter.make "wal.recoveries";
    c_redo_records = Counter.make "wal.redo_records";
    c_redo_pages = Counter.make "wal.redo_pages";
    c_recovery_ns = Counter.make "wal.recovery_ns";
    mirror_fallbacks = Counter.make "wal.mirror.fallbacks";
    mirror_repairs = Counter.make "wal.mirror.repairs";
    c_damaged = Counter.make "wal.damaged_records";
    repair_sectors = Counter.make "wal.repair.sectors";
    repair_full = Counter.make "wal.repair.full";
    c_truncated = Counter.make "wal.log.truncated_bytes";
    full_diffs = Counter.make "wal.delta.full_diffs";
  }

let stats_counters s =
  [
    s.records; s.images; s.deltas; s.commits; s.checkpoints; s.allocs;
    s.frees; s.c_log_bytes;
    s.flushes; s.flush_wait_ns; s.deferred_writebacks; s.crashes;
    s.torn_pages; s.recoveries; s.c_redo_records; s.c_redo_pages;
    s.c_recovery_ns; s.mirror_fallbacks; s.mirror_repairs; s.c_damaged;
    s.repair_sectors; s.repair_full; s.c_truncated; s.full_diffs;
  ]

(* A growable int array: the first [n] slots of [a] are in use.  Unlike
   a [Vec], it empties in O(1) and its slots are read in place. *)
type ints = { mutable a : int array; mutable n : int }

let ints () = { a = Array.make 64 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let a = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a
  end;
  Array.unsafe_set v.a v.n x;
  v.n <- v.n + 1

(* The boundary of every sealed record that [truncate_to] has not
   released, oldest first, for [layout]: two native words per record,
   [end_off] and [size * 8 + kind code], packed in bytes, so a log of
   millions of records is neither promoted nor scanned by the GC.
   Records [first, records) are live; the released prefix is dropped
   when the buffer fills. *)
type layout_log = {
  mutable packed : Bytes.t;
  mutable first : int;
  mutable records : int;
}

let kinds = [| `Image; `Delta; `Commit; `Checkpoint; `Alloc; `Free |]

let kind_code = function
  | `Image -> 0
  | `Delta -> 1
  | `Commit -> 2
  | `Checkpoint -> 3
  | `Alloc -> 4
  | `Free -> 5

let end_off_at l i = Int64.to_int (Bytes.get_int64_ne l.packed (16 * i))

(* A full buffer first drops the released records, in place when that
   frees at least half of it, so each live boundary moves O(1) times
   amortized. *)
let note_boundary l ~end_off ~size kind =
  if 16 * (l.records + 1) > Bytes.length l.packed then begin
    let live = 16 * (l.records - l.first) in
    let b =
      if 2 * (live + 16) <= Bytes.length l.packed then l.packed
      else Bytes.create (2 * (live + 16))
    in
    Bytes.blit l.packed (16 * l.first) b 0 live;
    l.packed <- b;
    l.records <- l.records - l.first;
    l.first <- 0
  end;
  let pos = 16 * l.records in
  Bytes.set_int64_ne l.packed pos (Int64.of_int end_off);
  Bytes.set_int64_ne l.packed (pos + 8)
    (Int64.of_int ((size lsl 3) lor kind_code kind));
  l.records <- l.records + 1

(* Release the boundaries of the records that end at or below logical
   offset [floor]. *)
let drop_boundaries l ~floor =
  while l.first < l.records && end_off_at l l.first <= floor do
    l.first <- l.first + 1
  done

let boundaries l =
  List.init (l.records - l.first) (fun j ->
      let i = l.first + j in
      let w = Int64.to_int (Bytes.get_int64_ne l.packed ((16 * i) + 8)) in
      { end_off = end_off_at l i; size = w lsr 3; kind = kinds.(w land 7) })

(* One mirror of one stripe of the durable log: the stripe's byte
   stream from logical offset [base] on, held in [data].  All mirrors of
   a stripe hold position-identical streams of the same length [len];
   faults make their *contents* diverge, never their length (a crash
   cuts all of them at the same byte).  Mirror 0 also holds the
   stripe's sealed records that are not durable yet, past [len]: a
   record is framed there once, at seal time, and a flush only copies
   it to the other mirrors.  Bytes below the stripe's retention floor
   ([truncate_to]) are released: nothing reads them, and the buffer
   drops them when it next fills, so it stops growing with the log.
   Every offset below is logical. *)
type mirror = { mutable data : Bytes.t; mutable base : int; mutable len : int }

(* Room in [m] for logical offsets below [upto], when the bytes in use
   are [floor, used).  A full buffer first drops the released prefix
   below [floor]: in place when the bytes needed then fit in two thirds
   of it, else into a buffer of twice its size (or of the bytes needed,
   if more).  A compaction leaves a third of the buffer free, so the
   bytes written before the next refill at least half the bytes it
   moved; each new buffer at least doubles the capacity, so the copies
   into new buffers sum to less than twice the final capacity.  Each
   retained byte thus moves O(1) times amortized, and a log that is
   never truncated grows as by doubling. *)
let m_reserve m ~floor ~used upto =
  let cap = Bytes.length m.data in
  if upto - m.base > cap then begin
    let need = upto - floor in
    let data =
      if 3 * need <= 2 * cap then m.data
      else Bytes.create (if need > 2 * cap then need else 2 * cap)
    in
    Bytes.blit m.data (floor - m.base) data 0 (used - floor);
    m.data <- data;
    m.base <- floor
  end

let m_i32 m pos = Int32.to_int (Bytes.get_int32_le m.data (pos - m.base))
let m_byte m pos = Char.code (Bytes.get m.data (pos - m.base))

(* Damage to released bytes (below [base]) has nothing left to hit. *)
let m_flip m pos bit =
  if pos >= m.base then
    Bytes.set m.data (pos - m.base)
      (Char.chr (m_byte m pos lxor (1 lsl (bit land 7))))

let m_zero m pos n =
  let lo = max pos m.base in
  if pos + n > lo then Bytes.fill m.data (lo - m.base) (pos + n - lo) '\000'

let m_decode m ~len pos =
  match Codec.decode ~len:(len - m.base) m.data (pos - m.base) with
  | Some (r, next) -> Some (r, next + m.base)
  | None -> None

type t = {
  pool : Buffer_pool.t;
  store : Page_store.t;
  clock : Clock.t;
  sim : Sim.t;
  data_disks : Disk_model.t;
  log_disks : Disk_model.t;  (* S*K disks; stripe s mirror k = s*K + k *)
  streams : mirror array array;  (* durable byte streams, [stripe].[mirror] *)
  page_size : int;
  group_commit_bytes : int;
  (* log stream.  [sealed_bytes]/[durable_len] and every offset in
     [boundaries] are *logical*: positions in the single stream of
     sealed records, independent of which stripe each record landed on.
     Physical placement is round-robin by seal order ([next_stripe]);
     [stripe_sealed] tracks each stripe's sealed (including pending)
     extent so scan start marks can be captured per stripe. *)
  pending : ints;
      (* (stripe, lsn, size) per record, in seal order; the frames sit in
         mirror 0 of their stripe, past its durable length *)
  mutable pending_bytes : int;  (* sealed, not yet durable *)
  mutable next_stripe : int;  (* stripe of the next sealed record *)
  stripe_sealed : int array;  (* per-stripe sealed extent *)
  mutable durable_len : int;  (* logical length of the durable stream *)
  mutable sealed_bytes : int;  (* end offset of the sealed stream *)
  mutable next_lsn : int;
  mutable last_op : int;  (* last committed operation number *)
  mutable ckpt_marks : int array;
      (* per-stripe offsets of the last durable checkpoint record's seal
         point: recovery scans each stripe from here *)
  mutable trunc_marks : int array;
      (* per-stripe retention floor: bytes below it have been released
         by [truncate_to] (zeroed or dropped on every mirror) and may no
         longer be read; always <= ckpt_marks *)
  boundaries : layout_log;
  mutable batched_redo : bool;  (* sort redo write-backs by (disk, phys) *)
  mutable coalesce_redo : bool;  (* merge adjacent write-backs into runs *)
  (* per-page durability state; index = page id *)
  shadow : Bytes.t option Vec.t;  (* last-logged content, for deltas *)
  mem_lsn : int Vec.t;  (* LSN of the page's newest log record *)
  disk_img : Bytes.t option Vec.t;  (* durable image, None = never written *)
  disk_lsn : int Vec.t;  (* LSN the durable image reflects *)
  image_marks : int array option Vec.t;
      (* per-stripe offsets at the seal point of the page's last full
         image record, None = no logged image: a repair scan from these
         marks sees exactly the image and everything after it *)
  mutable alloc_snapshot : int * int list;
      (* (total pages, free list) at the last durable checkpoint: the
         base state Alloc/Free record replay advances during recovery *)
  (* pages logged since the last checkpoint: those whose [logged_epoch]
     is [epoch], listed (possibly more than once) in [logged] *)
  logged_epoch : int Vec.t;
  mutable epoch : int;
  logged : ints;
  (* pages dirtied by the in-flight operation: the first [n_touched]
     entries of [touched_pages], and [touched_flag] by page id *)
  mutable touched_pages : int array;
  mutable n_touched : int;
  touched_flag : bool Vec.t;
  mutable last_writeback : int;  (* page of the newest image update *)
  (* crash injection *)
  mutable crash_at : int option;
  mutable crashed : bool;
  mutable recovery_base : base option;
      (* shadow-paging recovery base: when set, recovery reboots page
         contents and its scan/allocator start point from here (the
         persisted checkpoint generation) instead of the WAL's own
         durable images *)
  mutable durable_obs : (int -> string -> unit) option;
      (* observer called once per record, in seal order, when a flush
         makes it fully durable — (lsn, framed bytes).  A log-shipping
         layer forwards the frames to replicas; records cut by an armed
         crash are never reported (they died with the machine). *)
  mutable commit_barrier : (op:int -> lsn:int -> unit) option;
      (* called by [commit] after its (conditional) flush and before the
         latency histogram records: a replication layer blocks here —
         advancing the simulated clock — until its durability mode is
         satisfied, so wal.commit_latency shows the true commit cost *)
  mutable pre_log : (int -> unit) option;
      (* observer called with the page id before a page's first logging
         since the last checkpoint (or since its allocation), while
         [committed_image] still returns its pre-update committed
         content.  The shadow layer uses this to freeze that content into
         checkpoint generations that still lack it: a flip is a
         checkpoint, so no generation can lack a page after that. *)
  stats : stats;
  commit_latency : Histogram.t;
  checkpoint_stall : Histogram.t;
}

(* What a shadow-paging layer hands recovery: the page images the live
   on-disk indirection table reaches ([load_page], None = page not in
   the checkpointed generation), the per-stripe log offsets of the cut
   the flip covered, and the allocator state at that cut. *)
and base = {
  load_page : int -> (Bytes.t * int) option;
  base_marks : int array;
  base_alloc : int * int list;
}

let ensure t page =
  while Vec.length t.shadow <= page do
    Vec.push t.shadow None;
    Vec.push t.mem_lsn 0;
    Vec.push t.disk_img None;
    Vec.push t.disk_lsn 0;
    Vec.push t.image_marks None;
    Vec.push t.touched_flag false;
    Vec.push t.logged_epoch 0
  done

(* The checkpoint epoch starts at 1, so epoch 0 means "not logged". *)
let logged_now t page = Vec.get t.logged_epoch page = t.epoch

let mark_logged t page =
  Vec.set t.logged_epoch page t.epoch;
  push t.logged page

(* A checkpoint empties the logged-page set. *)
let new_epoch t =
  t.epoch <- t.epoch + 1;
  t.logged.n <- 0

let touched t page =
  page < Vec.length t.touched_flag && Vec.get t.touched_flag page

let touch t page =
  if not (Vec.get t.touched_flag page) then begin
    Vec.set t.touched_flag page true;
    if t.n_touched = Array.length t.touched_pages then
      t.touched_pages <- Array.append t.touched_pages t.touched_pages;
    t.touched_pages.(t.n_touched) <- page;
    t.n_touched <- t.n_touched + 1
  end

let untouch t page =
  if touched t page then begin
    Vec.set t.touched_flag page false;
    let i = ref 0 in
    while t.touched_pages.(!i) <> page do
      incr i
    done;
    t.n_touched <- t.n_touched - 1;
    t.touched_pages.(!i) <- t.touched_pages.(t.n_touched)
  end

let clear_touched t =
  for i = 0 to t.n_touched - 1 do
    Vec.set t.touched_flag t.touched_pages.(i) false
  done;
  t.n_touched <- 0

let n_stripes t = Array.length t.streams

(* Durable extent of one stripe (all its mirrors share it). *)
let stripe_dlen t s = t.streams.(s).(0).len

(* Refresh the durable image of [page] from [src] without allocating:
   durable images are page-sized private buffers, so once one exists the
   new contents blit in place. *)
let set_disk_img t page src =
  match Vec.get t.disk_img page with
  | Some img -> Bytes.blit src 0 img 0 t.page_size
  | None -> Vec.set t.disk_img page (Some (Bytes.copy src))

let fresh_lsn t =
  let l = t.next_lsn in
  t.next_lsn <- l + 1;
  l

let kind_of = function
  | Image _ -> `Image
  | Delta _ -> `Delta
  | Commit _ -> `Commit
  | Checkpoint _ -> `Checkpoint
  | Alloc _ -> `Alloc
  | Free _ -> `Free

let lsn_of = function
  | Image { lsn; _ }
  | Delta { lsn; _ }
  | Commit { lsn; _ }
  | Checkpoint { lsn; _ }
  | Alloc { lsn; _ }
  | Free { lsn; _ } ->
      lsn

(* Seal a record of [size] framed bytes into the pending list, placing
   it round-robin on the next stripe in seal order: [write b at] frames
   it at [at] in that stripe's mirror 0. *)
let seal t ~lsn kind ~size write =
  let stripe = t.next_stripe in
  let m = t.streams.(stripe).(0) in
  let pos = t.stripe_sealed.(stripe) in
  m_reserve m ~floor:t.trunc_marks.(stripe) ~used:pos (pos + size);
  write m.data (pos - m.base);
  t.next_stripe <- (if stripe + 1 = n_stripes t then 0 else stripe + 1);
  push t.pending stripe;
  push t.pending lsn;
  push t.pending size;
  t.pending_bytes <- t.pending_bytes + size;
  t.stripe_sealed.(stripe) <- t.stripe_sealed.(stripe) + size;
  t.sealed_bytes <- t.sealed_bytes + size;
  note_boundary t.boundaries ~end_off:t.sealed_bytes ~size kind;
  Counter.incr t.stats.records;
  Counter.add t.stats.c_log_bytes size;
  Counter.incr
    (match kind with
    | `Image -> t.stats.images
    | `Delta -> t.stats.deltas
    | `Commit -> t.stats.commits
    | `Checkpoint -> t.stats.checkpoints
    | `Alloc -> t.stats.allocs
    | `Free -> t.stats.frees)

let append t r =
  seal t ~lsn:(lsn_of r) (kind_of r) ~size:(Codec.size r) (fun b at ->
      Codec.write b at r)

(* Make the sealed stream durable: walk the pending records in seal
   order, extending each one's stripe over it on every mirror (mirror 0
   already holds the frame; the others get a copy).  An armed crash
   boundary inside the flushed extent cuts the stream exactly there, at
   its *logical* offset: records wholly before the cut reach their
   stripes, the record straddling it keeps only the prefix that reached
   the platters, later records die in memory (power fails every spindle
   at once).  On success, charge each stripe's flushed span as
   sequential writes to its mirror disks and wait for the slowest (this
   wait IS the commit latency) — stripes take their spans in parallel,
   which is the point of striping. *)
let flush t =
  if t.crashed then raise Crashed;
  if t.pending_bytes > 0 then begin
    let records = t.pending.a and n = t.pending.n in (* seal order *)
    t.pending.n <- 0;
    t.pending_bytes <- 0;
    let io_start = Array.map (fun ms -> ms.(0).len) t.streams in
    let durable = Array.copy io_start in
    let cut = ref false in
    let i = ref 0 in
    while (not !cut) && !i < n do
      let s = records.(!i) and size = records.(!i + 2) in
      let logical_end = t.durable_len + size in
      (match t.crash_at with
      | Some b when logical_end > b ->
          let keep = max 0 (b - t.durable_len) in
          durable.(s) <- durable.(s) + keep;
          t.durable_len <- t.durable_len + keep;
          cut := true
      | _ ->
          durable.(s) <- durable.(s) + size;
          t.durable_len <- logical_end);
      i := !i + 3
    done;
    Array.iteri
      (fun s ms ->
        let m0 = ms.(0) and a = io_start.(s) and b = durable.(s) in
        Array.iteri
          (fun k m ->
            if k > 0 && b > a then begin
              m_reserve m ~floor:t.trunc_marks.(s) ~used:a b;
              Bytes.blit m0.data (a - m0.base) m.data (a - m.base) (b - a)
            end;
            m.len <- b)
          ms)
      t.streams;
    if !cut then begin
      t.crashed <- true;
      Counter.incr t.stats.crashes;
      raise Crashed
    end;
    Counter.incr t.stats.flushes;
    let now0 = Clock.now t.clock in
    let completion = ref now0 in
    let kmirrors = Array.length t.streams.(0) in
    Array.iteri
      (fun s ms ->
        let a = io_start.(s) and b = ms.(0).len in
        if b > a then
          Array.iteri
            (fun k _ ->
              let c = ref now0 in
              for phys = a / t.page_size to (b - 1) / t.page_size do
                c :=
                  Disk_model.write_sync t.log_disks
                    ~disk:((s * kmirrors) + k)
                    ~phys ()
              done;
              completion := max !completion !c)
            ms)
      t.streams;
    Clock.advance_to t.clock !completion;
    Counter.add t.stats.flush_wait_ns (!completion - now0);
    (* Records are durable: hand them to the log-shipping observer in
       seal order (the clock stands at the flush completion, so shipping
       send times start from durability, never before it). *)
    match t.durable_obs with
    | Some f ->
        let at = Array.copy io_start in
        for r = 0 to (n / 3) - 1 do
          let s = records.(3 * r) in
          let lsn = records.((3 * r) + 1) and size = records.((3 * r) + 2) in
          let m0 = t.streams.(s).(0) in
          f lsn (Bytes.sub_string m0.data (at.(s) - m0.base) size);
          at.(s) <- at.(s) + size
        done
    | None -> ()
  end

(* ----------------------------- hooks -------------------------------- *)

let on_page_dirty t page =
  if not t.crashed then begin
    ensure t page;
    touch t page
  end

(* A page id reincarnated by alloc starts a fresh logging history; its
   previous incarnation's durable image stays (it may still back the
   rollback of an uncommitted free + realloc).  The allocation itself is
   logged so recovery can rebuild the committed allocation map — an Alloc
   sealed without its commit record is truncated away with the rest of
   the uncommitted tail. *)
let on_page_alloc t page =
  if not t.crashed then begin
    ensure t page;
    Vec.set t.shadow page None;
    Vec.set t.image_marks page None;
    Vec.set t.logged_epoch page 0;
    untouch t page;
    append t (Alloc { lsn = fresh_lsn t; page })
  end

let on_page_free t page =
  if not t.crashed then begin
    untouch t page;
    append t (Free { lsn = fresh_lsn t; page })
  end

(* LSN of the page's newest logged change; the pool stamps it into the
   page's checksum header on write-back. *)
let page_lsn t page =
  ensure t page;
  Vec.get t.mem_lsn page

(* WAL-before-data: force the log before any page write-back. *)
let before_page_write t _page = if not t.crashed then flush t

(* A write-back updates the durable image — unless the page carries
   uncommitted (not yet sealed) changes, in which case the image is left
   stale rather than exposing bytes a redo-only log could never undo. *)
let on_page_write t page =
  if not t.crashed then begin
    ensure t page;
    if touched t page then
      Counter.incr t.stats.deferred_writebacks
    else begin
      set_disk_img t page (Page_store.bytes t.store page);
      Vec.set t.disk_lsn page (Vec.get t.mem_lsn page);
      t.last_writeback <- page
    end
  end

(* ----------------------------- logging ------------------------------ *)

(* Smallest byte span inside [[lo0, hi0)] on which two page-sized
   buffers differ: 8-byte words from both ends, then bytes inside the
   first unequal word. *)
let diff_within a b ~lo:lo0 ~hi:n =
  let lo = ref lo0 in
  while !lo + 8 <= n && Bytes.get_int64_ne a !lo = Bytes.get_int64_ne b !lo do
    lo := !lo + 8
  done;
  while !lo < n && Bytes.get a !lo = Bytes.get b !lo do
    incr lo
  done;
  if !lo >= n then None
  else begin
    (* [hi] is exclusive; byte [lo] differs, so both loops stop above it *)
    let hi = ref n in
    while
      !hi - 8 >= !lo
      && Bytes.get_int64_ne a (!hi - 8) = Bytes.get_int64_ne b (!hi - 8)
    do
      hi := !hi - 8
    done;
    while Bytes.get a (!hi - 1) = Bytes.get b (!hi - 1) do
      decr hi
    done;
    Some (!lo, !hi - !lo)
  end

let diff_span a b = diff_within a b ~lo:0 ~hi:(Bytes.length a)

(* The delta search of [log_page]: only inside the page's written span,
   unless its bytes changed outside [Mem]; then the whole page, counted
   in [wal.delta.full_diffs]. *)
let diff_written t sh cur (span : Mem.Span.t) =
  if Mem.Span.is_all span then begin
    Counter.incr t.stats.full_diffs;
    diff_span sh cur
  end
  else if span.lo >= span.hi then None
  else diff_within sh cur ~lo:span.lo ~hi:span.hi

(* Log one dirtied page: a full image on first touch since the last
   checkpoint (torn-page repair depends on this), a shadow diff after. *)
let log_page t page =
  let cur = Page_store.bytes t.store page in
  let span = Page_store.span t.store page in
  let first = not (logged_now t page) in
  (match t.pre_log with Some f when first -> f page | _ -> ());
  (match (if first then None else Vec.get t.shadow page) with
  | None ->
      let lsn = fresh_lsn t in
      (* Marks taken at the seal point: a scan from them starts exactly
         at this image record.  [cur] goes into the record uncopied —
         [append] serializes it immediately, so no reference survives. *)
      Vec.set t.image_marks page (Some (Array.copy t.stripe_sealed));
      append t (Image { lsn; page; img = cur });
      (match Vec.get t.shadow page with
      | Some sh -> Bytes.blit cur 0 sh 0 t.page_size
      | None -> Vec.set t.shadow page (Some (Bytes.copy cur)));
      Vec.set t.mem_lsn page lsn
  | Some sh -> (
      match diff_written t sh cur span with
      | None -> () (* dirtied but byte-identical: nothing to log *)
      | Some (off, len) ->
          let lsn = fresh_lsn t in
          seal t ~lsn `Delta ~size:(Codec.delta_size len) (fun b at ->
              Codec.write_delta b at ~lsn ~page ~off cur ~src_off:off ~len);
          Bytes.blit cur off sh off len;
          Vec.set t.mem_lsn page lsn));
  Mem.Span.clear span;
  if first then mark_logged t page

let commit t ~op ~meta =
  if t.crashed then raise Crashed;
  let t0 = Clock.now t.clock in
  (match t.n_touched with
  | 0 -> ()
  | 1 -> log_page t t.touched_pages.(0)
  | n ->
      let pages = Array.sub t.touched_pages 0 n in
      Array.sort compare pages;
      Array.iter (log_page t) pages);
  clear_touched t;
  let clsn = fresh_lsn t in
  append t (Commit { lsn = clsn; op; meta });
  t.last_op <- op;
  if t.group_commit_bytes = 0 || t.pending_bytes >= t.group_commit_bytes then
    flush t;
  (* The replication barrier blocks (in simulated time) until the
     configured durability mode is satisfied — e.g. k replica acks for
     this commit's LSN — so the latency histogram below records the true
     cost of the chosen mode. *)
  (match t.commit_barrier with Some f -> f ~op ~lsn:clsn | None -> ());
  Histogram.record t.commit_latency (Clock.now t.clock - t0)

let checkpoint t ~meta =
  if t.crashed then raise Crashed;
  if t.n_touched > 0 then
    invalid_arg "Wal.checkpoint: called mid-operation";
  let t0 = Clock.now t.clock in
  (* Commits must be durable before any durable image moves forward. *)
  flush t;
  Buffer_pool.flush_dirty t.pool;
  (* Re-write pages whose image a deferred write-back left stale, in
     first-logging order (a page listed twice is current the second
     time). *)
  for i = 0 to t.logged.n - 1 do
    let page = t.logged.a.(i) in
    if logged_now t page && Vec.get t.disk_lsn page < Vec.get t.mem_lsn page
    then begin
      set_disk_img t page (Page_store.bytes t.store page);
      Vec.set t.disk_lsn page (Vec.get t.mem_lsn page);
      let disk, phys = Page_store.write_location t.store page in
      Disk_model.write t.data_disks ~disk ~phys;
      Page_store.stamp ~lsn:(Vec.get t.mem_lsn page) t.store page
    end
  done;
  (* A sharp checkpoint declares the data durable: wait for every queued
     data write to hit the platters before sealing the record.  This
     barrier (plus the whole-pool drain above) IS the writer stall the
     fuzzy checkpoint exists to eliminate. *)
  Clock.advance_to t.clock (Disk_model.drain t.data_disks);
  let marks = Array.copy t.stripe_sealed in
  append t (Checkpoint { lsn = fresh_lsn t; op = t.last_op; meta });
  flush t;
  (* Only a durable checkpoint record moves the recovery start point; the
     allocator snapshot moves with it, to the state Alloc/Free replay
     from this checkpoint must start at. *)
  t.ckpt_marks <- marks;
  t.alloc_snapshot <-
    (Page_store.total_pages t.store, Page_store.free_list t.store);
  new_epoch t;
  Histogram.record t.checkpoint_stall (Clock.now t.clock - t0)

(* ---------------- shadow-paging (fuzzy checkpoint) support ----------- *)

(* Per-stripe sealed extents right now: the "cut" a fuzzy checkpoint
   captures at begin time.  A scan from these marks sees exactly the
   records sealed after the capture. *)
let current_marks t = Array.copy t.stripe_sealed

let last_committed_op t = t.last_op

(* The page's durable image and its LSN (a private copy), None if the
   page was never written back.  The shadow layer freezes these bytes
   into a checkpoint generation before the first post-flip overwrite. *)
let durable_image t page =
  ensure t page;
  match Vec.get t.disk_img page with
  | Some img -> Some (Bytes.copy img, Vec.get t.disk_lsn page)
  | None -> None

let page_durable_lsn t page =
  ensure t page;
  Vec.get t.disk_lsn page

(* The page's newest COMMITTED content and its LSN (a private copy): the
   last-logged shadow if the page was ever logged, else the durable
   image.  At flip time the shadow layer freezes these bytes for pages
   whose durable images lag the flip (dirtied or left stale after the
   worklist was captured), so a snapshot of the generation is
   operation-consistent rather than a fuzzy mixture of harden times.
   [into], a page-sized buffer, receives the copy instead of a fresh
   one. *)
let committed_image ?into t page =
  ensure t page;
  let copy src =
    match into with
    | Some b ->
        Bytes.blit src 0 b 0 t.page_size;
        b
    | None -> Bytes.copy src
  in
  match Vec.get t.shadow page with
  | Some sh -> Some (copy sh, Vec.get t.mem_lsn page)
  | None -> (
      match Vec.get t.disk_img page with
      | Some img -> Some (copy img, Vec.get t.disk_lsn page)
      | None -> None)

(* Whether an operation is in flight (pages touched since the last
   commit): checkpoint cuts must not be taken mid-operation. *)
let in_operation t = t.n_touched > 0

(* Bring one page's durable image up to its newest committed state: the
   unit of work of a fuzzy checkpoint's paced write-back.  Returns false
   — try again later — while the page carries uncommitted (in-flight)
   changes; a redo-only image may never run ahead of the sealed log. *)
let harden_page t page =
  if t.crashed then raise Crashed;
  if touched t page then false
  else begin
    ensure t page;
    if Buffer_pool.is_dirty t.pool page then
      (* write_back_page runs the WAL hooks: log force first, then the
         image refresh (the page is not touched, so it is not deferred) *)
      ignore (Buffer_pool.write_back_page t.pool page : bool)
    else if Vec.get t.disk_lsn page < Vec.get t.mem_lsn page then begin
      (* a deferred write-back left the image stale: re-write it now *)
      flush t;
      set_disk_img t page (Page_store.bytes t.store page);
      Vec.set t.disk_lsn page (Vec.get t.mem_lsn page);
      let disk, phys = Page_store.write_location t.store page in
      Disk_model.write t.data_disks ~disk ~phys;
      Page_store.stamp ~lsn:(Vec.get t.mem_lsn page) t.store page
    end;
    true
  end

(* Pages whose durable image is behind their newest logged state (the
   deferred-write-back set): the fuzzy checkpoint's worklist beyond the
   pool's dirty frames.  A full scan, NOT the logged-page set —
   that set is cleared by every flip, and a page left stale across a
   flip must still make the next checkpoint's worklist (its log records
   predate the next cut, so replay would no longer cover it). *)
let stale_pages t =
  let total = Page_store.total_pages t.store in
  ensure t total;
  let acc = ref [] in
  for id = total downto 1 do
    if Vec.get t.disk_lsn id < Vec.get t.mem_lsn id then acc := id :: !acc
  done;
  !acc

(* A checkpoint whose data half was performed OUTSIDE the WAL (the
   shadow layer's fuzzy pass + superblock flip): seal the record, make
   it durable, and move the recovery start point to the CUT captured at
   checkpoint begin — not to now — because the hardened images are only
   guaranteed to cover commits up to the cut; everything after it is
   covered by replay.  [marks]/[alloc] are the cut's [current_marks] and
   (total_pages, free_list). *)
let external_checkpoint t ~marks ~alloc ~meta =
  if t.crashed then raise Crashed;
  if t.n_touched > 0 then
    invalid_arg "Wal.external_checkpoint: called mid-operation";
  append t (Checkpoint { lsn = fresh_lsn t; op = t.last_op; meta });
  flush t;
  t.ckpt_marks <- marks;
  t.alloc_snapshot <- alloc;
  new_epoch t

let set_recovery_base t b = t.recovery_base <- b
let set_pre_log_observer t f = t.pre_log <- f
let checkpoint_stall t = t.checkpoint_stall

(* --------------------------- log retention --------------------------- *)

(* Release log space below a durable checkpoint's cut: advance each
   stripe's retention floor to it (the mirrors drop the released bytes
   when they next fill) and drop the released records' boundaries.
   Clamped to the recovery start point ([ckpt_marks]) — recovery and
   repair scans never start below it, so nothing readable is ever
   released.  Every clamp is a cut in seal order, so the floors together
   release a prefix of the sealed stream, of logical length the sum of
   the floors.  Returns the bytes released this call. *)
let truncate_to t ~marks =
  if Array.length marks <> n_stripes t then
    invalid_arg "Wal.truncate_to: stripe count mismatch";
  let released = ref 0 in
  for s = 0 to n_stripes t - 1 do
    let a = t.trunc_marks.(s) in
    let b = min marks.(s) (min t.ckpt_marks.(s) (stripe_dlen t s)) in
    if b > a then begin
      t.trunc_marks.(s) <- b;
      released := !released + ((b - a) * Array.length t.streams.(s))
    end
  done;
  drop_boundaries t.boundaries ~floor:(Array.fold_left ( + ) 0 t.trunc_marks);
  Counter.add t.stats.c_truncated !released;
  !released

(* ------------------------- fault injection -------------------------- *)

let set_crash_at_byte t b = t.crash_at <- b

let crash_now t =
  if not t.crashed then begin
    t.crashed <- true;
    (* sealed-but-unflushed records die with the power *)
    t.pending.n <- 0;
    t.pending_bytes <- 0;
    Counter.incr t.stats.crashes
  end

let is_crashed t = t.crashed

let log_mirrors t = Array.length t.streams.(0)
let log_stripes t = Array.length t.streams
let log_disks t = t.log_disks

(* Arm the seeded fault schedule on one log disk (or the whole set):
   the log is subject to the same media failures as the data disks.
   [mirror] is the flattened disk index, stripe * K + mirror. *)
let set_log_faults t ?mirror profile =
  Disk_model.set_faults t.log_disks ?disk:mirror profile

(* Deterministic direct damage to one log disk's durable bytes, for
   tests and the chaos harness's detection legs.  [mirror] is the
   flattened disk index stripe * K + mirror; offsets are relative to
   that stripe's own stream.  Lengths never change: the stream keeps its
   extent, its contents rot. *)
let inject_mirror_damage t ~mirror d =
  let k = Array.length t.streams.(0) in
  if mirror < 0 || mirror >= n_stripes t * k then
    invalid_arg "Wal.inject_mirror_damage: no such mirror";
  let s = mirror / k in
  let m = t.streams.(s).(mirror mod k) in
  let dlen = stripe_dlen t s in
  match d with
  | Torn_tail n ->
      let n = min n dlen in
      if n > 0 then m_zero m (dlen - n) n
  | Zero_span { off; len } ->
      if off >= 0 && off < dlen && len > 0 then
        m_zero m off (min len (dlen - off))
  | Flip { off; bit } -> if off >= 0 && off < dlen then m_flip m off bit

(* --------------------------- log reading ----------------------------- *)

(* A scan reads log pages on demand through the fault schedule, at most
   once per (mirror, log page): [`Lost] marks a page whose read failed
   persistently (latent, or transient retries exhausted).  Silent
   corruption is applied to the mirror's bytes and served — the record
   CRC is what detects it.  With [charge = false] (post-crash
   inspection) no I/O is charged and no faults are drawn; the scan sees
   the bytes as they currently are. *)
type scan_ctx = {
  wal : t;
  charged_pages : (int * int, [ `Ok | `Lost ]) Hashtbl.t;
  charge : bool;
  mutable completion : int;
}

let make_ctx ?(charge = true) t =
  { wal = t; charged_pages = Hashtbl.create 64; charge;
    completion = Clock.now t.clock }

let pos_mod a n = ((a mod n) + n) mod n

(* Mangle a mirror's bytes within one log page per the drawn spec. *)
let apply_corruption t m ~lp spec =
  let base = lp * t.page_size in
  let limit = min m.len (base + t.page_size) in
  if base < limit then
    match spec with
    | Disk_model.Bit_flips flips ->
        List.iter
          (fun (off, bit) ->
            let pos = base + pos_mod off t.page_size in
            if pos < limit then m_flip m pos bit)
          flips
    | Disk_model.Torn_sector off ->
        let pos = base + pos_mod off t.page_size in
        let n = min 512 (limit - pos) in
        if n > 0 then m_zero m pos n

(* Flattened log-disk index of stripe [s], mirror [k]. *)
let disk_of t s k = (s * Array.length t.streams.(0)) + k

let read_log_page ctx ~s k lp =
  let t = ctx.wal in
  let disk = disk_of t s k in
  match Hashtbl.find_opt ctx.charged_pages (disk, lp) with
  | Some st -> st
  | None ->
      let st =
        if not ctx.charge then `Ok
        else
          let rec attempt n =
            match Disk_model.read_result t.log_disks ~disk ~phys:lp () with
            | Disk_model.Read_ok c ->
                ctx.completion <- max ctx.completion c;
                `Ok
            | Disk_model.Read_corrupt (c, spec) ->
                ctx.completion <- max ctx.completion c;
                apply_corruption t t.streams.(s).(k) ~lp spec;
                `Ok
            | Disk_model.Read_error (c, `Transient) ->
                ctx.completion <- max ctx.completion c;
                if n < 3 then attempt (n + 1) else `Lost
            | Disk_model.Read_error (c, `Latent) ->
                ctx.completion <- max ctx.completion c;
                `Lost
          in
          attempt 0
      in
      Hashtbl.add ctx.charged_pages (disk, lp) st;
      st

(* Read every log page covering bytes [a, b) of stripe [s], mirror [k]. *)
let read_span ctx ~s k a b =
  let t = ctx.wal in
  let ok = ref true in
  for lp = a / t.page_size to (b - 1) / t.page_size do
    if read_log_page ctx ~s k lp = `Lost then ok := false
  done;
  !ok

(* Attempt to decode the record at stripe-local [pos] from one mirror of
   stripe [s].  [`Overrun]: the frame runs past the end of the stripe's
   stream — the signature of a genuine crash cut.  [`Bad]: the frame
   lies within the stream but is unreadable (lost pages, corrupt length,
   CRC mismatch) — media damage. *)
let try_mirror ctx ~s k pos =
  let t = ctx.wal in
  let m = t.streams.(s).(k) in
  let dlen = stripe_dlen t s in
  if pos + 4 > dlen then `Overrun
  else if not (read_span ctx ~s k pos (pos + 4)) then `Bad
  else
    let len = m_i32 m pos in
    if len < 9 || len > Codec.max_body then `Bad
    else if pos + 8 + len > dlen then `Overrun
    else if not (read_span ctx ~s k pos (pos + 8 + len)) then `Bad
    else
      match m_decode m ~len:dlen pos with
      | Some (r, next) -> `Rec (r, next)
      | None -> `Bad

(* Heal mirror [dst]'s copy of stripe [s]'s span [pos, next) from mirror
   [src]'s verified-good bytes: blit the span and rewrite the covering
   log pages (the write remaps any latent sector). *)
let heal ctx ~s ~src ~dst pos next =
  let t = ctx.wal in
  let a = t.streams.(s).(src) and b = t.streams.(s).(dst) in
  Bytes.blit a.data (pos - a.base) b.data (pos - b.base) (next - pos);
  for lp = pos / t.page_size to (next - 1) / t.page_size do
    Disk_model.write t.log_disks ~disk:(disk_of t s dst) ~phys:lp;
    Hashtbl.replace ctx.charged_pages (disk_of t s dst, lp) `Ok
  done;
  Counter.incr t.stats.mirror_repairs

(* Decode the record at stripe-local [pos] of stripe [s], trying the
   stripe's mirrors in order.  The first clean copy wins; mirrors that
   failed with media damage are healed from it.  All mirrors failing
   classifies the failure: every mirror overrunning the stream end is a
   torn tail (benign crash cut); any mirror with a full-extent frame
   that would not verify is damage. *)
let decode_at ctx ~s pos =
  let t = ctx.wal in
  let rec go k bads =
    if k >= Array.length t.streams.(s) then
      if bads = [] then `Torn else `Damaged
    else
      match try_mirror ctx ~s k pos with
      | `Rec (r, next) ->
          if ctx.charge then begin
            if k > 0 then Counter.incr t.stats.mirror_fallbacks;
            List.iter (fun j -> heal ctx ~s ~src:k ~dst:j pos next) bads
          end;
          `Decoded (r, next)
      | `Overrun -> go (k + 1) bads
      | `Bad -> go (k + 1) (k :: bads)
  in
  go 0 []

(* Does any mirror of stripe [s] hold a validly framed record strictly
   beyond [pos]?  Distinguishes damage masquerading as a torn tail
   (e.g. a corrupted length field that points past the stream end) from
   a genuine cut: nothing can follow a real cut, so a valid record
   beyond proves the stream did not end at [pos].  Charge-free: cheap
   length/kind filters gate the CRC, and the bytes were already paid for
   by the scan.  (With several stripes, loss that empties one stripe's
   tail entirely is caught cross-stripe by the LSN-gap check in
   [scan_committed] instead.) *)
let has_valid_beyond t ~s pos =
  let dlen = stripe_dlen t s in
  let found = ref false in
  let q = ref (pos + 1) in
  (* smallest frame: 4 (len) + 9 (body) + 4 (crc) *)
  while (not !found) && !q + 17 <= dlen do
    Array.iter
      (fun m ->
        if not !found then begin
          let len = m_i32 m !q in
          if len >= 9 && len <= Codec.max_body && !q + 8 + len <= dlen then
            let kind = m_byte m (!q + 4) in
            if kind >= Codec.kind_image && kind <= Codec.kind_free then
              match m_decode m ~len:dlen !q with
              | Some _ -> found := true
              | None -> ()
        end)
      t.streams.(s);
    incr q
  done;
  !found

(* Parse the durable stream from the per-stripe offsets [from]: scan
   each stripe independently (stopping at a torn or damaged record),
   merge the stripes' records by LSN, then truncate at the last
   commit/checkpoint — later records belong to an operation that never
   committed.  LSNs are allocated in seal order, one per record, so the
   merged sequence must be consecutive; a gap with records beyond it
   means a stripe silently lost committed records (a genuine crash cut
   truncates the tail of the seal order, it cannot punch a hole), so the
   scan stops at the gap and flags damage.  Returns (committed records,
   records parsed, unreadable tail bytes, damaged count — nonzero means
   committed content may be unreadable: detected loss, never silently
   served). *)
let scan_stream t ~charge ~from =
  let ctx = make_ctx ~charge t in
  let torn = ref 0 and damaged = ref 0 in
  let per_stripe = ref [] in
  for s = n_stripes t - 1 downto 0 do
    let dlen = stripe_dlen t s in
    let rec scan pos acc =
      if pos >= dlen then List.rev acc
      else
        match decode_at ctx ~s pos with
        | `Decoded (r, next) -> scan next (r :: acc)
        | `Torn ->
            torn := !torn + (dlen - pos);
            if has_valid_beyond t ~s pos then incr damaged;
            List.rev acc
        | `Damaged ->
            torn := !torn + (dlen - pos);
            incr damaged;
            List.rev acc
    in
    per_stripe := scan from.(s) [] :: !per_stripe
  done;
  let merged =
    List.stable_sort
      (fun a b -> compare (lsn_of a) (lsn_of b))
      (List.concat !per_stripe)
  in
  let rec take_prefix acc = function
    | [] -> List.rev acc
    | r :: rest -> (
        match acc with
        | prev :: _ when lsn_of r <> lsn_of prev + 1 ->
            if !damaged = 0 then incr damaged;
            List.rev acc
        | _ -> take_prefix (r :: acc) rest)
  in
  let records = take_prefix [] merged in
  if charge then begin
    Clock.advance_to t.clock ctx.completion;
    if !damaged > 0 then Counter.add t.stats.c_damaged !damaged
  end;
  (records, List.length records, !torn, !damaged)

(* As [scan_stream], truncated at the last commit/checkpoint — later
   records belong to an operation that never committed. *)
let scan_committed t ~charge ~from =
  let records, parsed, torn, damaged = scan_stream t ~charge ~from in
  let keep = ref 0 in
  List.iteri
    (fun i r ->
      match r with Commit _ | Checkpoint _ -> keep := i + 1 | _ -> ())
    records;
  (List.filteri (fun i _ -> i < !keep) records, parsed, torn, damaged)

let parse_durable t = scan_committed t ~charge:false ~from:t.ckpt_marks

(* Every readable durable record above the retention floor, including
   the uncommitted tail — charge-free.  A rejoining old primary compares
   this, by (LSN, CRC of the re-encoded frame), against the new
   history's shipping archive to locate the fork point. *)
let durable_records t =
  let records, _, _, _ = scan_stream t ~charge:false ~from:t.trunc_marks in
  records

(* ------------------------------ repair ------------------------------- *)

(* Rebuild one page's committed bytes after media damage: replay the
   page's last full image record and the deltas that follow it from the
   committed durable stream (with [log_base_images], every bulkloaded
   page has one); a page never logged falls back to its durable image
   from the attach/checkpoint snapshot — the model's equivalent of the
   last full-page backup.  When the caller names the damaged sectors and
   the page's stamped header LSN matches the replayed state, only those
   sector spans are patched — the intact sectors already hold the same
   version, so a torn 512-byte sector costs a 512-byte fix, not a page
   rebuild.  The result is written back to the data disk (which remaps
   any latent sector) and freshly stamped.

   Refuses pages carrying uncommitted changes (the bytes the caller lost
   were never logged, and serving their committed ancestor silently
   would corrupt the operation in flight), and refuses to serve anything
   when the log scan itself hit damaged records: a repair source with
   holes in it could silently resurrect stale state. *)
let repair_page t ?(bad_sectors = []) page =
  if t.crashed then `Unrecoverable "machine crashed"
  else if touched t page then
    `Unrecoverable "page has uncommitted changes"
  else begin
    ensure t page;
    (* Committed records may still sit in the group-commit buffer; a
       repair source must be durable. *)
    flush t;
    let buf = ref None and lsn = ref 0 in
    (match Vec.get t.disk_img page with
    | Some img ->
        buf := Some (Bytes.copy img);
        lsn := Vec.get t.disk_lsn page
    | None -> ());
    let damaged = ref 0 in
    (match Vec.get t.image_marks page with
    | None -> ()
    | Some marks when
        Array.exists2 (fun m f -> m < f) marks t.trunc_marks ->
        (* The page's image record fell below the retention floor: its
           log span was released.  The durable image is still valid — a
           checkpoint hardened it before the floor could advance past
           the image record — so repair falls back to it alone. *)
        ()
    | Some marks ->
        let records, _, _, dmg = scan_committed t ~charge:true ~from:marks in
        damaged := dmg;
        List.iter
          (function
            | Image { lsn = l; page = p; img } when p = page ->
                buf := Some (Bytes.copy img);
                lsn := l
            | Delta { lsn = l; page = p; off; bytes } when p = page -> (
                match !buf with
                | Some b ->
                    Bytes.blit bytes 0 b off (Bytes.length bytes);
                    lsn := l
                | None -> ())
            | _ -> ())
          records);
    if !damaged > 0 then `Unrecoverable "log damaged: replay source incomplete"
    else
      match !buf with
      | None -> `Unrecoverable "no durable coverage"
      | Some b ->
          let dst = Page_store.bytes t.store page in
          Page_store.rewritten t.store page;
          if
            bad_sectors <> []
            && Page_store.header_lsn t.store page = !lsn
          then
            (* The intact sectors are verified bytes of the very version
               replay produced: patch only the damaged spans. *)
            List.iter
              (fun s ->
                let off = s * Page_store.sector_size in
                if off >= 0 && off < t.page_size then begin
                  let n = min Page_store.sector_size (t.page_size - off) in
                  Bytes.blit b off dst off n;
                  Counter.incr t.stats.repair_sectors
                end)
              bad_sectors
          else begin
            Bytes.blit b 0 dst 0 t.page_size;
            Counter.incr t.stats.repair_full
          end;
          set_disk_img t page dst;
          Vec.set t.disk_lsn page !lsn;
          Vec.set t.mem_lsn page !lsn;
          let disk, phys = Page_store.write_location t.store page in
          Disk_model.write t.data_disks ~disk ~phys;
          Page_store.stamp ~lsn:!lsn t.store page;
          `Repaired
  end

let tear_last_writeback t =
  if not t.crashed then
    invalid_arg "Wal.tear_last_writeback: machine still running";
  let page = t.last_writeback in
  if page = Page_store.nil then false
  else
    match Vec.get t.disk_img page with
    | None -> false
    | Some img ->
        (* Only sound if redo can rebuild the page from a full image in
           the replayable durable log; otherwise the write was already
           covered (fsynced) by a completed checkpoint. *)
        let records, _, _, _ = parse_durable t in
        let repairable =
          List.exists
            (function Image { page = p; _ } -> p = page | _ -> false)
            records
        in
        if not repairable then false
        else begin
          let half = t.page_size / 2 in
          Bytes.fill img half (t.page_size - half) '\000';
          Vec.set t.disk_lsn page (-1);
          Counter.incr t.stats.torn_pages;
          true
        end

(* ----------------------------- recovery ----------------------------- *)

let set_batched_redo t b = t.batched_redo <- b
let set_redo_coalescing t b = t.coalesce_redo <- b

let recover t =
  let t0 = Clock.now t.clock in
  Counter.incr t.stats.recoveries;
  Buffer_pool.drop_all t.pool;
  Sim.flush_cache t.sim;
  (* The machine reboots with exactly the durable disk contents.  Under
     shadow paging the recovery base supplies them: the page images the
     persisted indirection table reaches (the checkpointed generation),
     which also become the WAL's durable images going forward. *)
  let total = Page_store.total_pages t.store in
  ensure t total;
  (match t.recovery_base with
  | None ->
      for id = 1 to total do
        let b = Page_store.bytes t.store id in
        Page_store.rewritten t.store id;
        (match Vec.get t.disk_img id with
        | Some img -> Bytes.blit img 0 b 0 t.page_size
        | None -> Bytes.fill b 0 t.page_size '\000');
        Vec.set t.mem_lsn id (Vec.get t.disk_lsn id)
      done
  | Some base ->
      for id = 1 to total do
        let b = Page_store.bytes t.store id in
        Page_store.rewritten t.store id;
        match base.load_page id with
        | Some (img, lsn) ->
            Bytes.blit img 0 b 0 t.page_size;
            set_disk_img t id img;
            Vec.set t.disk_lsn id lsn;
            Vec.set t.mem_lsn id lsn
        | None ->
            Bytes.fill b 0 t.page_size '\000';
            Vec.set t.disk_img id None;
            Vec.set t.disk_lsn id 0;
            Vec.set t.mem_lsn id 0
      done);
  (* Scan the durable log from the last checkpoint (under shadow paging,
     from the cut the persisted generation covers): each log page read
     is charged through the fault schedule, with mirror fallback (and
     heal) on damage. *)
  let scan_from =
    match t.recovery_base with
    | Some base -> base.base_marks
    | None -> t.ckpt_marks
  in
  let records, scanned, torn, damaged =
    scan_committed t ~charge:true ~from:scan_from
  in
  (* Redo: re-apply records newer than the page's durable image. *)
  let committed = ref 0 and meta = ref [] in
  let redone = Hashtbl.create 64 in
  let nredo = ref 0 in
  List.iter
    (fun r ->
      match r with
      | Image { lsn; page; img } ->
          ensure t page;
          if lsn > Vec.get t.mem_lsn page then begin
            Bytes.blit img 0 (Page_store.bytes t.store page) 0 t.page_size;
            Vec.set t.mem_lsn page lsn;
            Hashtbl.replace redone page ();
            incr nredo
          end
      | Delta { lsn; page; off; bytes } ->
          ensure t page;
          if lsn > Vec.get t.mem_lsn page then begin
            Bytes.blit bytes 0
              (Page_store.bytes t.store page)
              off (Bytes.length bytes);
            Vec.set t.mem_lsn page lsn;
            Hashtbl.replace redone page ();
            incr nredo
          end
      | Commit { op; meta = m; _ } ->
          committed := op;
          meta := m
      | Checkpoint { op; meta = m; _ } ->
          committed := op;
          meta := m
      | Alloc _ | Free _ -> ())
    records;
  (* Write redone pages back and refresh their durable images.  Batched
     redo sorts the write-backs by (disk, phys), so physically adjacent
     pages go out as sequential I/O instead of seeking in redo order;
     recovery waits for the slowest disk either way. *)
  let redo_list = Hashtbl.fold (fun p () acc -> p :: acc) redone [] in
  let ordered =
    if t.batched_redo then
      List.sort
        (fun a b ->
          compare (Page_store.location t.store a)
            (Page_store.location t.store b))
        redo_list
    else redo_list
  in
  let locs =
    List.map
      (fun page ->
        set_disk_img t page (Page_store.bytes t.store page);
        Vec.set t.disk_lsn page (Vec.get t.mem_lsn page);
        Page_store.location t.store page)
      ordered
  in
  let wb_completion = ref (Clock.now t.clock) in
  if t.coalesce_redo then begin
    (* Merge physically adjacent pages on the same disk into one
       coalesced request: with batched redo sorting the list by
       (disk, phys) first, a replayed range of the tree goes out as a
       few large writes instead of one request per page. *)
    let rec runs = function
      | [] -> ()
      | (disk, phys) :: rest ->
          let rec extend n = function
            | (d2, p2) :: rest2 when d2 = disk && p2 = phys + n ->
                extend (n + 1) rest2
            | rest2 -> (n, rest2)
          in
          let n, rest = extend 1 rest in
          wb_completion :=
            max !wb_completion
              (Disk_model.write_run t.data_disks ~disk ~phys ~n ());
          runs rest
    in
    runs locs
  end
  else
    List.iter
      (fun (disk, phys) ->
        wb_completion :=
          max !wb_completion
            (Disk_model.write_sync t.data_disks ~disk ~phys ()))
      locs;
  Clock.advance_to t.clock !wb_completion;
  Counter.add t.stats.c_redo_records !nredo;
  Counter.add t.stats.c_redo_pages (Hashtbl.length redone);
  (* Restore the committed allocation map: the snapshot taken at the last
     durable checkpoint, advanced by the committed Alloc/Free records.
     Pages allocated by uncommitted operations (beyond the committed
     high-water mark, or allocated without a following commit) return to
     the free list zeroed, so a continued workload can reuse them. *)
  let snap_total, snap_free =
    match t.recovery_base with
    | Some base -> base.base_alloc
    | None -> t.alloc_snapshot
  in
  let free_set = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace free_set id ()) snap_free;
  let committed_total = ref snap_total in
  List.iter
    (function
      | Alloc { page; _ } ->
          Hashtbl.remove free_set page;
          if page > !committed_total then committed_total := page
      | Free { page; _ } -> Hashtbl.replace free_set page ()
      | _ -> ())
    records;
  let free_ids = ref [] in
  for id = total downto 1 do
    if id > !committed_total || Hashtbl.mem free_set id then
      free_ids := id :: !free_ids
  done;
  Page_store.set_free_list t.store !free_ids;
  List.iter
    (fun id ->
      set_disk_img t id (Page_store.bytes t.store id);
      Vec.set t.disk_lsn id 0;
      Vec.set t.mem_lsn id 0)
    !free_ids;
  (* Every page's bytes were rewritten without going through a pool
     write-back: re-stamp all checksum headers so later reads verify. *)
  for id = 1 to total do
    Page_store.stamp ~lsn:(Vec.get t.mem_lsn id) t.store id
  done;
  (* Restart logging from a clean slate + fresh checkpoint. *)
  for id = 1 to total do
    Vec.set t.shadow id None;
    Vec.set t.image_marks id None
  done;
  clear_touched t;
  new_epoch t;
  t.pending.n <- 0;
  t.pending_bytes <- 0;
  t.sealed_bytes <- t.durable_len;
  for s = 0 to n_stripes t - 1 do
    t.stripe_sealed.(s) <- stripe_dlen t s
  done;
  t.crashed <- false;
  t.crash_at <- None;
  t.last_writeback <- Page_store.nil;
  t.last_op <- !committed;
  let marks = Array.copy t.stripe_sealed in
  append t (Checkpoint { lsn = fresh_lsn t; op = !committed; meta = !meta });
  flush t;
  t.ckpt_marks <- marks;
  t.alloc_snapshot <-
    (Page_store.total_pages t.store, Page_store.free_list t.store);
  let dt = Clock.now t.clock - t0 in
  Counter.add t.stats.c_recovery_ns dt;
  {
    committed_ops = !committed;
    meta = !meta;
    scanned_records = scanned;
    redo_records = !nredo;
    redo_pages = Hashtbl.length redone;
    free_pages = List.length !free_ids;
    torn_tail_bytes = torn;
    damaged_records = damaged;
    recovery_ns = dt;
  }

(* ----------------------------- lifecycle ---------------------------- *)

let attach ?(group_commit_bytes = 0) ?(log_base_images = false)
    ?(log_mirrors = 1) ?(log_stripes = 1) ?(first_lsn = 1) ~meta pool =
  if log_mirrors < 1 then invalid_arg "Wal.attach: log_mirrors < 1";
  if log_stripes < 1 then invalid_arg "Wal.attach: log_stripes < 1";
  if first_lsn < 1 then invalid_arg "Wal.attach: first_lsn < 1";
  let sim = Buffer_pool.sim pool in
  let store = Buffer_pool.store pool in
  let page_size = Page_store.page_size store in
  let t =
    {
      pool;
      store;
      clock = sim.Sim.clock;
      sim;
      data_disks = Buffer_pool.disks pool;
      log_disks =
        Disk_model.create
          ~transfer_ns:(Disk_model.transfer_ns_of_page_size page_size)
          ~n_disks:(log_stripes * log_mirrors) sim.Sim.clock;
      streams =
        Array.init log_stripes (fun _ ->
            Array.init log_mirrors (fun _ ->
                { data = Bytes.create 65536; base = 0; len = 0 }));
      page_size;
      group_commit_bytes;
      pending = ints ();
      pending_bytes = 0;
      next_stripe = 0;
      stripe_sealed = Array.make log_stripes 0;
      durable_len = 0;
      sealed_bytes = 0;
      next_lsn = first_lsn;
      last_op = 0;
      ckpt_marks = Array.make log_stripes 0;
      trunc_marks = Array.make log_stripes 0;
      boundaries = { packed = Bytes.create 1024; first = 0; records = 0 };
      batched_redo = true;
      coalesce_redo = true;
      shadow = Vec.create ~dummy:None;
      mem_lsn = Vec.create ~dummy:0;
      disk_img = Vec.create ~dummy:None;
      disk_lsn = Vec.create ~dummy:0;
      image_marks = Vec.create ~dummy:None;
      alloc_snapshot = (0, []);
      logged_epoch = Vec.create ~dummy:0;
      epoch = 1;
      logged = ints ();
      touched_pages = Array.make 8 0;
      n_touched = 0;
      touched_flag = Vec.create ~dummy:false;
      last_writeback = Page_store.nil;
      crash_at = None;
      crashed = false;
      recovery_base = None;
      durable_obs = None;
      commit_barrier = None;
      pre_log = None;
      stats = make_stats ();
      commit_latency = Histogram.make "wal.commit_latency_ns";
      checkpoint_stall = Histogram.make "wal.checkpoint.stall_ns";
    }
  in
  (* Everything that exists at attach time is the durable base. *)
  Buffer_pool.flush_dirty pool;
  let total = Page_store.total_pages store in
  ensure t total;
  for id = 1 to total do
    Vec.set t.disk_img id (Some (Bytes.copy (Page_store.bytes store id)))
  done;
  t.alloc_snapshot <- (total, Page_store.free_list store);
  Buffer_pool.set_wal_hooks pool
    (Some
       {
         Buffer_pool.on_page_dirty = on_page_dirty t;
         before_page_write = before_page_write t;
         on_page_write = on_page_write t;
         on_page_alloc = on_page_alloc t;
         on_page_free = on_page_free t;
         page_lsn = page_lsn t;
       });
  Buffer_pool.set_repair pool
    (Some (fun page ~bad_sectors -> repair_page t ~bad_sectors page));
  if log_base_images then
    (* Give the log full-image coverage of the pages that predate it
       (e.g. a bulkloaded tree), so media repair never depends on state
       older than the log itself. *)
    Page_store.iter_live store (fun id ->
        Vec.set t.image_marks id (Some (Array.copy t.stripe_sealed));
        let lsn = fresh_lsn t in
        append t (Image { lsn; page = id; img = Page_store.bytes store id });
        Vec.set t.mem_lsn id lsn);
  append t (Checkpoint { lsn = fresh_lsn t; op = 0; meta });
  flush t;
  t

let detach t =
  Buffer_pool.set_wal_hooks t.pool None;
  Buffer_pool.set_repair t.pool None

(* ---------------------------- inspection ---------------------------- *)

let log_bytes t = t.sealed_bytes
let durable_bytes t = t.durable_len
let layout t = boundaries t.boundaries
let last_lsn t = t.next_lsn - 1
let record_lsn = lsn_of
let set_durable_observer t f = t.durable_obs <- f
let set_commit_barrier t f = t.commit_barrier <- f

let verify_images t =
  let total = Page_store.total_pages t.store in
  ensure t total;
  let bad = ref None in
  (try
     for id = 1 to total do
       let b = Page_store.bytes t.store id in
       match Vec.get t.disk_img id with
       | Some img ->
           if not (Bytes.equal img b) then begin
             bad :=
               Some
                 (Printf.sprintf "page %d: memory differs from durable image"
                    id);
             raise Exit
           end
       | None ->
           let zero = ref true in
           Bytes.iter (fun c -> if c <> '\000' then zero := false) b;
           if not !zero then begin
             bad :=
               Some
                 (Printf.sprintf
                    "page %d: no durable image but non-zero contents" id);
             raise Exit
           end
     done
   with Exit -> ());
  match !bad with None -> Ok () | Some m -> Error m

let commit_latency t = t.commit_latency
let kv t = List.map Counter.kv (stats_counters t.stats)

let reset_stats t =
  List.iter Counter.reset (stats_counters t.stats);
  Histogram.reset t.commit_latency;
  Histogram.reset t.checkpoint_stall
