(* Two-level data-cache simulator with software prefetch.

   Timing model (paper, Section 3.1.1): a demand miss to memory completes at
   [max (now + T1) (last_completion + Tnext)], so a batch of prefetches
   issued back-to-back for a w-line node costs T1 + (w-1)*Tnext once the
   node is accessed — the pB+-Tree cost model.  The memory pipeline is a
   [Timeline] of Tnext-long slots [c - Tnext, c): a miss takes the first
   free slot ending at or after [now + T1].  On a clock that never goes
   backwards the slots chain back to back and this is exactly the formula
   above; a client the multi-client driver replays at an earlier time
   fills the gaps between other clients' bursts instead of queueing
   behind their last one.  The miss-handler queue and in-flight lines
   are still shared as the host executed them, an approximation for
   rewound clients.

   L1 is set-associative with LRU replacement; L2 is direct-mapped
   (Table 1).  Stores are modeled like loads (write-allocate, no write-back
   cost).  Software prefetches occupy one of a bounded number of miss
   handlers; issuing a prefetch when all handlers are busy stalls until the
   oldest one retires.

   Every charged load and store of the simulated machine runs through
   [access_fast] and, past its fast path, [access_line], so it allocates
   nothing, hashes nothing and calls into no other module except, on a
   memory miss, the pipeline timeline ([Clock.advance] is inlined).  Set
   and line counts are powers of two, so a line's L1 set and L2 slot are
   masks.

   In-flight prefetches are a ring of [miss_handlers] slots in issue
   order: line, completion time and a live flag.  A prefetch stalls on
   the oldest slot before it pushes when the ring is full, so the ring
   never holds more.  A demand access or an invalidation kills the live
   slot of its line but leaves the slot queued: it still counts against
   the handlers until its completion time passes.  When a slot retires,
   the line is installed if any slot of the same line is live, not only
   the retiring one; that live slot is killed.  So a line that was
   accessed, evicted and prefetched again arrives when its stale slot
   retires.  [filter] counts the live slots per [line land 63], so the
   common "not in flight" answer needs no scan.

   Invariant: a line with a live slot is in neither L1 nor L2.  A
   prefetch pushes a slot only for a line in neither level, and every
   install first kills the line's live slot: [drain]'s retire, and
   [access_line]'s in-flight branch (its L2-hit and miss branches run
   only when the line has none).  At most one slot per line is live.

   Fast path.  Most charged accesses hit L1 while no prefetch is due, and
   then [access_line] only refreshes an LRU stamp.  [access_fast] and
   [prefetch_fast] take that exit inline, with no call, when both
     - no queued slot is due ([count = 0] or the oldest completes after
       [now]), so [drain] would retire nothing, and
     - the line's tag is in its L1 set, or for a prefetch in L2.
   By the invariant the line then has no live slot, so the full path
   would only bump the stamp into the hit way and count an L1 hit (a
   prefetch: stamp only, or nothing for an L2 copy), which is all the
   fast path does.  Otherwise they call [access_line] or [prefetch_line]
   unchanged.

   Runs of pairs.  [touch_pairs] charges n times: [busy] cycles and an
   access to line a, then [busy] cycles and an access to line b (a scan's
   key and value loads).  When both lines are in L1 it applies the
   longest run of m pairs whose last access, at [now + 2m busy], still
   finds no slot due: [count = 0] or the oldest slot completes after it.
   The clock only rises, so every access of the run takes the fast path
   above: nothing drains, so nothing is installed, no line is evicted and
   a and b stay in their ways all run long.  The run therefore adds
   [2m busy] to the clock and the busy count and [2m] to the L1 hits and
   the stamp [s], and leaves a's way stamped [s + 2m - 1] and b's
   [s + 2m] (only [s + 2m] when a = b).  Otherwise one pair runs through
   [charge_busy] and [access_fast] as [touch] would, and the next run is
   tried after it. *)

module Counter = Fpb_obs.Counter

type t = {
  clock : Clock.t;
  stats : Stats.t;
  shift : int;
  l1_mask : int;  (* L1 sets - 1 *)
  l1_assoc : int;
  l1_tags : int array;  (* sets * assoc entries; -1 = invalid *)
  l1_stamp : int array;  (* LRU timestamps, parallel to l1_tags *)
  l2_mask : int;  (* L2 lines - 1 *)
  l2_tags : int array;  (* direct-mapped; -1 = invalid *)
  l2_latency : int;
  mem_latency : int;
  mem_gap : int;
  ring_line : int array;  (* in-flight prefetches, [miss_handlers] slots *)
  ring_done : int array;  (* completion time *)
  ring_live : bool array;  (* false once accessed or invalidated *)
  mutable head : int;  (* oldest queued slot *)
  mutable count : int;  (* queued slots, dead ones included *)
  filter : int array;  (* live slots per [line land 63] *)
  pipeline : Timeline.t;  (* busy memory slots [c - Tnext, c) *)
  mutable stamp : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create cfg clock stats =
  let l1_sets = cfg.Config.l1_size / (cfg.line_size * cfg.l1_assoc) in
  let l2_lines = cfg.l2_size / cfg.line_size in
  if cfg.miss_handlers < 1 then
    invalid_arg
      (Printf.sprintf "Cache.create: %d miss handlers, need at least 1"
         cfg.miss_handlers);
  if not (is_pow2 l1_sets) then
    invalid_arg
      (Printf.sprintf "Cache.create: %d L1 sets is not a power of two" l1_sets);
  if not (is_pow2 l2_lines) then
    invalid_arg
      (Printf.sprintf "Cache.create: %d L2 lines is not a power of two"
         l2_lines);
  {
    clock;
    stats;
    shift = Config.line_shift cfg;
    l1_mask = l1_sets - 1;
    l1_assoc = cfg.l1_assoc;
    l1_tags = Array.make (l1_sets * cfg.l1_assoc) (-1);
    l1_stamp = Array.make (l1_sets * cfg.l1_assoc) 0;
    l2_mask = l2_lines - 1;
    l2_tags = Array.make l2_lines (-1);
    l2_latency = cfg.l2_latency;
    mem_latency = cfg.mem_latency;
    mem_gap = cfg.mem_gap;
    ring_line = Array.make cfg.miss_handlers 0;
    ring_done = Array.make cfg.miss_handlers 0;
    ring_live = Array.make cfg.miss_handlers false;
    head = 0;
    count = 0;
    filter = Array.make 64 0;
    (* no future slot is requested before [floor + T1 - Tnext] *)
    pipeline =
      Timeline.create ~floor:(fun () ->
          Clock.floor clock + cfg.mem_latency - cfg.mem_gap);
    stamp = 0;
  }

let flush t =
  Array.fill t.l1_tags 0 (Array.length t.l1_tags) (-1);
  Array.fill t.l2_tags 0 (Array.length t.l2_tags) (-1);
  Array.fill t.ring_live 0 (Array.length t.ring_live) false;
  Array.fill t.filter 0 (Array.length t.filter) 0;
  t.head <- 0;
  t.count <- 0;
  Timeline.clear t.pipeline

let bump (c : Counter.t) = c.value <- c.value + 1

let stall t cycles =
  if cycles > 0 then begin
    let c = t.stats.Stats.stall in
    c.value <- c.value + cycles;
    Clock.advance t.clock cycles
  end

(* {2 In-flight ring} *)

(* The live slot of [line], or -1. *)
let find_live t line =
  if t.filter.(line land 63) = 0 then -1
  else begin
    let cap = Array.length t.ring_line in
    let i = ref t.head and left = ref t.count and found = ref (-1) in
    while !left > 0 do
      if t.ring_live.(!i) && t.ring_line.(!i) = line then begin
        found := !i;
        left := 0
      end
      else begin
        decr left;
        incr i;
        if !i = cap then i := 0
      end
    done;
    !found
  end

let kill t i =
  t.ring_live.(i) <- false;
  let f = t.ring_line.(i) land 63 in
  t.filter.(f) <- t.filter.(f) - 1

let push t line c =
  let cap = Array.length t.ring_line in
  assert (t.count < cap);
  let i = t.head + t.count in
  let i = if i >= cap then i - cap else i in
  t.ring_line.(i) <- line;
  t.ring_done.(i) <- c;
  t.ring_live.(i) <- true;
  t.count <- t.count + 1;
  let f = line land 63 in
  t.filter.(f) <- t.filter.(f) + 1

(* {2 Tag arrays} *)

let set_base t line = (line land t.l1_mask) * t.l1_assoc

(* The way of [line] in the L1 set at [base], or [l1_assoc] when it is
   not there. *)
let[@inline] l1_way t base line =
  let assoc = t.l1_assoc in
  let w = ref 0 in
  while !w < assoc && t.l1_tags.(base + !w) <> line do
    incr w
  done;
  !w

(* Whether [line] is in the L1 set at [base]; a hit refreshes its LRU
   stamp. *)
let[@inline] l1_hit t base line =
  let w = l1_way t base line in
  if w < t.l1_assoc then begin
    t.stamp <- t.stamp + 1;
    t.l1_stamp.(base + w) <- t.stamp;
    true
  end
  else false

(* Fill the first invalid way of the set at [base], else its LRU way. *)
let install_l1 t base line =
  let assoc = t.l1_assoc in
  let victim = ref base and best = ref max_int and w = ref 0 in
  while !w < assoc do
    let i = base + !w in
    if t.l1_tags.(i) = -1 then begin
      victim := i;
      w := assoc
    end
    else begin
      if t.l1_stamp.(i) < !best then begin
        best := t.l1_stamp.(i);
        victim := i
      end;
      incr w
    end
  done;
  t.l1_tags.(!victim) <- line;
  t.stamp <- t.stamp + 1;
  t.l1_stamp.(!victim) <- t.stamp

let install t line =
  t.l2_tags.(line land t.l2_mask) <- line;
  install_l1 t (set_base t line) line

(* Retire queued prefetches whose completion time has passed, oldest
   first, installing the line of each one that has a live slot. *)
let drain t =
  let now = t.clock.Clock.now in
  let cap = Array.length t.ring_line in
  while t.count > 0 && t.ring_done.(t.head) <= now do
    let h = t.head in
    let line = t.ring_line.(h) in
    t.head <- (if h + 1 = cap then 0 else h + 1);
    t.count <- t.count - 1;
    let i = if t.ring_live.(h) then h else find_live t line in
    if i >= 0 then begin
      kill t i;
      install t line
    end
  done

(* Schedule one memory access starting no earlier than [now]; returns its
   completion time and occupies one slot of the shared memory pipeline. *)
let schedule_mem t =
  let gap = t.mem_gap in
  let s =
    Timeline.fit t.pipeline ~at:(t.clock.Clock.now + t.mem_latency - gap) ~len:gap
  in
  ignore (Timeline.add t.pipeline s (s + gap) : bool);
  s + gap

(* {2 Accesses} *)

let access_line t line =
  drain t;
  let i = find_live t line in
  if i >= 0 then begin
    (* Prefetch in flight: wait only for the remaining latency. *)
    kill t i;
    bump t.stats.Stats.prefetch_useful;
    stall t (t.ring_done.(i) - t.clock.Clock.now);
    install t line
  end
  else begin
    let base = set_base t line in
    if l1_hit t base line then bump t.stats.Stats.l1_hits
    else if t.l2_tags.(line land t.l2_mask) = line then begin
      bump t.stats.Stats.l2_hits;
      stall t t.l2_latency;
      install_l1 t base line
    end
    else begin
      bump t.stats.Stats.mem_misses;
      let c = schedule_mem t in
      stall t (c - t.clock.Clock.now);
      t.l2_tags.(line land t.l2_mask) <- line;
      install_l1 t base line
    end
  end

(* Software prefetch of one line: non-blocking unless all miss handlers are
   busy.  Hits in cache or on an in-flight line are no-ops. *)
let prefetch_line t line =
  drain t;
  if
    find_live t line < 0
    && (not (l1_hit t (set_base t line) line))
    && t.l2_tags.(line land t.l2_mask) <> line
  then begin
    if t.count = Array.length t.ring_line then begin
      (* All handlers busy: stall until the oldest outstanding completes. *)
      bump t.stats.Stats.prefetch_waits;
      stall t (t.ring_done.(t.head) - t.clock.Clock.now);
      drain t
    end;
    push t line (schedule_mem t);
    bump t.stats.Stats.prefetch_issued
  end

(* {2 Fast path (see the header)} *)

(* Whether [drain] would retire nothing now. *)
let[@inline] quiet t = t.count = 0 || t.ring_done.(t.head) > t.clock.Clock.now

let[@inline] access_fast t line =
  if quiet t && l1_hit t (set_base t line) line then bump t.stats.Stats.l1_hits
  else access_line t line

let[@inline] prefetch_fast t line =
  if
    not
      (quiet t
      && (l1_hit t (set_base t line) line
         || t.l2_tags.(line land t.l2_mask) = line))
  then prefetch_line t line

let access t addr = access_fast t (addr asr t.shift)
let prefetch t addr = prefetch_fast t (addr asr t.shift)

let access_range t addr len =
  if len > 0 then
    for line = addr asr t.shift to (addr + len - 1) asr t.shift do
      access_fast t line
    done

let[@inline] charge_busy t cycles =
  if cycles > 0 then begin
    let c = t.stats.Stats.busy in
    c.value <- c.value + cycles;
    Clock.advance t.clock cycles
  end

(* The accesses of [touch] once its inline check has failed: a
   single-line access then takes [access_line], as [access_fast] would. *)
let touch_lines t addr len =
  if len > 0 then begin
    let first = addr asr t.shift and last = (addr + len - 1) asr t.shift in
    if first = last then access_line t first
    else
      for line = first to last do
        access_fast t line
      done
  end

(* Inlined into every caller (e.g. [Mem]'s charged accessors): the busy
   charge, then [access_fast]'s exit for a single line. *)
let[@inline] touch t ~busy addr len =
  charge_busy t busy;
  let line = addr asr t.shift in
  if
    len > 0
    && line = (addr + len - 1) asr t.shift
    && quiet t
    && l1_hit t (set_base t line) line
  then bump t.stats.Stats.l1_hits
  else touch_lines t addr len

(* [n] times: [busy] cycles and an access to [a]'s line, then [busy]
   cycles and an access to [b]'s line, by runs (see the header). *)
let touch_pairs t ~busy a b n =
  let la = a asr t.shift and lb = b asr t.shift in
  let left = ref n in
  while !left > 0 do
    let ba = set_base t la and bb = set_base t lb in
    let wa = l1_way t ba la and wb = l1_way t bb lb in
    let m =
      if wa = t.l1_assoc || wb = t.l1_assoc then 0
      else if t.count = 0 || busy <= 0 then
        if quiet t then !left else 0
      else
        (* the last of 2m accesses runs at [now + 2m busy] *)
        let slack = t.ring_done.(t.head) - t.clock.Clock.now in
        let fit = if slack <= 0 then 0 else (slack - 1) / (2 * busy) in
        if fit < !left then fit else !left
    in
    if m > 0 then begin
      let cycles = 2 * m * busy in
      charge_busy t cycles;
      let c = t.stats.Stats.l1_hits in
      c.value <- c.value + (2 * m);
      let s = t.stamp + (2 * m) in
      t.l1_stamp.(ba + wa) <- s - 1;
      t.l1_stamp.(bb + wb) <- s;
      t.stamp <- s;
      left := !left - m
    end
    else begin
      charge_busy t busy;
      access_fast t la;
      charge_busy t busy;
      access_fast t lb;
      decr left
    end
  done

let prefetch_range t ~busy_per_line addr len =
  if len > 0 then begin
    let first = addr asr t.shift and last = (addr + len - 1) asr t.shift in
    charge_busy t ((last - first + 1) * busy_per_line);
    for line = first to last do
      prefetch_fast t line
    done
  end

(* Drop any cached or in-flight copies of the given byte range.  Used when a
   buffer frame is reassigned to a different disk page: the new contents
   arrive by DMA, so stale CPU-cache lines for those addresses must not
   produce false hits. *)
let invalidate_range t addr len =
  if len > 0 then
    for line = addr asr t.shift to (addr + len - 1) asr t.shift do
      let base = set_base t line in
      for w = 0 to t.l1_assoc - 1 do
        if t.l1_tags.(base + w) = line then t.l1_tags.(base + w) <- -1
      done;
      let idx = line land t.l2_mask in
      if t.l2_tags.(idx) = line then t.l2_tags.(idx) <- -1;
      let i = find_live t line in
      if i >= 0 then kill t i
    done
