(* Reference model for the differential test of [Fpb_simmem.Cache]: the
   cache simulator as it was before its in-flight prefetches moved to a
   flat ring, kept verbatim apart from this header and the [open].  It
   tracks in-flight lines in a hash table and their issue order in a
   queue, so the retire-by-line rule of [drain] and the queue length
   (dead slots included) are the plain behaviour of the two stdlib
   structures.  Tests only. *)

open Fpb_simmem

type t = {
  cfg : Config.t;
  clock : Clock.t;
  stats : Stats.t;
  shift : int;
  l1_sets : int;
  l1_assoc : int;
  l1_tags : int array;  (* sets * assoc entries; -1 = invalid *)
  l1_stamp : int array;  (* LRU timestamps, parallel to l1_tags *)
  l2_lines : int;
  l2_tags : int array;  (* direct-mapped; -1 = invalid *)
  inflight : (int, int) Hashtbl.t;  (* line -> completion time *)
  order : (int * int) Queue.t;  (* (line, completion) in issue order *)
  pipeline : Timeline.t;  (* busy memory slots [c - Tnext, c) *)
  mutable stamp : int;
}

let create cfg clock stats =
  let l1_sets = cfg.Config.l1_size / (cfg.line_size * cfg.l1_assoc) in
  let l2_lines = cfg.l2_size / cfg.line_size in
  {
    cfg;
    clock;
    stats;
    shift = Config.line_shift cfg;
    l1_sets;
    l1_assoc = cfg.l1_assoc;
    l1_tags = Array.make (l1_sets * cfg.l1_assoc) (-1);
    l1_stamp = Array.make (l1_sets * cfg.l1_assoc) 0;
    l2_lines;
    l2_tags = Array.make l2_lines (-1);
    inflight = Hashtbl.create 64;
    order = Queue.create ();
    (* no future slot is requested before [floor + T1 - Tnext] *)
    pipeline =
      Timeline.create ~floor:(fun () ->
          Clock.floor clock + cfg.mem_latency - cfg.mem_gap);
    stamp = 0;
  }

let flush t =
  Array.fill t.l1_tags 0 (Array.length t.l1_tags) (-1);
  Array.fill t.l2_tags 0 (Array.length t.l2_tags) (-1);
  Hashtbl.reset t.inflight;
  Queue.clear t.order;
  Timeline.clear t.pipeline

let install_l2 t line = t.l2_tags.(line mod t.l2_lines) <- line

let install_l1 t line =
  let base = line mod t.l1_sets * t.l1_assoc in
  let victim = ref base and best = ref max_int in
  (try
     for w = 0 to t.l1_assoc - 1 do
       if t.l1_tags.(base + w) = -1 then begin
         victim := base + w;
         raise Exit
       end;
       if t.l1_stamp.(base + w) < !best then begin
         best := t.l1_stamp.(base + w);
         victim := base + w
       end
     done
   with Exit -> ());
  t.l1_tags.(!victim) <- line;
  t.stamp <- t.stamp + 1;
  t.l1_stamp.(!victim) <- t.stamp

let l1_lookup t line =
  let base = line mod t.l1_sets * t.l1_assoc in
  let rec go w =
    if w >= t.l1_assoc then false
    else if t.l1_tags.(base + w) = line then begin
      t.stamp <- t.stamp + 1;
      t.l1_stamp.(base + w) <- t.stamp;
      true
    end
    else go (w + 1)
  in
  go 0

let l2_lookup t line = t.l2_tags.(line mod t.l2_lines) = line

(* Retire completed prefetches (completion <= now) into the caches. *)
let drain t =
  let now = Clock.now t.clock in
  let rec go () =
    match Queue.peek_opt t.order with
    | Some (line, c) when c <= now ->
        ignore (Queue.pop t.order);
        if Hashtbl.mem t.inflight line then begin
          Hashtbl.remove t.inflight line;
          install_l2 t line;
          install_l1 t line
        end;
        go ()
    | _ -> ()
  in
  go ()

let stall t cycles =
  if cycles > 0 then begin
    Fpb_obs.Counter.add t.stats.Stats.stall cycles;
    Clock.advance t.clock cycles
  end

(* Schedule one memory access starting no earlier than [now]; returns its
   completion time and occupies one slot of the shared memory pipeline. *)
let schedule_mem t =
  let gap = t.cfg.Config.mem_gap in
  let s =
    Timeline.fit t.pipeline
      ~at:(Clock.now t.clock + t.cfg.Config.mem_latency - gap)
      ~len:gap
  in
  ignore (Timeline.add t.pipeline s (s + gap) : bool);
  s + gap

(* Demand access (load or store) to a byte address. *)
let access t addr =
  let line = addr asr t.shift in
  drain t;
  match Hashtbl.find_opt t.inflight line with
  | Some c ->
      (* Prefetch in flight: wait only for the remaining latency. *)
      Hashtbl.remove t.inflight line;
      Fpb_obs.Counter.incr t.stats.Stats.prefetch_useful;
      stall t (c - Clock.now t.clock);
      install_l2 t line;
      install_l1 t line
  | None ->
      if l1_lookup t line then Fpb_obs.Counter.incr t.stats.Stats.l1_hits
      else if l2_lookup t line then begin
        Fpb_obs.Counter.incr t.stats.Stats.l2_hits;
        stall t t.cfg.Config.l2_latency;
        install_l1 t line
      end
      else begin
        Fpb_obs.Counter.incr t.stats.Stats.mem_misses;
        let c = schedule_mem t in
        stall t (c - Clock.now t.clock);
        install_l2 t line;
        install_l1 t line
      end

(* Software prefetch of one line: non-blocking unless all miss handlers are
   busy.  Hits in cache or on an in-flight line are no-ops. *)
let prefetch t addr =
  let line = addr asr t.shift in
  drain t;
  if
    (not (Hashtbl.mem t.inflight line))
    && (not (l1_lookup t line))
    && not (l2_lookup t line)
  then begin
    if Queue.length t.order >= t.cfg.Config.miss_handlers then begin
      (* All handlers busy: stall until the oldest outstanding completes. *)
      Fpb_obs.Counter.incr t.stats.Stats.prefetch_waits;
      (match Queue.peek_opt t.order with
      | Some (_, c) -> stall t (c - Clock.now t.clock)
      | None -> ());
      drain t
    end;
    let c = schedule_mem t in
    Hashtbl.replace t.inflight line c;
    Queue.push (line, c) t.order;
    Fpb_obs.Counter.incr t.stats.Stats.prefetch_issued
  end

let access_range t addr len =
  if len > 0 then begin
    let first = addr asr t.shift and last = (addr + len - 1) asr t.shift in
    for line = first to last do
      access t (line lsl t.shift)
    done
  end

let prefetch_range t addr len =
  if len > 0 then begin
    let first = addr asr t.shift and last = (addr + len - 1) asr t.shift in
    for line = first to last do
      prefetch t (line lsl t.shift)
    done
  end

(* Drop any cached or in-flight copies of the given byte range.  Used when a
   buffer frame is reassigned to a different disk page: the new contents
   arrive by DMA, so stale CPU-cache lines for those addresses must not
   produce false hits. *)
let invalidate_range t addr len =
  if len > 0 then begin
    let first = addr asr t.shift and last = (addr + len - 1) asr t.shift in
    for line = first to last do
      let base = line mod t.l1_sets * t.l1_assoc in
      for w = 0 to t.l1_assoc - 1 do
        if t.l1_tags.(base + w) = line then t.l1_tags.(base + w) <- -1
      done;
      let idx = line mod t.l2_lines in
      if t.l2_tags.(idx) = line then t.l2_tags.(idx) <- -1;
      Hashtbl.remove t.inflight line
    done
  end

let lines_in t addr len =
  if len <= 0 then 0 else ((addr + len - 1) asr t.shift) - (addr asr t.shift) + 1
