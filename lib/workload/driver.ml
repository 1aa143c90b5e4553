(* The workload driver: one conservative discrete-event loop for closed
   loop, open loop and batched service.

   Op [j] belongs to client [j mod n_clients].  An open-loop source fixes
   every op's first arrival up front (Poisson or fixed-rate, from the
   seed), independent of how the system keeps up.  A closed-loop source
   knows only each client's first op, at the start; a client's next op
   arrives the instant its previous one completes (or is dropped for
   good), so offered load adapts to capacity.

   Every arrival — fresh, retried or closed-loop — passes the admission
   policy and joins its client's FIFO.  A client dispatches as soon as
   it is free and either [batch] ops are queued or its oldest op has
   waited [batch_wait_ns]: the size-or-timeout rule, of which per-op
   service is the case [batch = 1].  A dispatch drops ops already past
   their deadline (deadline-aware admission only) and hands the rest to
   [exec] as one batch.  Shed and dropped ops consult the retry policy.

   The loop always takes the earliest event — an arrival, or a client's
   next dispatch — with arrivals winning ties and lower client indexes
   winning among dispatches.  It rewinds the shared clock to each
   dispatch ([Clock.set]) and lets [exec] run the whole dispatch to
   completion in host order.  Shard latches and the memory pipeline
   keep busy-interval timelines, so a rewound client waits on them only
   where its request overlaps another client's span.  For the latch
   that is an approximation which understates waiting: a hold's length
   is known only at release, so it can run into a hold already executed
   ([pool.shard.overlaps]).  Disks, the WAL
   log force, the prefetcher pool and the CPU-cache miss handlers keep
   a single free-at watermark, so there a rewound client queues behind
   everything already executed: an approximation that overstates
   waiting.  Event times never decrease, so the backlog-over-time
   accounting is exact.

   A client's dispatch time is O(1): with [batch] or more ops queued it
   is [max free full_at], where [full_at] is when the queue last grew to
   [batch] ops.  Every queued op arrived no later than the current
   event, and a served dispatch moves [free] past it, so a stale
   [full_at] never exceeds [free]. *)

open Fpb_simmem

(* Int-typed, so the hot loop makes no polymorphic-compare calls. *)
let imax (a : int) b = if a > b then a else b

type discipline = Poisson | Fixed

let discipline_name = function Poisson -> "poisson" | Fixed -> "fixed"

type source =
  | Closed of { ops_per_client : int }
  | Open of {
      n_ops : int;
      rate_ops_per_s : float;
      discipline : discipline;
      rate_change : (int * float) option;
    }

let open_loop ?(discipline = Poisson) ?rate_change ~n_ops rate_ops_per_s =
  Open { n_ops; rate_ops_per_s; discipline; rate_change }

type config = {
  source : source;
  n_clients : int;
  batch : int;
  batch_wait_ns : int;
  seed : int;
  deadline_ns : int option;
  admission : Admission.t;
  retry : Retry.t;
}

let config ?(n_clients = 1) ?(batch = 1) ?(batch_wait_ns = 0) ?(seed = 4242)
    ?deadline_ns ?(admission = Admission.Admit_all) ?(retry = Retry.none)
    source =
  {
    source;
    n_clients;
    batch;
    batch_wait_ns;
    seed;
    deadline_ns;
    admission;
    retry;
  }

let check c =
  let err fmt = Printf.ksprintf Result.error fmt in
  match (c, c.source) with
  | { n_clients; _ }, _ when n_clients < 1 ->
      err "clients must be at least 1 (got %d)" n_clients
  | { batch; _ }, _ when batch < 1 ->
      err "batch must be at least 1 (got %d)" batch
  | { batch_wait_ns = w; _ }, _ when w < 0 ->
      err "batch wait must be at least 0 ns (got %d)" w
  | { deadline_ns = Some d; _ }, _ when d <= 0 ->
      err "deadline must be positive (got %d ns)" d
  | { admission = Admission.Queue_cap q; _ }, _ when q < 1 ->
      err "queue cap must be at least 1 (got %d)" q
  | _, Closed { ops_per_client = k } when k < 0 ->
      err "ops per client must be at least 0 (got %d)" k
  | _, Open { n_ops; _ } when n_ops < 0 ->
      err "ops must be at least 0 (got %d)" n_ops
  | _, Open { rate_ops_per_s = r; _ } when not (r > 0.) ->
      err "rate must be positive (got %g ops/s)" r
  | _, Open { n_ops; rate_change = Some (j, r); _ }
    when j < 0 || j > n_ops || not (r > 0.) ->
      err "rate change (%d, %g) out of range" j r
  | _ -> Ok ()

module Stats = struct
  type window = {
    w_offered : int;
    w_completed : int;
    w_good : int;
    w_shed : int;
    w_dropped : int;
    w_span_ns : int;
    w_goodput_ops_per_s : float;
  }

  type stats = {
    ops : int;
    offered_ops_per_s : float;
    makespan_ns : int;
    latency : Fpb_obs.Histogram.t;
    queue_ns : Fpb_obs.Histogram.t;
    service_ns : Fpb_obs.Histogram.t;
    batch_fill : Fpb_obs.Histogram.t;
    throughput_ops_per_s : float;
    batches : int;
    mean_batch : float;
    max_backlog : int;
    backlog_peak_at_ns : int;
    time_above_watermark_ns : int;
    backlog_watermark : int;
    completed : int;
    good : int;
    shed : int;
    expired : int;
    retries : int;
    dropped : int;
    goodput_ops_per_s : float;
    recovery : window option;
  }
end

include Stats

(* Retry re-entries, ordered by (time, seq).  A [Set] works as a priority
   queue here because an op has at most one pending re-entry, so the
   (time, seq, failures) triples are unique. *)
module Reentry = Set.Make (struct
  type t = int * int * int (* time, seq, failures so far *)

  let compare = compare
end)

let run ~sim cfg exec =
  (match check cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Driver.run: " ^ e));
  let { n_clients = n; batch; batch_wait_ns; deadline_ns; admission; retry; _ } =
    cfg
  in
  let clock = sim.Sim.clock in
  let t0 = Clock.now clock in
  let rng = Prng.create cfg.seed in
  let closed, total, n_scheduled, offered =
    match cfg.source with
    | Closed { ops_per_client } ->
        (true, n * ops_per_client, min n (n * ops_per_client), 0.)
    | Open { n_ops; rate_ops_per_s; _ } -> (false, n_ops, n_ops, rate_ops_per_s)
  in
  (* First arrivals, by slot: an open loop keeps its whole schedule,
     drawn before any retry jitter from the same generator; a closed
     loop has one op per client outstanding, so one slot per client. *)
  let slot j = if closed then j mod n else j in
  let arrivals = Array.make (max 1 (if closed then n else total)) t0 in
  (match cfg.source with
  | Closed _ -> ()
  | Open { n_ops; rate_ops_per_s; discipline; rate_change } ->
      let t = ref (float_of_int t0) in
      for j = 0 to n_ops - 1 do
        let rate =
          match rate_change with
          | Some (j0, r2) when j >= j0 -> r2
          | _ -> rate_ops_per_s
        in
        let mean_gap_ns = 1e9 /. rate in
        let gap =
          match discipline with
          | Poisson -> Prng.exponential rng ~mean:mean_gap_ns
          | Fixed -> mean_gap_ns
        in
        t := !t +. gap;
        arrivals.(j) <- int_of_float !t
      done);
  let deadline_of j =
    match deadline_ns with None -> max_int | Some d -> arrivals.(slot j) + d
  in
  let drop_stale = admission = Admission.Deadline_aware in
  let latency = Fpb_obs.Histogram.make "driver.latency_ns" in
  let queue_ns = Fpb_obs.Histogram.make "driver.queue_ns" in
  let service_ns = Fpb_obs.Histogram.make "driver.service_ns" in
  let batch_fill = Fpb_obs.Histogram.make "driver.batch_fill" in
  (* Per-client FIFOs of admitted ops: (seq, enqueue time, failures). *)
  let queues = Array.init n (fun _ -> Queue.create ()) in
  let free = Array.make n t0 and full_at = Array.make n t0 in
  let reentries = ref Reentry.empty in
  let next_fresh = ref 0 in
  let completed = ref 0 and good = ref 0 and batches = ref 0 in
  let shed = ref 0 and expired = ref 0 in
  let retries = ref 0 and dropped = ref 0 in
  (* Phase-2 (recovery window) accounting, by original seq. *)
  let p2_from =
    match cfg.source with
    | Open { rate_change = Some (j, _); _ } -> j
    | _ -> max_int
  in
  let p2_completed = ref 0 and p2_good = ref 0 in
  let p2_shed = ref 0 and p2_dropped = ref 0 in
  (* Backlog = ops admitted and not yet dispatched. *)
  let wm = 4 * n in
  let backlog = ref 0 in
  let max_backlog = ref 0 and backlog_peak_at = ref 0 in
  let above_ns = ref 0 in
  let last_t = ref t0 in
  let note_time now =
    if now > !last_t then begin
      if !backlog > wm then above_ns := !above_ns + (now - !last_t);
      last_t := now
    end
  in
  let set_backlog now b =
    note_time now;
    backlog := b;
    if b > !max_backlog then begin
      max_backlog := b;
      backlog_peak_at := now - t0
    end
  in
  (* Dispatch-time EWMA feeding the deadline-aware projected wait. *)
  let est_service = ref 0 in
  let observe_service s =
    est_service := if !est_service = 0 then s else ((7 * !est_service) + s) / 8
  in
  let last_finish = ref t0 in
  let rec arrive now seq fails =
    let c = seq mod n in
    let q = queues.(c) in
    let depth = Queue.length q in
    let projected_wait_ns =
      imax 0 (free.(c) - now) + (depth / batch * !est_service)
    in
    let slack_ns =
      match deadline_ns with
      | None -> None
      | Some _ -> Some (deadline_of seq - now)
    in
    if Admission.admit admission ~queue_depth:depth ~projected_wait_ns ~slack_ns
    then begin
      Queue.add (seq, now, fails) q;
      if depth + 1 = batch then full_at.(c) <- now;
      set_backlog now (!backlog + 1)
    end
    else begin
      incr shed;
      if seq >= p2_from then incr p2_shed;
      note_time now;
      fail now seq fails
    end
  (* A shed or expired op re-enters after the retry delay, or is dropped
     for good once the budget is spent. *)
  and fail now seq fails =
    match Retry.delay_ns retry rng ~failures:(fails + 1) with
    | Some d ->
        incr retries;
        reentries := Reentry.add (now + d, seq, fails + 1) !reentries
    | None ->
        incr dropped;
        if seq >= p2_from then incr p2_dropped;
        retire now seq
  (* A closed-loop client issues its next op once the previous one is
     done with, served or dropped. *)
  and retire now seq =
    if closed && seq + n < total then begin
      arrivals.(slot seq) <- now;
      arrive now (seq + n) 0
    end
  in
  let dispatch start c =
    let q = queues.(c) in
    let k = Queue.length q in
    let k = if k < batch then k else batch in
    set_backlog start (!backlog - k);
    let seqs = Array.make k 0 in
    let m = ref 0 in
    for _ = 1 to k do
      let seq, enq, fails = Queue.pop q in
      (* Deadline-aware shedding extends to dispatch: an op already past
         its deadline is dropped, not served.  The other policies model
         a server that cannot see deadlines and serves it late. *)
      if drop_stale && start > deadline_of seq then begin
        incr expired;
        fail start seq fails
      end
      else begin
        Fpb_obs.Histogram.record queue_ns (start - enq);
        seqs.(!m) <- seq;
        incr m
      end
    done;
    let m = !m in
    if m > 0 then begin
      let seqs = if m = k then seqs else Array.sub seqs 0 m in
      Clock.set clock start;
      exec ~client:c
        (if closed then Array.map (fun j -> j / n) seqs else seqs);
      let finish = Clock.now clock in
      Fpb_obs.Histogram.record service_ns (finish - start);
      Fpb_obs.Histogram.record batch_fill m;
      observe_service (finish - start);
      free.(c) <- finish;
      if finish > !last_finish then last_finish := finish;
      incr batches;
      for i = 0 to m - 1 do
        let seq = seqs.(i) in
        Fpb_obs.Histogram.record latency (finish - arrivals.(slot seq));
        incr completed;
        let deadline = deadline_of seq in
        let in_deadline = finish <= deadline in
        if in_deadline then incr good
        else if deadline < max_int then incr expired;
        if seq >= p2_from then begin
          incr p2_completed;
          if in_deadline then incr p2_good
        end;
        retire finish seq
      done
    end
  in
  let running = ref true in
  while !running do
    let ta =
      if !next_fresh < n_scheduled then arrivals.(!next_fresh) else max_int
    in
    let tr =
      if Reentry.is_empty !reentries then max_int
      else
        let t, _, _ = Reentry.min_elt !reentries in
        t
    in
    let c = ref (-1) and td = ref max_int in
    for i = 0 to n - 1 do
      let q = queues.(i) in
      let len = Queue.length q in
      if len > 0 then begin
        let t =
          if len >= batch then imax free.(i) full_at.(i)
          else
            let _, enq, _ = Queue.peek q in
            imax free.(i) (enq + batch_wait_ns)
        in
        if t < !td then begin
          c := i;
          td := t
        end
      end
    done;
    if ta = max_int && tr = max_int && !c < 0 then running := false
    else if tr < ta && tr <= !td then begin
      let ((_, seq, fails) as e) = Reentry.min_elt !reentries in
      reentries := Reentry.remove e !reentries;
      arrive tr seq fails
    end
    else if ta <= !td then begin
      incr next_fresh;
      arrive ta (!next_fresh - 1) 0
    end
    else dispatch !td !c
  done;
  Clock.join clock !last_finish;
  note_time !last_finish;
  let makespan_ns = !last_finish - t0 in
  let per_s k span =
    if span = 0 then 0. else float_of_int k *. 1e9 /. float_of_int span
  in
  let recovery =
    match cfg.source with
    | Open { n_ops; rate_change = Some (j0, _); _ } ->
        let span =
          if j0 < n_ops then max 0 (!last_finish - arrivals.(j0)) else 0
        in
        Some
          {
            w_offered = n_ops - j0;
            w_completed = !p2_completed;
            w_good = !p2_good;
            w_shed = !p2_shed;
            w_dropped = !p2_dropped;
            w_span_ns = span;
            w_goodput_ops_per_s = per_s !p2_good span;
          }
    | _ -> None
  in
  {
    ops = total;
    offered_ops_per_s = offered;
    makespan_ns;
    latency;
    queue_ns;
    service_ns;
    batch_fill;
    throughput_ops_per_s = per_s !completed makespan_ns;
    batches = !batches;
    mean_batch =
      (if !batches = 0 then 0.
       else float_of_int !completed /. float_of_int !batches);
    max_backlog = !max_backlog;
    backlog_peak_at_ns = !backlog_peak_at;
    time_above_watermark_ns = !above_ns;
    backlog_watermark = wm;
    completed = !completed;
    good = !good;
    shed = !shed;
    expired = !expired;
    retries = !retries;
    dropped = !dropped;
    goodput_ops_per_s = per_s !good makespan_ns;
    recovery;
  }

let each op ~client seqs =
  for i = 0 to Array.length seqs - 1 do
    op ~client ~seq:seqs.(i)
  done
