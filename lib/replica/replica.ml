(* WAL log-shipping replication.

   The group piggybacks on the WAL's durable-record observer: every
   record a successful flush makes durable is archived (LSN, framed
   bytes, CRC, ship time) and sent to each live replica over its own
   simulated link.  Delivery, the replica's log append and the returning
   ack are computed eagerly, at ship time, as pure future timestamps —
   the primary's clock never waits for them unless the commit barrier
   (semi-sync) explicitly advances to the k-th ack.  Replica *state* is
   materialised lazily ([sync]): records are applied in batches ending
   at a Commit/Checkpoint record, and only once durable on the replica's
   log device by the requested horizon, so a kill at any instant sees
   each replica as exactly the prefix of whole committed operations its
   own log had absorbed by then — records beyond the last commit are
   staged, and truncating "the unacked suffix" at promotion is just
   dropping them.

   Archive LSNs are consecutive (the WAL allocates LSNs in seal order
   and the observer sees records in seal order), so seq = lsn - lo is
   O(1).  Across a failover the promoted WAL continues the LSN space
   ([first_lsn = committed_lsn + 1]), and the resumed group starts a
   fresh archive there. *)

module Clock = Fpb_simmem.Clock
module Sim = Fpb_simmem.Sim
module Counter = Fpb_obs.Counter
module Histogram = Fpb_obs.Histogram
module Disk_model = Fpb_storage.Disk_model
module Page_store = Fpb_storage.Page_store
module Buffer_pool = Fpb_storage.Buffer_pool
module Vec = Fpb_storage.Vec
module Prng = Fpb_workload.Prng
module Shadow = Fpb_snapshot.Shadow
module Wal = Fpb_wal.Wal

type mode = Async | Semi_sync of int

type config = {
  mode : mode;
  window : int;
  ack_bytes : int;
  detect_timeout_ns : int;
  n_disks : int;
  pool_pages : int;
  group_commit_bytes : int;
  log_mirrors : int;
  log_stripes : int;
}

let default_config =
  {
    mode = Semi_sync 1;
    window = 64;
    ack_bytes = 24;
    detect_timeout_ns = 5_000_000;
    n_disks = 2;
    pool_pages = 96;
    group_commit_bytes = 0;
    log_mirrors = 1;
    log_stripes = 1;
  }

(* One shipped record.  [shipped_ns] is the primary flush completion
   (local durability — the Async ack point); per-node delivery times
   live in the node's own vectors, index-aligned with the archive. *)
type entry = {
  lsn : int;
  framed : string;
  record : Wal.record;
  shipped_ns : int;
}

let dummy_entry =
  {
    lsn = 0;
    framed = "";
    record = Wal.Commit { lsn = 0; op = 0; meta = [] };
    shipped_ns = 0;
  }

type node = {
  id : int;
  mutable link : Net.t;
  mutable ack_link : Net.t;
  log_disk : Disk_model.t;  (* the replica's own (serial) log device *)
  mutable log_bytes : int;
  mutable pages : Bytes.t option Vec.t;  (* applied images, index = page id *)
  mutable total_pages : int;
  free : (int, unit) Hashtbl.t;
  mutable applied_seq : int;  (* archive entries [0, applied_seq) applied *)
  mutable committed_op : int;
  mutable committed_lsn : int;
  mutable meta : int list;
  mutable alive : bool;
  (* index-aligned with the archive; for a live node both always have
     length = archive length (padded at join/revival) *)
  mutable durable_ns : int Vec.t;
  mutable ack_ns : int Vec.t;
}

type stats = {
  c_shipped : Counter.t;
  c_shipped_bytes : Counter.t;
  c_semi_waits : Counter.t;
  c_failovers : Counter.t;
  c_failover_trunc : Counter.t;
  c_rebaselined : Counter.t;
  c_trimmed : Counter.t;
  c_catchup_log : Counter.t;
  c_catchup_pages : Counter.t;
  ack_wait : Histogram.t;
}

let make_stats () =
  {
    c_shipped = Counter.make "replica.shipped_records";
    c_shipped_bytes = Counter.make "replica.shipped_bytes";
    c_semi_waits = Counter.make "replica.semi_sync_waits";
    c_failovers = Counter.make "replica.failovers";
    c_failover_trunc = Counter.make "replica.failover.truncated_records";
    c_rebaselined = Counter.make "replica.rebaselined_records";
    c_trimmed = Counter.make "replica.archive.trimmed_records";
    c_catchup_log = Counter.make "replica.catchup.log_records";
    c_catchup_pages = Counter.make "replica.catchup.snapshot_pages";
    ack_wait = Histogram.make "replica.ack_wait_ns";
  }

type t = {
  sim : Sim.t;
  clock : Clock.t;
  wal : Wal.t;
  pool : Buffer_pool.t;
  page_size : int;
  cfg : config;
  archive : entry Vec.t;
  mutable base_seq : int;  (* entries below it released by [trim_archive] *)
  mutable nodes : node array;
  mutable next_id : int;
  mutable killed : bool;
  mutable killed_at : int;
  (* committed cursor the group started from (commits before any record
     shipped) *)
  init_op : int;
  init_lsn : int;
  init_meta : int list;
  stats : stats;
}

let config t = t.cfg
let n_nodes t = Array.length t.nodes
let node t i = t.nodes.(i)
let node_link n = n.link
let node_committed_op n = n.committed_op
let ack_wait t = t.stats.ack_wait

let seq_of_lsn t lsn =
  if Vec.length t.archive = 0 then None
  else
    let s = lsn - (Vec.get t.archive 0).lsn in
    if s < 0 || s >= Vec.length t.archive then None else Some s

let is_commit_entry e =
  match e.record with Wal.Commit _ | Wal.Checkpoint _ -> true | _ -> false

(* ------------------------- replica state ---------------------------- *)

let ensure_pages n id =
  while Vec.length n.pages <= id do
    Vec.push n.pages None
  done

let set_page n id v =
  ensure_pages n id;
  Vec.set n.pages id v

let get_page n id = if id < Vec.length n.pages then Vec.get n.pages id else None

(* Redo one archived record into the node's applied state.  All cases
   are idempotent (images and deltas overwrite, alloc/free set-update). *)
let apply_record t n e =
  match e.record with
  | Wal.Image { page; img; _ } ->
      n.total_pages <- max n.total_pages page;
      Hashtbl.remove n.free page;
      set_page n page (Some (Bytes.copy img))
  | Wal.Delta { page; off; bytes; _ } ->
      n.total_pages <- max n.total_pages page;
      let b =
        match get_page n page with
        | Some b -> b
        | None ->
            let b = Bytes.make t.page_size '\000' in
            set_page n page (Some b);
            b
      in
      Bytes.blit bytes 0 b off (Bytes.length bytes)
  | Wal.Commit { op; meta; _ } | Wal.Checkpoint { op; meta; _ } ->
      n.committed_op <- op;
      n.committed_lsn <- e.lsn;
      n.meta <- meta
  | Wal.Alloc { page; _ } ->
      n.total_pages <- max n.total_pages page;
      Hashtbl.remove n.free page;
      set_page n page (Some (Bytes.make t.page_size '\000'))
  | Wal.Free { page; _ } ->
      Hashtbl.replace n.free page ();
      set_page n page None

(* Apply every whole committed batch durable on the node by [horizon];
   returns how many records beyond the last commit are durable but
   staged (the node's unacked suffix as of [horizon]).  Durable times
   are monotone (serial log device fed by an in-order link), so the
   scan can stop at the first record past the horizon. *)
let sync t n ~horizon =
  let len = Vec.length n.durable_ns in
  let i = ref n.applied_seq in
  let last_commit = ref (n.applied_seq - 1) in
  while !i < len && Vec.get n.durable_ns !i <= horizon do
    if is_commit_entry (Vec.get t.archive !i) then last_commit := !i;
    incr i
  done;
  for j = n.applied_seq to !last_commit do
    apply_record t n (Vec.get t.archive j)
  done;
  if !last_commit >= n.applied_seq then n.applied_seq <- !last_commit + 1;
  !i - n.applied_seq

let sync_node t ?horizon n =
  let horizon =
    match horizon with Some h -> h | None -> Clock.now t.clock
  in
  ignore (sync t n ~horizon : int);
  n.committed_op

(* --------------------------- shipping ------------------------------- *)

(* Durable-record observer: archive the record and compute, per live
   node, its delivery, replica-log-durable and ack times.  The in-flight
   window gates the send on the ack of the record [window] back. *)
let ship t lsn framed =
  if not t.killed then begin
    let now = Clock.now t.clock in
    let seq = Vec.length t.archive in
    let record =
      match Wal.Codec.decode (Bytes.unsafe_of_string framed) 0 with
      | Some (r, _) -> r
      | None -> invalid_arg "Fpb_replica: undecodable shipped record"
    in
    Vec.push t.archive { lsn; framed; record; shipped_ns = now };
    Counter.incr t.stats.c_shipped;
    Counter.add t.stats.c_shipped_bytes (String.length framed);
    Array.iter
      (fun n ->
        if n.alive then begin
          let gate =
            if seq >= t.cfg.window then
              max now (Vec.get n.ack_ns (seq - t.cfg.window))
            else now
          in
          let dlv = Net.deliver n.link ~send:gate ~bytes:(String.length framed) in
          let phys = n.log_bytes / t.page_size in
          let durable =
            Disk_model.write_sync n.log_disk ~earliest:dlv ~append:true
              ~disk:0 ~phys ()
          in
          n.log_bytes <- n.log_bytes + String.length framed;
          Vec.push n.durable_ns durable;
          Vec.push n.ack_ns
            (Net.deliver n.ack_link ~send:durable ~bytes:t.cfg.ack_bytes)
        end)
      t.nodes
  end

(* Commit barrier: under semi-sync, block (simulated time) until the
   k-th replica ack of this commit's LSN.  k is clamped to the replicas
   the record actually shipped to, so a shrunken group degrades to
   waiting on everyone rather than hanging. *)
let barrier t ~op:_ ~lsn =
  if not t.killed then
    match t.cfg.mode with
    | Async -> ()
    | Semi_sync k -> (
        Wal.flush t.wal;
        match seq_of_lsn t lsn with
        | None -> ()
        | Some seq ->
            let acks = ref [] in
            Array.iter
              (fun n ->
                if seq < Vec.length n.ack_ns then
                  acks := Vec.get n.ack_ns seq :: !acks)
              t.nodes;
            let k' = min k (List.length !acks) in
            if k' > 0 then begin
              let sorted = List.sort compare !acks in
              let tk = List.nth sorted (k' - 1) in
              let now = Clock.now t.clock in
              Counter.incr t.stats.c_semi_waits;
              Histogram.record t.stats.ack_wait (max 0 (tk - now));
              Clock.advance_to t.clock tk
            end)

let install t =
  Wal.set_durable_observer t.wal (Some (ship t));
  Wal.set_commit_barrier t.wal (Some (barrier t))

let detach t =
  Wal.set_durable_observer t.wal None;
  Wal.set_commit_barrier t.wal None

(* --------------------------- creation ------------------------------- *)

let fresh_node t ~prng ~profile =
  let store = Buffer_pool.store t.pool in
  let total = Page_store.total_pages store in
  let free = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace free id ()) (Page_store.free_list store);
  let pages = Vec.create ~dummy:None in
  Vec.push pages None (* page 0 = nil *);
  for id = 1 to total do
    if Hashtbl.mem free id then Vec.push pages None
    else Vec.push pages (Some (Bytes.copy (Page_store.bytes store id)))
  done;
  let id = t.next_id in
  t.next_id <- id + 1;
  {
    id;
    link = Net.create ~prng:(Prng.split prng) profile;
    ack_link = Net.create ~prng:(Prng.split prng) { profile with partitions = [] };
    log_disk =
      Disk_model.create
        ~transfer_ns:(Disk_model.transfer_ns_of_page_size t.page_size)
        ~n_disks:1 t.clock;
    log_bytes = 0;
    pages;
    total_pages = total;
    free;
    applied_seq = 0;
    committed_op = t.init_op;
    committed_lsn = t.init_lsn;
    meta = t.init_meta;
    alive = true;
    durable_ns = Vec.create ~dummy:0;
    ack_ns = Vec.create ~dummy:0;
  }

let create ~config:cfg ~prng ~profiles (wal, pool) =
  if Wal.in_operation wal then invalid_arg "Replica.create: mid-operation";
  Wal.flush wal;
  let sim = Buffer_pool.sim pool in
  let store = Buffer_pool.store pool in
  (* The base-backup cut's index metadata: the newest commit/checkpoint
     already in the log (at minimum the attach-time checkpoint), so a
     promotion before the first shipped commit still restores a handle. *)
  let init_meta =
    List.fold_left
      (fun acc r ->
        match r with
        | Wal.Commit { meta; _ } | Wal.Checkpoint { meta; _ } -> meta
        | _ -> acc)
      []
      (Wal.durable_records wal)
  in
  let t =
    {
      sim;
      clock = sim.Sim.clock;
      wal;
      pool;
      page_size = Page_store.page_size store;
      cfg;
      archive = Vec.create ~dummy:dummy_entry;
      base_seq = 0;
      nodes = [||];
      next_id = 0;
      killed = false;
      killed_at = 0;
      init_op = Wal.last_committed_op wal;
      init_lsn = Wal.last_lsn wal;
      init_meta;
      stats = make_stats ();
    }
  in
  t.nodes <-
    Array.of_list (List.map (fun p -> fresh_node t ~prng ~profile:p) profiles);
  install t;
  t

(* ---------------------------- oracles ------------------------------- *)

let node_durable_op t n ~horizon =
  let best = ref t.init_op in
  (try
     for i = 0 to Vec.length n.durable_ns - 1 do
       if Vec.get n.durable_ns i > horizon then raise Exit
       else
         match (Vec.get t.archive i).record with
         | Wal.Commit { op; _ } | Wal.Checkpoint { op; _ } -> best := op
         | _ -> ()
     done
   with Exit -> ());
  !best

let acked_op t ~horizon =
  let rec scan i =
    if i < 0 then t.init_op
    else
      let e = Vec.get t.archive i in
      match e.record with
      | Wal.Commit { op; _ } | Wal.Checkpoint { op; _ } ->
          let ok =
            e.shipped_ns <= horizon
            &&
            match t.cfg.mode with
            | Async -> true
            | Semi_sync k ->
                let avail = ref 0 and got = ref 0 in
                Array.iter
                  (fun n ->
                    if i < Vec.length n.ack_ns then begin
                      incr avail;
                      if Vec.get n.ack_ns i <= horizon then incr got
                    end)
                  t.nodes;
                !got >= min k !avail
          in
          if ok then op else scan (i - 1)
      | _ -> scan (i - 1)
  in
  scan (Vec.length t.archive - 1)

(* --------------------------- failover ------------------------------- *)

let kill t =
  if not t.killed then begin
    t.killed <- true;
    t.killed_at <- Clock.now t.clock
  end

let killed_at t = if t.killed then Some t.killed_at else None

type promotion = {
  node_id : int;
  committed_op : int;
  committed_lsn : int;
  meta : int list;
  truncated_records : int;
  store : Page_store.t;
  disks : Disk_model.t;
  pool : Buffer_pool.t;
  wal : Wal.t;
}

let promote t =
  if not t.killed then invalid_arg "Replica.promote: primary not killed";
  let horizon = t.killed_at in
  let live = List.filter (fun n -> n.alive) (Array.to_list t.nodes) in
  if live = [] then invalid_arg "Replica.promote: no live replica";
  List.iter (fun n -> ignore (sync t n ~horizon : int)) live;
  let best =
    List.fold_left
      (fun (a : node) (n : node) ->
        if n.committed_lsn > a.committed_lsn then n else a)
      (List.hd live) (List.tl live)
  in
  (* the staged suffix: durable on the node by the kill but beyond its
     last commit — exactly what the promotion truncates *)
  let staged = ref 0 in
  let i = ref best.applied_seq in
  while
    !i < Vec.length best.durable_ns && Vec.get best.durable_ns !i <= horizon
  do
    incr staged;
    incr i
  done;
  Clock.advance_to t.clock (horizon + t.cfg.detect_timeout_ns);
  let store = Page_store.create ~page_size:t.page_size ~n_disks:t.cfg.n_disks in
  for id = 1 to best.total_pages do
    let pid = Page_store.alloc store in
    if pid <> id then invalid_arg "Replica.promote: non-sequential alloc";
    match get_page best id with
    | Some b ->
        Bytes.blit b 0 (Page_store.bytes store id) 0 t.page_size;
        Page_store.rewritten store id;
        Page_store.stamp ~lsn:best.committed_lsn store id
    | None -> ()
  done;
  let free = Hashtbl.fold (fun k () acc -> k :: acc) best.free [] in
  Page_store.set_free_list store (List.sort compare free);
  let disks =
    Disk_model.create
      ~transfer_ns:(Disk_model.transfer_ns_of_page_size t.page_size)
      ~n_disks:t.cfg.n_disks t.clock
  in
  let pool = Buffer_pool.create ~capacity:t.cfg.pool_pages t.sim store disks in
  let wal =
    Wal.attach ~group_commit_bytes:t.cfg.group_commit_bytes
      ~log_mirrors:t.cfg.log_mirrors ~log_stripes:t.cfg.log_stripes
      ~first_lsn:(best.committed_lsn + 1) ~meta:best.meta pool
  in
  best.alive <- false;
  Counter.incr t.stats.c_failovers;
  Counter.add t.stats.c_failover_trunc !staged;
  {
    node_id = best.id;
    committed_op = best.committed_op;
    committed_lsn = best.committed_lsn;
    meta = best.meta;
    truncated_records = !staged;
    store;
    disks;
    pool;
    wal;
  }

let resume (t : t) p =
  let promoted =
    match List.find_opt (fun n -> n.id = p.node_id) (Array.to_list t.nodes) with
    | Some n -> n
    | None -> invalid_arg "Replica.resume: unknown promoted node"
  in
  let cut = promoted.applied_seq in
  let survivors =
    List.filter (fun n -> n.alive && n.id <> p.node_id) (Array.to_list t.nodes)
  in
  List.iter
    (fun n ->
      (* [promote] chose the live node with the newest applied commit,
         so no survivor has applied past it *)
      assert (n.applied_seq <= cut);
      Counter.add t.stats.c_rebaselined (cut - n.applied_seq);
      for j = n.applied_seq to cut - 1 do
        apply_record t n (Vec.get t.archive j)
      done;
      n.applied_seq <- 0;
      n.committed_op <- p.committed_op;
      n.committed_lsn <- p.committed_lsn;
      n.meta <- p.meta;
      n.durable_ns <- Vec.create ~dummy:0;
      n.ack_ns <- Vec.create ~dummy:0)
    survivors;
  let nt =
    {
      t with
      wal = p.wal;
      pool = p.pool;
      archive = Vec.create ~dummy:dummy_entry;
      base_seq = 0;
      nodes = Array.of_list survivors;
      killed = false;
      killed_at = 0;
      init_op = p.committed_op;
      init_lsn = p.committed_lsn;
      init_meta = p.meta;
    }
  in
  install nt;
  nt

(* ---------------------- retention & catch-up ------------------------ *)

(* Re-ship archive entries [from, len) to the node serially (each send
   gated on the previous record's durability), recording real delivery
   times; returns (records shipped, final cursor). *)
let ship_tail t n ~from ~start_cursor =
  let cursor = ref start_cursor in
  let shipped = ref 0 in
  for i = from to Vec.length t.archive - 1 do
    let e = Vec.get t.archive i in
    let dlv = Net.deliver n.link ~send:!cursor ~bytes:(String.length e.framed) in
    let phys = n.log_bytes / t.page_size in
    let durable =
      Disk_model.write_sync n.log_disk ~earliest:dlv ~append:true ~disk:0
        ~phys ()
    in
    n.log_bytes <- n.log_bytes + String.length e.framed;
    Vec.push n.durable_ns durable;
    Vec.push n.ack_ns (Net.deliver n.ack_link ~send:durable ~bytes:t.cfg.ack_bytes);
    cursor := durable;
    incr shipped
  done;
  (!shipped, !cursor)

let trim_archive t ~below_lsn =
  if Vec.length t.archive = 0 then 0
  else begin
    let lo = (Vec.get t.archive 0).lsn in
    let nb =
      min (Vec.length t.archive) (max t.base_seq (below_lsn - lo + 1))
    in
    let trimmed = nb - t.base_seq in
    t.base_seq <- nb;
    Counter.add t.stats.c_trimmed trimmed;
    trimmed
  end

let detach_replica _t n = n.alive <- false

let catch_up_via_log (t : t) n =
  Wal.flush t.wal;
  let vlen = Vec.length n.durable_ns in
  if vlen < t.base_seq then `Retention_exceeded
  else begin
    let t0 = Clock.now t.clock in
    let shipped, cursor = ship_tail t n ~from:vlen ~start_cursor:t0 in
    ignore (sync t n ~horizon:max_int : int);
    n.alive <- true;
    Counter.add t.stats.c_catchup_log shipped;
    `Ok (shipped, if shipped = 0 then 0 else cursor - t0)
  end

let catch_up_via_snapshot (t : t) n ~snapshot =
  Wal.flush t.wal;
  let t0 = Clock.now t.clock in
  let total, free_list = Shadow.snapshot_alloc snapshot in
  let cursor = ref t0 in
  let pages_shipped = ref 0 in
  n.pages <- Vec.create ~dummy:None;
  Vec.push n.pages None;
  Hashtbl.reset n.free;
  List.iter (fun id -> Hashtbl.replace n.free id ()) free_list;
  n.total_pages <- total;
  for id = 1 to total do
    if Hashtbl.mem n.free id then Vec.push n.pages None
    else
      match Shadow.read snapshot id with
      | Some b ->
          cursor := Net.deliver n.link ~send:!cursor ~bytes:(Bytes.length b);
          Vec.push n.pages (Some b);
          incr pages_shipped
      | None -> Vec.push n.pages (Some (Bytes.make t.page_size '\000'))
  done;
  n.committed_op <- Shadow.snapshot_op snapshot;
  n.committed_lsn <- Shadow.snapshot_lsn snapshot;
  n.meta <- Shadow.snapshot_meta snapshot;
  let cut_seq =
    if Vec.length t.archive = 0 then 0
    else
      let lo = (Vec.get t.archive 0).lsn in
      min (Vec.length t.archive)
        (max 0 (Shadow.snapshot_lsn snapshot - lo + 1))
  in
  if cut_seq < t.base_seq then
    invalid_arg "Replica.catch_up_via_snapshot: snapshot below archive retention";
  n.applied_seq <- cut_seq;
  n.durable_ns <- Vec.create ~dummy:0;
  n.ack_ns <- Vec.create ~dummy:0;
  for _ = 1 to cut_seq do
    Vec.push n.durable_ns !cursor;
    Vec.push n.ack_ns !cursor
  done;
  let tail, cursor' = ship_tail t n ~from:cut_seq ~start_cursor:!cursor in
  ignore (sync t n ~horizon:max_int : int);
  n.alive <- true;
  Counter.add t.stats.c_catchup_pages !pages_shipped;
  Counter.add t.stats.c_catchup_log tail;
  (!pages_shipped, tail, (if tail = 0 then !cursor else cursor') - t0)

(* ------------------------- observability ---------------------------- *)

let kv t =
  let s = t.stats in
  let base =
    List.map Counter.kv
      [
        s.c_shipped;
        s.c_shipped_bytes;
        s.c_semi_waits;
        s.c_failovers;
        s.c_failover_trunc;
        s.c_rebaselined;
        s.c_trimmed;
        s.c_catchup_log;
        s.c_catchup_pages;
      ]
  in
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  Array.iter
    (fun n ->
      List.iter
        (fun (k, v) ->
          if not (Hashtbl.mem tbl k) then order := k :: !order;
          Hashtbl.replace tbl k (v + try Hashtbl.find tbl k with Not_found -> 0))
        (Net.kv n.link @ Net.kv n.ack_link))
    t.nodes;
  base @ List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order
