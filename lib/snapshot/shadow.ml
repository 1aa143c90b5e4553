(* Shadow-paging checkpoint & snapshot coordinator.

   The classic sharp checkpoint ([Wal.checkpoint]) stalls every writer
   for a whole-pool write-back plus a data-durability barrier.  This
   layer replaces it with a fuzzy protocol in the shadow-paging
   tradition (System R's shadow pages, LFS-style relocation, the
   ZFS/WAFL "uberblock" flip):

   - {b begin} captures a cut — the WAL's per-stripe marks plus the
     allocator state — and a worklist of every page whose durable image
     lags its newest committed state (pool-dirty pages and pages a
     deferred write-back left stale);
   - {b tick} hardens a bounded number of worklist pages per call
     ([Wal.harden_page]), interleaved with foreground operations —
     writers never wait for the pass;
   - {b flip}, once the worklist drains, encodes the logical→physical
     indirection table, writes it to the non-live table slot, and
     publishes it with one superblock sector write ({!Page_map}); only
     this final step stalls the writer, and it is a handful of
     sequential metadata writes, not a pool drain.

   Copy-on-write keeps the flipped image intact: the {!Page_store}
   remapper relocates a page to a fresh physical block on its first
   write after a flip whenever its current block is referenced by a
   retained table ([table_refs]), so checkpointed blocks are never
   overwritten in place.  Blocks are reclaimed when the last retaining
   generation retires.

   Generation content is frozen lazily.  At flip time only the pages
   whose durable images lag the flip have their committed bytes copied
   ([Wal.committed_image]); afterwards the WAL's pre-log observer hands
   the layer each page's pre-update committed content on its first
   post-flip logging.  Because flips happen between operations and every
   operation logs its pages at commit, both sources yield exactly the
   committed-at-flip bytes, so a {!snapshot} opened at a checkpoint
   reads an operation-consistent image while updates (and further
   checkpoints) proceed beside it.  Pages never logged after the flip
   fall back to the WAL's current durable image, which is then
   content-identical to the flip-time state.

   Recovery ({!recover}) loads the newest valid (superblock, table) pair
   — a torn superblock or partially written table falls back to the
   previous generation — restores the checkpointed mapping, and replays
   the WAL only from the loaded table's cut: replay is bounded by the
   work since the last flip, not the log's full history.  If neither
   superblock is readable, plain WAL recovery is the safety net. *)

open Fpb_simmem
open Fpb_storage
module Wal = Fpb_wal.Wal
module Counter = Fpb_obs.Counter
module Histogram = Fpb_obs.Histogram

(* A retained checkpoint generation: its persisted table entries plus
   the lazily frozen committed-at-flip page images, indexed like
   [entries] by page id.  [images] stands in for reading the
   generation's frozen physical blocks (the store keeps only logical
   bytes); copy-on-write guarantees those blocks still hold these bytes
   on disk. *)
type gen_state = {
  gen : int;
  entries : Page_map.entry array;
  images : (Bytes.t * int) option array;
  marks : int array;
  cut_lsn : int;  (* newest LSN below the cut: replay starts after it *)
  alloc : int * int list;
  op : int;
  meta : int list;
  mutable pins : int;
}

(* An in-progress fuzzy checkpoint between [checkpoint_begin] and its
   flip. *)
type progress = {
  cut_marks : int array;
  cut_lsn : int;
  cut_alloc : int * int list;
  mutable worklist : int list;
  mutable hardened : int;
}

type crash_point =
  | Writeback_partial of int
      (** crash after that many worklist pages hardened *)
  | Table_partial of int
      (** crash with only that many bytes of the shadow table written *)
  | Superblock_torn  (** crash with half the superblock sector written *)
  | After_flip
      (** table and superblock durable; crash before the WAL checkpoint
          record moves the replay start point *)

type stats = {
  begins : Counter.t;  (* ckpt.begins *)
  flips : Counter.t;  (* ckpt.flips *)
  hardened : Counter.t;  (* ckpt.pages_hardened *)
  captures : Counter.t;  (* ckpt.captures *)
  retired : Counter.t;  (* ckpt.retired_gens *)
  recoveries : Counter.t;  (* ckpt.recoveries *)
  plain_recoveries : Counter.t;  (* ckpt.plain_recoveries *)
  remaps : Counter.t;  (* pagemap.remaps *)
  blocks_allocated : Counter.t;  (* pagemap.blocks_allocated *)
  blocks_freed : Counter.t;  (* pagemap.blocks_freed *)
  snap_opens : Counter.t;  (* snapshot.opens *)
  snap_reads : Counter.t;  (* snapshot.reads *)
  snap_closes : Counter.t;  (* snapshot.closes *)
  yields : Counter.t;  (* ckpt.yields *)
}

type t = {
  wal : Wal.t;
  pool : Buffer_pool.t;
  store : Page_store.t;
  clock : Clock.t;
  map : Page_map.t;
  mutable current_gen : int;
  mutable page_gen : int array;
      (* page -> last generation remapped (0 beyond the array) *)
  table_refs : int array array;
      (* disk -> phys -> number of retained tables referencing the block
         (0 beyond the array) *)
  mutable retained : gen_state list;  (* newest first *)
  mutable spare : Bytes.t list;
      (* page-sized image buffers of retired generations, for reuse *)
  mutable progress : progress option;
  mutable crash_point : crash_point option;
  mutable backpressure : (unit -> bool) option;
  flip_stall : Histogram.t;  (* ckpt.flip_stall_ns *)
  stats : stats;
}

(* How many recent generations stay retained beyond pinned snapshots:
   the current one (recovery's base) plus its predecessor (the fallback
   when the newest superblock or table is damaged). *)
let keep_gens = 2

(* ----------------------- copy-on-write remapping --------------------- *)

(* [a] widened with zeros so that it holds index [i]. *)
let widen a i =
  if i < Array.length a then a
  else begin
    let n = 2 * Array.length a in
    let b = Array.make (if n > i then n else i + 1) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let refs t ~disk ~phys =
  let a = t.table_refs.(disk) in
  if phys < Array.length a then Array.unsafe_get a phys else 0

let set_refs t ~disk ~phys n =
  let a = widen t.table_refs.(disk) phys in
  t.table_refs.(disk) <- a;
  a.(phys) <- n

(* First write to a page after a flip: if its current block is
   referenced by a retained table, relocate the page to a fresh block on
   the same disk so the checkpointed image survives; otherwise nothing
   frozen lives there and the write may proceed in place.  Runs from
   [Page_store.write_location] on every disk-write path. *)
let remap t id =
  if id >= Array.length t.page_gen then t.page_gen <- widen t.page_gen id;
  if t.page_gen.(id) < t.current_gen then begin
    t.page_gen.(id) <- t.current_gen;
    let disk, phys = Page_store.location t.store id in
    if refs t ~disk ~phys > 0 then begin
      let phys' = Page_store.alloc_block t.store ~disk in
      Page_store.relocate t.store id ~disk ~phys:phys';
      Counter.incr t.stats.remaps;
      Counter.incr t.stats.blocks_allocated
    end
  end

(* The page's committed image, copied into a spare buffer when there
   is one. *)
let take_image t page =
  match t.spare with
  | [] -> Wal.committed_image t.wal page
  | b :: rest -> (
      match Wal.committed_image ~into:b t.wal page with
      | Some _ as img ->
          t.spare <- rest;
          img
      | None -> None)

(* WAL pre-log observer, fired on a page's first logging since the last
   flip (or since its allocation) while [Wal.committed_image] is still
   its pre-update committed content.  Freeze that into every retained
   generation that does not have the page yet — flips happen between
   operations, so this is exactly the page's committed-at-flip state,
   and after it no retained generation lacks the page until the next
   flip.  The image is copied at most once ([fetched]) and shared
   across generations: a retained generation's images are never
   mutated, and a buffer is reused only after the last generation
   holding it retires. *)
let rec capture_into t page fetched = function
  | [] -> ()
  | st :: rest ->
      if page < Array.length st.images && Option.is_none st.images.(page)
      then begin
        let img =
          match fetched with Some img -> img | None -> take_image t page
        in
        if Option.is_some img then begin
          st.images.(page) <- img;
          Counter.incr t.stats.captures
        end;
        capture_into t page (Some img) rest
      end
      else capture_into t page fetched rest

let capture t page = capture_into t page None t.retained

(* --------------------------- gen retirement -------------------------- *)

(* Drop one retired generation's block references; a block whose last
   reference goes away is reusable unless it is still some page's
   current location (the page was never rewritten after that flip).  Its
   image buffers become spares, except those another generation in
   [others] shares (a capture shares one copy across generations); the
   last generation holding a buffer gives it up. *)
let release_gen t ~others st =
  Array.iteri
    (fun id img ->
      match img with
      | None -> ()
      | Some (b, _) ->
          st.images.(id) <- None;
          let shared o =
            id < Array.length o.images
            &&
            match o.images.(id) with Some (b', _) -> b' == b | None -> false
          in
          if not (List.exists shared others) then t.spare <- b :: t.spare)
    st.images;
  Array.iteri
    (fun id { Page_map.disk; phys; _ } ->
      if id > 0 then
        match refs t ~disk ~phys with
        | 0 -> ()
        | 1 ->
            set_refs t ~disk ~phys 0;
            let disk', phys' = Page_store.location t.store id in
            if disk' <> disk || phys' <> phys then begin
              Page_store.free_block t.store ~disk ~phys;
              Counter.incr t.stats.blocks_freed
            end
        | n -> set_refs t ~disk ~phys (n - 1))
    st.entries

let retire_unpinned t =
  let keeps i st = i < keep_gens || st.pins > 0 in
  let retired = List.filteri (fun i st -> not (keeps i st)) t.retained in
  t.retained <- List.filteri keeps t.retained;
  let rec go = function
    | [] -> ()
    | st :: rest ->
        release_gen t ~others:(t.retained @ rest) st;
        Counter.incr t.stats.retired;
        go rest
  in
  go retired

(* --------------------------- the checkpoint -------------------------- *)

let checkpoint_in_progress t = t.progress <> None

let worklist_remaining t =
  match t.progress with None -> 0 | Some p -> List.length p.worklist

(* Capture the cut and the worklist.  The flush first makes every
   acknowledged commit durable before the cut marks freeze, so a scan
   from the cut covers exactly the later records. *)
let checkpoint_begin t =
  (match t.progress with
  | Some _ -> invalid_arg "Shadow.checkpoint_begin: checkpoint in progress"
  | None -> ());
  if Wal.in_operation t.wal then
    invalid_arg "Shadow.checkpoint_begin: called mid-operation";
  Wal.flush t.wal;
  let cut_marks = Wal.current_marks t.wal in
  let cut_lsn = Wal.last_lsn t.wal in
  let cut_alloc =
    (Page_store.total_pages t.store, Page_store.free_list t.store)
  in
  let worklist =
    List.sort_uniq compare
      (Buffer_pool.dirty_pages t.pool @ Wal.stale_pages t.wal)
  in
  t.progress <- Some { cut_marks; cut_lsn; cut_alloc; worklist; hardened = 0 };
  Counter.incr t.stats.begins

(* The only stalling step: freeze committed content for pages whose
   durable images lag the flip, encode the indirection table from the
   current locations, write it to the non-live slot, publish it with one
   superblock write, and move the WAL's replay start point to the cut. *)
let flip t ~meta =
  let p =
    match t.progress with
    | Some p -> p
    | None -> invalid_arg "Shadow.flip: no checkpoint in progress"
  in
  let t0 = Clock.now t.clock in
  let total = Page_store.total_pages t.store in
  let images = Array.make (total + 1) None in
  let lagging =
    List.sort_uniq compare
      (Buffer_pool.dirty_pages t.pool @ Wal.stale_pages t.wal)
  in
  List.iter
    (fun pg ->
      match take_image t pg with
      | Some _ as img ->
          images.(pg) <- img;
          Counter.incr t.stats.captures
      | None -> ())
    lagging;
  let entries =
    Array.init (total + 1) (fun id ->
        if id = 0 then { Page_map.disk = -1; phys = -1; lsn = 0 }
        else
          let disk, phys = Page_store.location t.store id in
          { Page_map.disk; phys; lsn = Wal.page_durable_lsn t.wal id })
  in
  let gen = t.current_gen in
  let op = Wal.last_committed_op t.wal in
  let tb =
    {
      Page_map.gen; entries; marks = p.cut_marks; alloc = p.cut_alloc;
      op; meta;
    }
  in
  let blob = Page_map.encode_table tb in
  let slot = gen land 1 in
  (match t.crash_point with
  | Some (Table_partial n) ->
      t.crash_point <- None;
      Page_map.write_table t.map ~slot ~len:n blob;
      Wal.crash_now t.wal;
      raise Wal.Crashed
  | _ -> Page_map.write_table t.map ~slot blob);
  let table_len = Bytes.length blob in
  let crc = Page_map.table_crc blob in
  (match t.crash_point with
  | Some Superblock_torn ->
      t.crash_point <- None;
      Page_map.write_superblock t.map ~gen ~slot ~table_len ~crc ~torn:true ();
      Wal.crash_now t.wal;
      raise Wal.Crashed
  | _ -> Page_map.write_superblock t.map ~gen ~slot ~table_len ~crc ());
  (match t.crash_point with
  | Some After_flip ->
      t.crash_point <- None;
      Wal.crash_now t.wal;
      raise Wal.Crashed
  | _ -> ());
  (* Replay now starts at the cut; everything the fuzzy pass did not
     harden is covered by records after it. *)
  Wal.external_checkpoint t.wal ~marks:p.cut_marks ~alloc:p.cut_alloc ~meta;
  let st =
    { gen; entries; images; marks = p.cut_marks; cut_lsn = p.cut_lsn;
      alloc = p.cut_alloc; op; meta; pins = 0 }
  in
  Array.iteri
    (fun id { Page_map.disk; phys; _ } ->
      if id > 0 then set_refs t ~disk ~phys (1 + refs t ~disk ~phys))
    entries;
  t.retained <- st :: t.retained;
  retire_unpinned t;
  (* Log retention: everything below the *oldest* retained generation's
     cut is no longer needed by anyone — recovery starts at the newest
     cut, fallback recovery one generation back, snapshot replay at a
     pinned generation's cut — so the flip advances the WAL's retention
     floor to it and the released log space is reclaimed. *)
  (match List.rev t.retained with
  | oldest :: _ -> ignore (Wal.truncate_to t.wal ~marks:oldest.marks : int)
  | [] -> ());
  t.current_gen <- gen + 1;
  t.progress <- None;
  Counter.incr t.stats.flips;
  Histogram.record t.flip_stall (Clock.now t.clock - t0)

(* Harden up to [pages] worklist pages; once the worklist drains, flip.
   Returns whether the checkpoint completed.  A page that cannot harden
   yet (its operation is still in flight) goes to the back of the list
   and the tick yields. *)
let checkpoint_tick ?(pages = 8) t ~meta =
  match t.progress with
  | None -> invalid_arg "Shadow.checkpoint_tick: no checkpoint in progress"
  | Some p ->
      (* Under foreground backpressure the tick hardens nothing — the
         checkpoint's write-back I/O is exactly what a loaded system
         should stop paying for — but a worklist that is already empty
         still flips: the flip is metadata-only and holding it open
         would delay the recovery-start advance for no I/O saved. *)
      let yielding =
        match t.backpressure with None -> false | Some f -> f ()
      in
      if yielding then Counter.incr t.stats.yields;
      let budget = ref (if yielding then 0 else pages) in
      let blocked = ref false in
      while (not !blocked) && !budget > 0 && p.worklist <> [] do
        match p.worklist with
        | [] -> ()
        | page :: rest ->
            if Wal.harden_page t.wal page then begin
              p.worklist <- rest;
              p.hardened <- p.hardened + 1;
              Counter.incr t.stats.hardened;
              decr budget;
              match t.crash_point with
              | Some (Writeback_partial n) when p.hardened >= n ->
                  t.crash_point <- None;
                  Wal.crash_now t.wal;
                  raise Wal.Crashed
              | _ -> ()
            end
            else begin
              p.worklist <- rest @ [ page ];
              blocked := true
            end
      done;
      if p.worklist = [] then begin
        flip t ~meta;
        true
      end
      else false

(* Begin + drain + flip in one blocking call: the initial checkpoint at
   attach, and the post-recovery re-baseline. *)
let checkpoint_sync t ~meta =
  checkpoint_begin t;
  while not (checkpoint_tick ~pages:max_int t ~meta) do
    ()
  done

(* ------------------------------ snapshots ---------------------------- *)

type snapshot = { owner : t; st : gen_state; mutable closed : bool }

let open_at_checkpoint t =
  match t.retained with
  | [] -> invalid_arg "Shadow.open_at_checkpoint: no checkpoint yet"
  | st :: _ ->
      st.pins <- st.pins + 1;
      Counter.incr t.stats.snap_opens;
      { owner = t; st; closed = false }

let snapshot_gen s = s.st.gen
let snapshot_op s = s.st.op
let snapshot_meta s = s.st.meta
let snapshot_lsn s = s.st.cut_lsn
let snapshot_alloc s = s.st.alloc
let snapshot_pages s = Array.length s.st.entries - 1

(* The page's committed-at-flip bytes (a fresh copy), charged as a read
   of its frozen physical block; [None] for a page outside the
   generation (allocated after the flip) or never materialised in it. *)
let read s page =
  if s.closed then invalid_arg "Shadow.read: snapshot closed";
  let t = s.owner in
  if page <= 0 || page >= Array.length s.st.entries then None
  else begin
    Counter.incr t.stats.snap_reads;
    let e = s.st.entries.(page) in
    let done_at =
      Disk_model.read (Buffer_pool.disks t.pool) ~disk:e.Page_map.disk
        ~phys:e.Page_map.phys ()
    in
    Clock.advance_to t.clock done_at;
    match s.st.images.(page) with
    | Some (b, _) -> Some (Bytes.copy b)
    | None -> (
        (* never logged since the flip: the current durable image still
           holds the flip-time bytes (write-backs of an untouched page
           are content-identical) *)
        match Wal.durable_image t.wal page with
        | Some (b, _) -> Some b
        | None -> None)
  end

let close s =
  if not s.closed then begin
    s.closed <- true;
    s.st.pins <- s.st.pins - 1;
    Counter.incr s.owner.stats.snap_closes;
    retire_unpinned s.owner
  end

(* ------------------------------ recovery ----------------------------- *)

let set_crash_point t cp = t.crash_point <- cp

(* Reboot from the durable state: load the newest valid (superblock,
   table) pair — stepping back a generation past any damage — restore
   the checkpointed mapping, replay the WAL from the table's cut, then
   re-baseline with a fresh checkpoint.  With both superblocks
   unreadable, plain WAL recovery is the safety net. *)
let recover t =
  let t0 = Clock.now t.clock in
  Page_store.set_remapper t.store None;
  t.progress <- None;
  t.crash_point <- None;
  let result =
    match Page_map.load t.map with
    | Some (tb, _fallbacks) ->
        Counter.incr t.stats.recoveries;
        (* the loaded generation's frozen images: its retained state if we
           still hold it (the simulation's stand-in for reading the
           frozen blocks, which copy-on-write kept intact) *)
        let images =
          match
            List.find_opt (fun st -> st.gen = tb.Page_map.gen) t.retained
          with
          | Some st -> st.images
          | None -> [||]
        in
        let total = Page_store.total_pages t.store in
        Array.iteri
          (fun id e ->
            if id > 0 && id <= total then
              Page_store.relocate t.store id ~disk:e.Page_map.disk
                ~phys:e.Page_map.phys)
          tb.Page_map.entries;
        let load_page id =
          if id >= Array.length tb.Page_map.entries then None
          else
            match if id < Array.length images then images.(id) else None with
            | Some _ as img -> img
            | None -> Wal.durable_image t.wal id
        in
        Wal.set_recovery_base t.wal
          (Some
             {
               Wal.load_page;
               base_marks = tb.Page_map.marks;
               base_alloc = tb.Page_map.alloc;
             });
        let r = Wal.recover t.wal in
        Wal.set_recovery_base t.wal None;
        t.current_gen <- tb.Page_map.gen + 1;
        (* a crash between the superblock flip and the WAL checkpoint
           record can leave no post-cut commit to scan: the table itself
           then carries the newest committed operation *)
        if r.Wal.committed_ops >= tb.Page_map.op then r
        else
          { r with Wal.committed_ops = tb.Page_map.op; meta = tb.Page_map.meta }
    | None ->
        Counter.incr t.stats.plain_recoveries;
        Wal.set_recovery_base t.wal None;
        let r = Wal.recover t.wal in
        t.current_gen <- t.current_gen + 1;
        r
  in
  (* block refcounts and generation images died with the machine; the
     free-block lists rebuild from the restored mapping *)
  Page_store.rebuild_free_blocks t.store;
  Array.fill t.table_refs 0 (Array.length t.table_refs) [||];
  Array.fill t.page_gen 0 (Array.length t.page_gen) 0;
  t.retained <- [];
  Page_store.set_remapper t.store (Some (fun id -> remap t id));
  checkpoint_sync t ~meta:result.Wal.meta;
  { result with Wal.recovery_ns = Clock.now t.clock - t0 }

(* ------------------------------ lifecycle ---------------------------- *)

let attach ~meta wal pool =
  let store = Buffer_pool.store pool in
  let sim = Buffer_pool.sim pool in
  let clock = sim.Sim.clock in
  let t =
    {
      wal;
      pool;
      store;
      clock;
      map = Page_map.create ~page_size:(Page_store.page_size store) clock;
      current_gen = 1;
      page_gen = [||];
      table_refs = Array.make (Disk_model.n_disks (Buffer_pool.disks pool)) [||];
      retained = [];
      spare = [];
      progress = None;
      crash_point = None;
      backpressure = None;
      flip_stall = Histogram.make "ckpt.flip_stall_ns";
      stats =
        {
          begins = Counter.make "ckpt.begins";
          flips = Counter.make "ckpt.flips";
          hardened = Counter.make "ckpt.pages_hardened";
          captures = Counter.make "ckpt.captures";
          retired = Counter.make "ckpt.retired_gens";
          recoveries = Counter.make "ckpt.recoveries";
          plain_recoveries = Counter.make "ckpt.plain_recoveries";
          remaps = Counter.make "pagemap.remaps";
          blocks_allocated = Counter.make "pagemap.blocks_allocated";
          blocks_freed = Counter.make "pagemap.blocks_freed";
          snap_opens = Counter.make "snapshot.opens";
          snap_reads = Counter.make "snapshot.reads";
          snap_closes = Counter.make "snapshot.closes";
          yields = Counter.make "ckpt.yields";
        };
    }
  in
  Page_store.set_remapper store (Some (fun id -> remap t id));
  Wal.set_pre_log_observer wal (Some (capture t));
  checkpoint_sync t ~meta;
  t

let detach t =
  Page_store.set_remapper t.store None;
  Wal.set_pre_log_observer t.wal None

let wal t = t.wal
let map t = t.map
let set_backpressure t f = t.backpressure <- f
let current_generation t = t.current_gen
let retained_generations t = List.map (fun st -> st.gen) t.retained

(* Newest LSN below the oldest retained generation's cut: log records at
   or below it fall under the retention floor (0 before any flip).  A
   shipping archive may trim itself to this — a replica lagging past it
   must bootstrap from a snapshot instead of log replay. *)
let retention_lsn t =
  match List.rev t.retained with [] -> 0 | oldest :: _ -> oldest.cut_lsn
let flip_stall t = t.flip_stall
let stats t = t.stats

let counters t =
  [
    t.stats.begins; t.stats.flips; t.stats.hardened; t.stats.captures;
    t.stats.retired; t.stats.recoveries; t.stats.plain_recoveries;
    t.stats.remaps; t.stats.blocks_allocated; t.stats.blocks_freed;
    t.stats.snap_opens; t.stats.snap_reads; t.stats.snap_closes;
    t.stats.yields;
  ]

let kv t = List.map Counter.kv (counters t) @ Page_map.kv t.map

let reset_stats t =
  List.iter Counter.reset (counters t);
  Histogram.reset t.flip_stall;
  Page_map.reset_stats t.map
