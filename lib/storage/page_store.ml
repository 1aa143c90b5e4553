(* The persistent page space: allocation, deallocation and the mapping of
   logical page IDs to (disk, physical page) locations.

   In this simulation the page contents always live in host memory (one
   [Bytes.t] per page); the buffer pool decides which pages count as
   memory-resident and charges simulated I/O for the rest.  Pages are
   striped round-robin across the disks in allocation order, so pages
   allocated consecutively (e.g. the leaves of a bulkload) are sequential
   on each disk, while pages allocated later (splits in a mature tree) land
   at the end of the physical space — exactly the layout drift the paper
   relies on for its range-scan experiments.

   Every page carries an out-of-band header — one CRC-32 per 512-byte
   sector plus the LSN of the newest change the stamped bytes reflect.  It
   models the per-sector header a checksumming disk (or a DIF-capable
   controller) would hold: it is (re)stamped whenever the page is written
   to disk and verified whenever the page is read back, so media
   corruption between a write and the next read is detected rather than
   silently served — and, because the CRCs are per sector, verification
   reports *which* sectors are damaged, which is what lets the WAL repair
   a torn sector by replaying only its span.  The header is held out of
   band so in-page layouts need no reserved bytes.

   Each page also owns the span of its bytes written through [Mem] since
   the WAL last logged it (see [Mem.Span]).  It lives here, not in a
   buffer frame, so it survives unpin, eviction and re-read.  A change
   made here, outside [Mem] (zero-fill on allocation), marks it whole.

   Page ID 0 is reserved as nil. *)

module Mem = Fpb_simmem.Mem

let sector_size = 512

type header = { mutable crcs : int array; mutable lsn : int }

type verdict =
  | Ok
  | Bad_crc of { bad_sectors : int list; lsn : int }

type t = {
  page_size : int;
  n_disks : int;
  pages : Bytes.t Vec.t;  (* index = page id; slot 0 unused *)
  headers : header Vec.t;  (* index = page id; out-of-band sector header *)
  spans : Mem.Span.t Vec.t;  (* index = page id; bytes written since logged *)
  location : (int * int) Vec.t;  (* page id -> (disk, phys) *)
  mutable free : int list;
  mutable allocated : int;  (* live pages *)
  next_phys : int array;  (* per disk *)
  free_phys : int list array;  (* per disk: reusable physical blocks *)
  mutable on_free : (int -> unit) list;  (* freed-page observers *)
  mutable remapper : (int -> unit) option;  (* shadow-paging write hook *)
}

let nil = 0

let create ~page_size ~n_disks =
  let pages = Vec.create ~dummy:Bytes.empty in
  let headers = Vec.create ~dummy:{ crcs = [||]; lsn = 0 } in
  let spans = Vec.create ~dummy:(Mem.Span.create ()) in
  let location = Vec.create ~dummy:(-1, -1) in
  Vec.push pages Bytes.empty;
  Vec.push headers { crcs = [||]; lsn = 0 };
  Vec.push spans (Mem.Span.create ());
  Vec.push location (-1, -1);
  { page_size; n_disks; pages; headers; spans; location; free = [];
    allocated = 0;
    next_phys = Array.make n_disks 0; free_phys = Array.make n_disks [];
    on_free = []; remapper = None }

let page_size t = t.page_size

(* Sectors per page (pages smaller than one sector are one sector).  An
   int compare, not [Stdlib.max]: that is an out-of-line polymorphic
   call, made on every [stamp] and [verify]. *)
let sectors_per_page t =
  let n = (t.page_size + sector_size - 1) / sector_size in
  if n > 1 then n else 1

(* CRC-32 of one sector's span of the page bytes. *)
let sector_crc t b s =
  let off = s * sector_size in
  let rest = t.page_size - off in
  Checksum.update 0 b off (if rest < sector_size then rest else sector_size)

(* Stamp the header with per-sector checksums of the page's current
   bytes: called on allocation (a zeroed page is born consistent) and on
   every write to disk, exactly when real sector headers are written. *)
let stamp ?(lsn = 0) t id =
  if id = nil then invalid_arg "Page_store.stamp: nil";
  let h = Vec.get t.headers id in
  let b = Vec.get t.pages id in
  let n = sectors_per_page t in
  if Array.length h.crcs <> n then h.crcs <- Array.make n 0;
  for s = 0 to n - 1 do
    h.crcs.(s) <- sector_crc t b s
  done;
  h.lsn <- lsn

(* Recompute per-sector checksums of the current bytes and compare with
   the stamped header: the read-path (and scrubber) corruption detector.
   [Bad_crc] names exactly the damaged sectors, enabling span repair. *)
let verify t id =
  if id = nil then invalid_arg "Page_store.verify: nil";
  let h = Vec.get t.headers id in
  let b = Vec.get t.pages id in
  let n = sectors_per_page t in
  if Array.length h.crcs <> n then Bad_crc { bad_sectors = []; lsn = h.lsn }
  else begin
    let bad = ref [] in
    for s = n - 1 downto 0 do
      if sector_crc t b s <> h.crcs.(s) then bad := s :: !bad
    done;
    if !bad = [] then Ok else Bad_crc { bad_sectors = !bad; lsn = h.lsn }
  end

let header_lsn t id = (Vec.get t.headers id).lsn

let alloc t =
  t.allocated <- t.allocated + 1;
  match t.free with
  | id :: rest ->
      t.free <- rest;
      Bytes.fill (Vec.get t.pages id) 0 t.page_size '\000';
      Mem.Span.mark_all (Vec.get t.spans id);
      stamp t id;
      id
  | [] ->
      let id = Vec.length t.pages in
      let disk = (id - 1) mod t.n_disks in
      let phys = t.next_phys.(disk) in
      t.next_phys.(disk) <- phys + 1;
      Vec.push t.pages (Bytes.create t.page_size |> fun b -> Bytes.fill b 0 t.page_size '\000'; b);
      Vec.push t.headers { crcs = [||]; lsn = 0 };
      let span = Mem.Span.create () in
      Mem.Span.mark_all span;
      Vec.push t.spans span;
      Vec.push t.location (disk, phys);
      stamp t id;
      id

(* Freed-page observers: the buffer pool registers one to drop any stale
   resident/dirty/in-flight state for the ID, so a free + realloc cycle can
   never resurrect old frame contents regardless of which layer initiated
   the free. *)
let add_on_free t f = t.on_free <- f :: t.on_free

let free t id =
  if id = nil then invalid_arg "Page_store.free: nil";
  t.allocated <- t.allocated - 1;
  t.free <- id :: t.free;
  List.iter (fun f -> f id) t.on_free

let free_list t = t.free

(* Force the allocator to an externally reconstructed state (crash
   recovery restoring the committed allocation map).  Pages on the new
   free list are zeroed and re-stamped like any freed-then-reused page;
   observers run so the buffer pool drops stale frames. *)
let set_free_list t ids =
  List.iter
    (fun id ->
      if id <= 0 || id >= Vec.length t.pages then
        invalid_arg "Page_store.set_free_list: unknown page")
    ids;
  t.free <- ids;
  t.allocated <- Vec.length t.pages - 1 - List.length ids;
  List.iter
    (fun id ->
      Bytes.fill (Vec.get t.pages id) 0 t.page_size '\000';
      Mem.Span.mark_all (Vec.get t.spans id);
      stamp t id;
      List.iter (fun f -> f id) t.on_free)
    ids

(* Is [id] currently allocated?  Used by the paced scrubber, which walks
   IDs incrementally instead of snapshotting the whole live set. *)
let is_live t id =
  id >= 1 && id < Vec.length t.pages && not (List.mem id t.free)

(* Live (allocated) pages in id order: the scrubber's walk order. *)
let iter_live t f =
  let free = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace free id ()) t.free;
  for id = 1 to Vec.length t.pages - 1 do
    if not (Hashtbl.mem free id) then f id
  done

let bytes t id =
  if id = nil then invalid_arg "Page_store.bytes: nil";
  Vec.get t.pages id

let span t id = Vec.get t.spans id
let rewritten t id = Mem.Span.mark_all (Vec.get t.spans id)
let location t id = Vec.get t.location id

(* --- Physical-block management for shadow paging. ---------------------

   By default the logical->physical mapping is the identity-ish round
   robin fixed at allocation, but a shadow-paging layer can manage
   physical blocks itself: allocate fresh blocks, point a logical page at
   a new block (copy-on-write relocation), and return superseded blocks
   for reuse.  The store keeps a per-disk free-block list so relocation
   does not leak physical space across checkpoint generations. *)

(* Allocate a physical block on [disk]: reuse a freed block if one is
   available, else extend the disk (high-water mark grows). *)
let alloc_block t ~disk =
  match t.free_phys.(disk) with
  | phys :: rest ->
      t.free_phys.(disk) <- rest;
      phys
  | [] ->
      let phys = t.next_phys.(disk) in
      t.next_phys.(disk) <- phys + 1;
      phys

(* Return a physical block for reuse (no logical page may still map to
   it — the shadow layer's refcounts guarantee that). *)
let free_block t ~disk ~phys = t.free_phys.(disk) <- phys :: t.free_phys.(disk)

(* Point logical page [id] at a new physical block.  The old block is NOT
   freed here: under shadow paging it may still back a checkpointed
   image, so ownership transfers to the caller. *)
let relocate t id ~disk ~phys =
  if id = nil then invalid_arg "Page_store.relocate: nil";
  Vec.set t.location id (disk, phys)

(* Rebuild the per-disk free-block lists from the live mapping: every
   block below a disk's high-water mark not referenced by any page's
   current location becomes reusable.  Crash recovery calls this after
   restoring the checkpointed mapping, when the shadow layer's block
   refcounts died with the machine. *)
let rebuild_free_blocks t =
  let used = Hashtbl.create 256 in
  for id = 1 to Vec.length t.pages - 1 do
    Hashtbl.replace used (Vec.get t.location id) ()
  done;
  for disk = 0 to t.n_disks - 1 do
    let acc = ref [] in
    for phys = t.next_phys.(disk) - 1 downto 0 do
      if not (Hashtbl.mem used (disk, phys)) then acc := phys :: !acc
    done;
    t.free_phys.(disk) <- !acc
  done

(* Install (or clear) the copy-on-write remapper.  When set, it runs
   before every location lookup made for a disk WRITE (see
   [write_location]); the shadow layer uses it to relocate the page to a
   fresh block on its first write after a checkpoint, so the
   checkpointed image is never overwritten in place. *)
let set_remapper t f = t.remapper <- f

(* Location to write the page at: gives the remapper a chance to
   copy-on-write-relocate first.  Every path that writes a page image to
   disk must use this instead of [location]. *)
let write_location t id =
  (match t.remapper with None -> () | Some f -> f id);
  Vec.get t.location id

(* Inverse of [location] under round-robin allocation: the page currently
   mapped at (disk, phys), or nil if none was ever allocated there.  Used
   by sequential readahead. *)
let page_at t ~disk ~phys =
  let id = (phys * t.n_disks) + disk + 1 in
  if id < Vec.length t.pages && Vec.get t.location id = (disk, phys) then id
  else nil

(* Number of live (allocated, unfreed) pages: the paper's space metric. *)
let live_pages t = t.allocated

(* Total pages ever allocated (high-water mark of the physical space). *)
let total_pages t = Vec.length t.pages - 1
