(** The persistent page space: allocation, deallocation, and the mapping
    of logical page IDs to (disk, physical page) locations.  Pages are
    striped round-robin across disks in allocation order, so bulkloaded
    leaves are sequential per disk while later splits land at the end of
    the physical space — the layout drift the paper's range-scan
    experiments rely on.  Page contents live in host memory; the buffer
    pool decides what counts as resident.

    Every page carries an out-of-band header — one CRC-32 per 512-byte
    sector plus the LSN the stamped bytes reflect — modelling the
    per-sector headers a checksumming disk would hold.  {!stamp} rewrites
    it on every disk write; {!verify} recomputes and compares on every
    disk read, so media corruption between a write and the next read is
    detected rather than silently served, and the damaged sectors are
    named so repair can replay only their spans. *)

type t

(** The reserved nil page ID (0). *)
val nil : int

(** Checksum granularity in bytes (512, one disk sector). *)
val sector_size : int

(** Result of a {!verify}: [Bad_crc] names the sector indexes whose
    stored checksum disagrees with the bytes present ([] only in the
    degenerate never-stamped case) and the stamped LSN. *)
type verdict =
  | Ok
  | Bad_crc of { bad_sectors : int list; lsn : int }

val create : page_size:int -> n_disks:int -> t
val page_size : t -> int

(** Allocate a zeroed page (reuses freed IDs first); its header is
    stamped so a fresh page always verifies. *)
val alloc : t -> int

(** Return a page to the free list.  Registered {!add_on_free} observers
    run after the store forgets the page. *)
val free : t -> int -> unit

(** Register an observer called with every freed page ID; the buffer pool
    uses this to invalidate stale resident/dirty state so a free + realloc
    cycle can never resurrect old frame contents. *)
val add_on_free : t -> (int -> unit) -> unit

(** Re-stamp the page's header from its current bytes, recording [lsn]
    (default 0) as the newest change they reflect.  Called by whoever
    writes the page to disk. *)
val stamp : ?lsn:int -> t -> int -> unit

(** Recompute the checksum of the page's current bytes against the
    stamped header. *)
val verify : t -> int -> verdict

(** LSN recorded by the last {!stamp}. *)
val header_lsn : t -> int -> int

(** Current free list (most recently freed first). *)
val free_list : t -> int list

(** Force the allocator to an externally reconstructed state (crash
    recovery restoring the committed allocation map).  Pages on the new
    free list are zeroed and re-stamped; free observers run for each. *)
val set_free_list : t -> int list -> unit

(** Iterate over live (allocated, unfreed) page IDs in increasing order:
    the scrubber's walk. *)
val iter_live : t -> (int -> unit) -> unit

(** Whether [id] is currently allocated (the paced scrubber's incremental
    liveness probe). *)
val is_live : t -> int -> bool

(** Backing bytes of a page (shared, not copied).  A caller that changes
    them must then call {!rewritten}. *)
val bytes : t -> int -> Bytes.t

(** The page's span of bytes written through [Mem] since the WAL last
    logged it; the buffer pool hands it to every region of the page. *)
val span : t -> int -> Fpb_simmem.Mem.Span.t

(** Mark the whole page written: its bytes changed outside [Mem]
    (corruption, repair, redo, a restored image), so the WAL's next
    delta must diff all of it. *)
val rewritten : t -> int -> unit

(** (disk, physical page number) of a page. *)
val location : t -> int -> int * int

(** Location to write the page at: runs the registered copy-on-write
    remapper (if any) before the lookup, so a shadow-paging layer can
    relocate the page to a fresh block on its first write after a
    checkpoint.  Every disk-write path must use this, not {!location}. *)
val write_location : t -> int -> int * int

(** Install (or clear) the copy-on-write remapper consulted by
    {!write_location}. *)
val set_remapper : t -> (int -> unit) option -> unit

(** Allocate a physical block on [disk] (reuses freed blocks first, else
    extends the disk).  Shadow-paging support. *)
val alloc_block : t -> disk:int -> int

(** Return a physical block for reuse.  The caller guarantees no logical
    page or retained checkpoint still references it. *)
val free_block : t -> disk:int -> phys:int -> unit

(** Point logical page [id] at a new physical block.  Ownership of the
    old block transfers to the caller (it may still back a checkpointed
    image). *)
val relocate : t -> int -> disk:int -> phys:int -> unit

(** Rebuild the per-disk free-block lists from the live mapping: every
    block below a disk's high-water mark not referenced by any page's
    current location becomes reusable.  For crash recovery, after the
    checkpointed mapping is restored. *)
val rebuild_free_blocks : t -> unit

(** Inverse of [location]: the page at (disk, phys), or [nil]. *)
val page_at : t -> disk:int -> phys:int -> int

(** Live (allocated, unfreed) pages: the paper's space metric. *)
val live_pages : t -> int

(** High-water mark of the physical space. *)
val total_pages : t -> int
