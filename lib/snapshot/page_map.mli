(** Persistence layer of the shadow-paging subsystem: the logical→physical
    indirection table and the superblock that names the live generation,
    stored dual-slotted on a dedicated metadata disk.

    A checkpoint generation [G] writes its encoded table to table slot
    [G land 1] (the slot the previous generation does {e not} occupy) and
    then flips by writing one fixed-size superblock sector — also slot
    [G land 1] — naming the generation, the table's slot, its length and
    its CRC-32.  A crash mid-table-write can only damage a superseded
    slot; a torn superblock fails its own CRC and {!load} falls back to
    the other sector, i.e. the previous complete generation.  All I/O is
    charged to the simulated clock, so the flip's durability wait is real
    simulated time. *)

(** One table entry: where logical page [id] (the array index) lives and
    the LSN its durable image there reflects. *)
type entry = { disk : int; phys : int; lsn : int }

(** A complete checkpointed indirection table. *)
type table = {
  gen : int;  (** generation number, monotonically increasing *)
  entries : entry array;  (** index = page id; slot 0 is a dummy *)
  marks : int array;  (** per-stripe WAL offsets of the checkpoint's cut *)
  alloc : int * int list;  (** (total pages, free list) at the cut *)
  op : int;  (** last committed operation at the flip *)
  meta : int list;  (** index root metadata at the flip *)
}

(** Damage target for the chaos harness: a table slot or a superblock
    sector (0 or 1). *)
type target = Table of int | Superblock of int

type damage =
  | Zero_span of { off : int; len : int }
  | Flip_bit of { off : int; bit : int }

type t

val create : page_size:int -> Fpb_simmem.Clock.t -> t

(** Serialize a table: little-endian 32-bit fields, magic-framed, with a
    trailing CRC-32 of the body. *)
val encode_table : table -> Bytes.t

(** CRC-32 stored in a table blob's trailer (recorded redundantly in the
    superblock so a blob can never be paired with the wrong one). *)
val table_crc : Bytes.t -> int

(** Decode the table blob occupying the first [len] bytes of the buffer;
    [None] on any framing, bounds or checksum violation. *)
val decode_table : Bytes.t -> len:int -> table option

(** Write [blob] into table slot [slot], charged as one coalesced
    sequential write and waited for.  [len] (crash injection) persists
    only that prefix, leaving the slot's previous bytes beyond it — a
    torn multi-sector write. *)
val write_table : t -> slot:int -> ?len:int -> Bytes.t -> unit

(** Flip: write generation [gen]'s superblock to sector [gen land 1] and
    wait for it.  [torn] (crash injection) persists only the first half
    of the sector, so its CRC cannot validate. *)
val write_superblock :
  t -> gen:int -> slot:int -> table_len:int -> crc:int -> ?torn:bool ->
  unit -> unit

(** Read back the live generation: both superblocks, candidates ordered
    by generation descending, each validated (superblock CRC, table
    decode, table CRC, generation cross-check) before being trusted.
    Returns the newest valid table and how many candidates were stepped
    past ([pagemap.superblock_fallbacks]); [None] when neither slot holds
    a valid (superblock, table) pair — recover from the WAL alone. *)
val load : t -> (table * int) option

(** Deterministically rot persisted metadata bytes in place (the chaos
    harness's superblock/table-region fault leg).  No-op on a slot never
    written. *)
val inject_damage : t -> target -> damage -> unit

(** The [pagemap.*] counters. *)
val counters : t -> Fpb_obs.Counter.t list

val kv : t -> (string * int) list
val reset_stats : t -> unit
