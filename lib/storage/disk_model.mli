(** Discrete-event model of a farm of independent disks.

    Each disk serves requests one at a time in submission order.  A
    request costs a positioning overhead (seek + rotational latency) plus
    the page transfer time; a request for the physical page immediately
    following the previous one served by the same disk pays only the
    transfer (sequential access).

    A disk may carry a {!Fault.profile}: reads and writes then draw from
    a deterministic seeded schedule and can fail transiently, fail
    persistently (latent sector errors, cleared by the next write to the
    location), or silently return corrupted bytes.  The model only
    decides {e what happened}; the caller owns the page bytes and applies
    any corruption spec itself. *)

type t

(** How a corrupt read mangled the returned bytes.  Offsets are raw
    hashes; callers reduce them mod their page size.  [Torn_sector off]
    zeroes the 512-byte span starting at [off]. *)
type corruption = Bit_flips of (int * int) list | Torn_sector of int

type read_outcome =
  | Read_ok of int  (** completion time (absolute ns) *)
  | Read_corrupt of int * corruption
      (** transfer "succeeded" but the bytes are wrong — detectable only
          by checksum *)
  | Read_error of int * [ `Transient | `Latent ]
      (** the error is discovered at the completion time: the disk spent
          the service time before failing *)

(** 8 ms positioning: the paper's Seagate Cheetah 4LP-class disks. *)
val default_seek_ns : int

(** Transfer time at 40 MB/s. *)
val transfer_ns_of_page_size : int -> int

(** [request_overhead_ns] (default 0) is a fixed per-request controller
    cost added to every read/write request, whatever its size: it is
    what makes coalescing adjacent writes into one request
    ({!write_run}) worth measuring. *)
val create :
  ?request_overhead_ns:int ->
  transfer_ns:int ->
  n_disks:int ->
  Fpb_simmem.Clock.t ->
  t

val n_disks : t -> int

(** Arm (or with [None] disarm) fault injection on one disk or, without
    [disk], on the whole farm.  Arming resets the disk's fault history
    (access counts, pending transients, latent sectors). *)
val set_faults : t -> ?disk:int -> Fault.profile option -> unit

(** Submit a read starting no earlier than [earliest] (default: now);
    returns its completion time (absolute ns).  The caller decides whether
    to wait.  Never draws faults — the WAL's log disk uses this; demand
    reads go through {!read_result}. *)
val read : t -> ?earliest:int -> disk:int -> phys:int -> unit -> int

(** Submit a read through the fault schedule.  The disk charges its busy
    time whether or not the request then fails. *)
val read_result :
  t -> ?earliest:int -> disk:int -> phys:int -> unit -> read_outcome

(** Submit an asynchronous write-back; never waited on.  A write repairs
    the location's media state (latent sectors are remapped); a transient
    write failure is absorbed by a controller retry, charged as a second
    service. *)
val write : t -> disk:int -> phys:int -> unit

(** Submit a write and return its completion time (absolute ns), for
    callers that must wait for durability (e.g. a WAL group flush).
    [append] (default false) marks a log-style append: a request
    continuing on the {e same} physical page as the disk's previous one
    also skips positioning — small records packing into one page of an
    append-only log never move the head. *)
val write_sync :
  t -> ?earliest:int -> ?append:bool -> disk:int -> phys:int -> unit -> int

(** Submit [n] physically contiguous pages starting at [phys] as one
    coalesced write request: positioning and the per-request overhead
    are paid once plus [n] transfers.  Every covered page still draws
    its own write fault; [disk.writes] counts all [n] pages (matching
    the per-page path) and [disk.write_runs] counts the one request.
    Returns the completion time (absolute ns). *)
val write_run : t -> ?earliest:int -> disk:int -> phys:int -> n:int -> unit -> int

val reads : t -> int
val writes : t -> int

(** Coalesced multi-page write requests issued via {!write_run}. *)
val write_runs : t -> int

(** Completion time (absolute ns) of the last submitted request across
    the farm: a durability barrier — e.g. a sharp checkpoint's data
    fsync — waits until here. *)
val drain : t -> int

(** The underlying named counters ([disk.reads], [disk.writes],
    [disk.busy_ns] in simulated nanoseconds, and the injection tallies
    [disk.fault.transient_read], [disk.fault.transient_write],
    [disk.fault.latent], [disk.fault.corrupt]). *)
val counters : t -> Fpb_obs.Counter.t list

(** Current values as [(name, value)] pairs. *)
val kv : t -> (string * int) list

val reset_stats : t -> unit

(** Forget positioning state and pending work (between experiments).
    Media fault state persists: damage does not heal because an
    experiment ended. *)
val quiesce : t -> unit
