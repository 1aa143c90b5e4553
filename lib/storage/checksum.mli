(** CRC-32 (IEEE 802.3, reflected polynomial [0xEDB88320]): the page
    checksum the storage layer stamps on every written-back page and
    verifies on every disk read, and the WAL frames every log record
    with.  Computed word-at-a-time (slicing-by-8); the simulated machine
    pays for checksums through [Cost_model.crc_bytes_per_cycle], not
    through the host time spent here. *)

(** [update crc b off len] folds [len] bytes of [b] starting at [off]
    into a running 32-bit checksum ([0] to start a fresh one).

    @raise Invalid_argument if [off] and [len] do not designate a valid
    range of [b]. *)
val update : int -> Bytes.t -> int -> int -> int

(** Checksum of a whole buffer. *)
val bytes : Bytes.t -> int

val string : string -> int
