(** CRC-32 (IEEE 802.3, reflected polynomial [0xEDB88320]): the page
    checksum the storage layer stamps on every written-back page and
    verifies on every disk read, and the WAL frames every log record
    with.

    On x86-64 CPUs with PCLMULQDQ and SSE4.1 (asked once, at module
    initialisation), [update] folds the 16-byte blocks of a span of at
    least 64 bytes by carry-less multiplication and finishes the last
    [len mod 16] bytes with a slicing-by-8 table loop; shorter spans, and
    every span on other CPUs, take the table loop alone.  Both paths give
    bit-identical results, and nothing but the CPU chooses between them.
    The simulated machine pays for checksums through
    [Cost_model.crc_bytes_per_cycle], not through the host time spent
    here. *)

(** [update crc b off len] folds [len] bytes of [b] starting at [off]
    into a running 32-bit checksum ([0] to start a fresh one).

    @raise Invalid_argument if [off] and [len] do not designate a valid
    range of [b]. *)
val update : int -> Bytes.t -> int -> int -> int

(** [update_portable] is [update] through the table loop alone: the
    path CPUs without carry-less multiply take, callable on every host so
    that tests check it there too.

    @raise Invalid_argument as [update] does. *)
val update_portable : int -> Bytes.t -> int -> int -> int

(** Checksum of a whole buffer. *)
val bytes : Bytes.t -> int

val string : string -> int
