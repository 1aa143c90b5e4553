(** Hardware parameters of the simulated memory hierarchy (paper, Table 1).
    All latencies are in cycles; the simulated clock runs at 1 GHz so one
    cycle is one nanosecond. *)

type t = {
  line_size : int;  (** cache line size in bytes; power of two *)
  l1_size : int;  (** primary data cache capacity in bytes *)
  l1_assoc : int;  (** primary data cache associativity *)
  l2_size : int;  (** unified secondary cache capacity in bytes *)
  l2_latency : int;  (** primary-to-secondary miss latency, cycles *)
  mem_latency : int;  (** primary-to-memory miss latency (T1), cycles *)
  mem_gap : int;  (** gap between pipelined memory accesses (Tnext) *)
  miss_handlers : int;  (** max outstanding data misses/prefetches *)
}

(** The Compaq ES40-like configuration used throughout the paper. *)
val default : t

(** [log2 line_size], for address-to-line arithmetic. *)
val line_shift : t -> int
