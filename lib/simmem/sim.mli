(** Simulation context bundling the clock, cache model, cost model and
    statistics.  Everything that "executes" on the simulated machine
    charges cycles through this context. *)

type t = {
  cfg : Config.t;
  cost : Cost_model.t;
  clock : Clock.t;
  stats : Stats.t;
  cache : Cache.t;
}

val create : unit -> t

(** Charge busy cycles: advances the clock and the busy counter. *)
val charge_busy : t -> int -> unit

val busy_compare : t -> unit
val busy_node : t -> unit
val busy_bufcall : t -> unit
val busy_op : t -> unit

(** Charge the CPU cost of checksumming [bytes] bytes
    ({!Cost_model.crc_cycles}). *)
val busy_crc : t -> bytes:int -> unit

(** Clear caches and in-flight prefetches (the paper's "all caches are
    cleared before the first search"). *)
val flush_cache : t -> unit

val reset_stats : t -> unit

(** Current simulated time in nanoseconds/cycles. *)
val now : t -> int
