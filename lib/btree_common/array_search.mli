(** Binary search over contiguous little-endian int32 key arrays in
    simulated memory.  Charged variants drive the cache and cost models
    (one comparison charge and one memory access per probe). *)

open Fpb_simmem

(** First index i in [0, n) with a(i) >= key; n if none. *)
val lower_bound : Sim.t -> Mem.region -> off:int -> n:int -> key:int -> int

(** First index i in [0, n) with a(i) > key; n if none. *)
val upper_bound : Sim.t -> Mem.region -> off:int -> n:int -> key:int -> int
