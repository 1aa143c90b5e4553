(* Hardware parameters of the simulated memory hierarchy (paper, Table 1).
   All latencies are in cycles; the simulated clock runs at 1 GHz so one
   cycle is one nanosecond. *)

type t = {
  line_size : int;  (* cache line size in bytes; power of two *)
  l1_size : int;  (* primary data cache capacity in bytes *)
  l1_assoc : int;  (* primary data cache associativity *)
  l2_size : int;  (* unified secondary cache capacity in bytes *)
  l2_latency : int;  (* primary-to-secondary miss latency, cycles *)
  mem_latency : int;  (* primary-to-memory miss latency (T1), cycles *)
  mem_gap : int;  (* gap between pipelined memory accesses (Tnext) *)
  miss_handlers : int;  (* max outstanding data misses/prefetches *)
}

(* The Compaq ES40-like configuration used throughout the paper. *)
let default =
  {
    line_size = 64;
    l1_size = 64 * 1024;
    l1_assoc = 2;
    l2_size = 2 * 1024 * 1024;
    l2_latency = 15;
    mem_latency = 150;
    mem_gap = 10;
    miss_handlers = 32;
  }

let line_shift t =
  let rec go n shift = if n <= 1 then shift else go (n lsr 1) (shift + 1) in
  go t.line_size 0
