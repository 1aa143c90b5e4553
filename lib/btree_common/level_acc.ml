(* Per-level node-access accounting shared by every index: the counters
   behind [Index_sig.S.level_accesses] and the [node_access] events of an
   attached trace.  Host-side bookkeeping, uncharged. *)

open Fpb_simmem

type t = {
  sim : Sim.t;
  counts : int array;  (* accesses by depth, slot 0 = root *)
  mutable trace : Fpb_obs.Trace.t option;
}

(* Deeper than any tree the 62-bit key space can produce. *)
let max_levels = 16

let create sim = { sim; counts = Array.make max_levels 0; trace = None }
let counts a ~levels = Array.sub a.counts 0 levels
let reset a = Array.fill a.counts 0 max_levels 0
let set_trace a tr = a.trace <- tr

let bump a depth =
  if depth <= max_levels then a.counts.(depth - 1) <- a.counts.(depth - 1) + 1

let stall_now a = Fpb_obs.Counter.value a.sim.Sim.stats.Stats.stall

(* Record one node visit: bump the per-level counter and, if a trace is
   attached, emit a [node_access] event with the cache-stall cycles this
   visit incurred ([stall0] = stall counter before the visit). *)
let note a ~page ~depth ~stall0 =
  bump a depth;
  match a.trace with
  | None -> ()
  | Some tr ->
      Fpb_obs.Trace.emit tr "node_access"
        [
          ("level", Fpb_obs.Json.Int depth);
          ("page", Fpb_obs.Json.Int page);
          ("stall_cycles", Fpb_obs.Json.Int (stall_now a - stall0));
        ]
