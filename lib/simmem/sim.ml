(* Simulation context bundling the clock, cache model, cost model and
   statistics.  Everything that "executes" on the simulated machine charges
   cycles through this context. *)

type t = {
  cfg : Config.t;
  cost : Cost_model.t;
  clock : Clock.t;
  stats : Stats.t;
  cache : Cache.t;
}

let create () =
  let cfg = Config.default in
  let clock = Clock.create () in
  let stats = Stats.create () in
  { cfg; cost = Cost_model.default; clock; stats; cache = Cache.create cfg clock stats }

let charge_busy t cycles =
  if cycles > 0 then begin
    Fpb_obs.Counter.add t.stats.Stats.busy cycles;
    Clock.advance t.clock cycles
  end

let busy_compare t = charge_busy t t.cost.Cost_model.c_compare
let busy_node t = charge_busy t t.cost.Cost_model.c_node
let busy_bufcall t = charge_busy t t.cost.Cost_model.c_bufcall
let busy_op t = charge_busy t t.cost.Cost_model.c_op

(* CPU work of checksumming [bytes] bytes (CRC compute or verify): the
   detect/repair machinery shows up in cache results, not just I/O. *)
let busy_crc t ~bytes = charge_busy t (Cost_model.crc_cycles t.cost ~bytes)

(* Clear caches and in-flight prefetches (used between experiments, like the
   paper's "all caches are cleared before the first search"). *)
let flush_cache t = Cache.flush t.cache
let reset_stats t = Stats.reset t.stats
let now t = Clock.now t.clock
