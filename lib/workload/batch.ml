(** Batch-server entry point kept for the benchmark harness: one client
    fed by an open-loop Poisson schedule, dispatching under the
    size-or-timeout rule.  [exec] gets each batch's ops in arrival
    order.  A thin adapter over {!Driver.run}; new callers use {!Driver}
    directly. *)

include Driver.Stats

let run ~sim ~n_ops ~rate_ops_per_s ?seed ~batch ~batch_wait_ns exec =
  Driver.run ~sim
    (Driver.config ~batch ~batch_wait_ns ?seed
       (Driver.open_loop ~n_ops rate_ops_per_s))
    (fun ~client:_ seqs -> exec seqs)
