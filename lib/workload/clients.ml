(** Closed-loop entry point kept for the benchmark harness: [n_clients]
    clients, [ops_per_client] ops each, per-op service.  A thin adapter
    over {!Driver.run}; new callers use {!Driver} directly. *)

include Driver.Stats

let run ~sim ~n_clients ~ops_per_client op =
  Driver.run ~sim
    (Driver.config ~n_clients (Driver.Closed { ops_per_client }))
    (Driver.each op)
