(** Command-line terms shared by [fpb] and the benchmark harness. *)

(** [--tiny] / [--full]: the experiment scale, {!Fpb_experiments.Scale.Quick}
    when neither is given. *)
val scale : Fpb_experiments.Scale.t Cmdliner.Term.t

(** [--json PATH]: where to also write the JSON report (["-"] for
    stdout). *)
val json : string option Cmdliner.Term.t

(** An experiment id or a unique prefix of one
    ({!Fpb_experiments.Registry.find}); an unknown or ambiguous id is a
    usage error. *)
val experiment : Fpb_experiments.Registry.entry Cmdliner.Arg.conv
