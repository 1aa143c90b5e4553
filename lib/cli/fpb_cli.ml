(* Command-line terms shared by [fpb] and the benchmark harness. *)

open Cmdliner

(* --tiny / --full pick the experiment scale; Quick is the default. *)
let scale =
  let tiny = Arg.(value & flag & info [ "tiny" ] ~doc:"Smoke-test size") in
  let full = Arg.(value & flag & info [ "full" ] ~doc:"Paper size") in
  let scale tiny full =
    Fpb_experiments.Scale.(if full then Full else if tiny then Tiny else Quick)
  in
  Term.(const scale $ tiny $ full)

let json =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:"Also write the report as JSON to $(docv) (\"-\" for stdout)")

(* A registered experiment, named by its id or a unique prefix of it;
   anything else is a usage error. *)
let experiment =
  let open Fpb_experiments in
  let parse id =
    match Registry.find id with
    | Some e -> Ok e
    | None -> Error (`Msg ("unknown or ambiguous experiment id: " ^ id))
  in
  Arg.conv (parse, fun ppf e -> Format.pp_print_string ppf e.Registry.id)
