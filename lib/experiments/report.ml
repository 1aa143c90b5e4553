(* BENCH_results.json builder (schema: docs/OBSERVABILITY.md).

   {
     "schema_version": 1,
     "run": { "timestamp", "scale", "ocaml_version", "hostname" },
     "experiments": [
       { "id", "describes", "wall_s",
         "metrics": { "counters": {...}, "histograms": {...} },
         "tables": [ { "id", "title", "header", "rows" } ] } ],
     "bechamel": [ { "name", "ns_per_op" } ]   // [] unless benched
   } *)

module J = Fpb_obs.Json

let table_json (t : Table.t) =
  let strs l = J.List (List.map (fun s -> J.Str s) l) in
  J.Obj
    [
      ("id", J.Str t.Table.id);
      ("title", J.Str t.title);
      ("header", strs t.header);
      ("rows", J.List (List.map strs t.rows));
    ]

let outcome_json (o : Registry.outcome) =
  J.Obj
    ([
       ("id", J.Str o.Registry.entry.Registry.id);
       ("describes", J.Str o.entry.describes);
       ("wall_s", J.Float o.wall_s);
       ("metrics", Fpb_obs.Registry.to_json o.metrics);
       ("tables", J.List (List.map table_json o.tables));
     ]
    @ match o.aborted with
      | Some why -> [ ("aborted", J.Str why) ]
      | None -> [])

(* The current time as an ISO-8601 UTC timestamp. *)
let now () =
  let t = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let make ~scale ?(timestamp = now ()) ?(bechamel = []) outcomes =
  J.Obj
    [
      ("schema_version", J.Int 1);
      ( "run",
        J.Obj
          [
            ("timestamp", J.Str timestamp);
            ("scale", J.Str (Scale.to_string scale));
            ("ocaml_version", J.Str Sys.ocaml_version);
            ("hostname", J.Str (Unix.gethostname ()));
          ] );
      ("experiments", J.List (List.map outcome_json outcomes));
      ( "bechamel",
        J.List
          (List.map
             (fun (name, ns) ->
               J.Obj [ ("name", J.Str name); ("ns_per_op", J.Float ns) ])
             bechamel) );
    ]

(* Write to [path], or to stdout when [path] is "-". *)
let write path json =
  let s = J.to_string json in
  if path = "-" then print_string s
  else Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc s)
