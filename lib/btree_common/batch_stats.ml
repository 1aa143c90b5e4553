(* Process-wide instrumentation for batched level-wise descents.

   The one batch walker ([Wave]) behind every index's [search_batch]
   reports into these four instruments, so the telemetry spine and the
   tests see one `batch.*` family regardless of index kind.  All bookkeeping is host-side (uncharged).

   Conventions (documented in docs/BATCHING.md and OBSERVABILITY.md):
   - [size] records the number of probes per executed wave; a batch that
     had to split under [Buffer_pool.Overloaded] records each sub-wave.
   - A node routed through by k >= 2 probes of one wave counts one
     [shared_nodes] event and k-1 [dup_probes] (the page accesses the
     batch avoided); singleton-equivalent work records nothing.
   - [pipeline_stalls] counts frontier pages that were not resident when
     the wave discovered them: the disk reads the prefetch pipeline had
     to cover.  A stall that the overlap fully hides still counts — it
     is a measure of exposure, not of residual wait. *)

module Counter = Fpb_obs.Counter
module Histogram = Fpb_obs.Histogram

let size = Histogram.make "batch.size"
let shared_nodes = Counter.make "batch.shared_nodes"
let dup_probes = Counter.make "batch.dup_probes"
let pipeline_stalls = Counter.make "batch.pipeline_stalls"

let note_wave n = Histogram.record size n

let note_group k =
  if k > 1 then begin
    Counter.incr shared_nodes;
    Counter.add dup_probes (k - 1)
  end

let note_stall () = Counter.incr pipeline_stalls

let kv () =
  [ Counter.kv shared_nodes; Counter.kv dup_probes;
    Counter.kv pipeline_stalls ]

let reset () =
  Histogram.reset size;
  Counter.reset shared_nodes;
  Counter.reset dup_probes;
  Counter.reset pipeline_stalls
