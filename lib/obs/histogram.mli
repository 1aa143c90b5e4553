(** Fixed-memory value histograms with percentile estimation.

    Values are non-negative integers (cycles, simulated nanoseconds,
    byte counts — the unit follows the same naming convention as
    {!Counter}).  Storage is a log-linear bucket array in the style of
    HDR histograms: values below 16 are recorded exactly; larger values
    fall into power-of-two ranges split into 16 linear sub-buckets, so
    any reported quantile is within a relative error of 1/16 (6.25%) of
    the exact order statistic.  [min]/[max]/[count]/[sum] are exact.

    Recording is O(1) with no allocation; a histogram occupies a few KB
    regardless of how many values it has seen. *)

type t

(** [make name] is an empty histogram. *)
val make : string -> t

val name : t -> string

(** [record t v] records one observation.  Negative values are clamped
    to zero. *)
val record : t -> int -> unit

val count : t -> int
val sum : t -> int

(** Exact smallest/largest recorded value; 0 on an empty histogram. *)
val min_value : t -> int

val max_value : t -> int

(** Arithmetic mean; 0. on an empty histogram. *)
val mean : t -> float

(** [percentile t p] estimates the [p]-th percentile ([0. <= p <= 100.]).
    Returns the exact {!min_value} for [p = 0.] and the exact
    {!max_value} for [p = 100.]; 0 on an empty histogram.
    @raise Invalid_argument if [p] is outside [0..100]. *)
val percentile : t -> float -> int

val reset : t -> unit

(** [bucket_of v] is the index of the bucket [v >= 0] is counted in:
    [v] itself below 16, then 16 per power of two. *)
val bucket_of : int -> int

(** [{"count", "sum", "min", "max", "mean", "p50", "p90", "p95", "p99",
    "p999"}] — the per-histogram record embedded in metrics snapshots.
    [p999] is the 99.9th percentile, the tail the open-loop workload
    driver sweeps (see [docs/WORKLOADS.md]). *)
val to_json : t -> Json.t
