(** YCSB-style operation mixes over a live, growing key set.

    A mix is a percentage split over the five YCSB operation kinds
    (read, update, insert, short range scan, read-modify-write).  The
    standard core workloads A-F are provided with their conventional
    key-popularity distributions; a {!gen} owns the mutable key-space
    state — the key-age array that starts as the bulk-loaded keys and
    grows at the frontier with every insert — so the driver
    ({!Driver}), closed or open loop, draws one
    fully-formed {!action} per dispatch, and the [Latest] distribution
    always sees the current insert frontier.  See [docs/WORKLOADS.md]. *)

(** A named percentage split; proportions sum to 100. *)
type t = {
  name : string;
  read : int;
  update : int;
  insert : int;
  scan : int;
  rmw : int;
}

(** Build a custom mix.
    @raise Invalid_argument on negative proportions or a sum <> 100. *)
val make :
  name:string -> read:int -> update:int -> insert:int -> scan:int -> rmw:int -> t

(** The YCSB core workloads: A = 50/50 read/update, B = 95/5
    read/update, C = read-only, D = 95/5 read/insert (read-latest),
    E = 95/5 scan/insert, F = 50/50 read/read-modify-write. *)
val a : t

val b : t
val c : t
val d : t
val e : t
val f : t

(** [\[a; b; c; d; e; f\]]. *)
val all : t list

(** Parse ["A"].. ["F"] (case-insensitive). *)
val of_string : string -> (t, string) result

(** The conventional distribution of the mix: [Latest] for D (it reads
    what it just inserted), scrambled Zipfian at {!Keygen.default_theta}
    for everything else. *)
val default_dist : t -> Keygen.dist

(** One drawn operation, ready to run: keys are live keys of the
    generator's key set (for [Scan], a [(start_key, end_key)] range
    spanning the drawn number of adjacent loaded keys), values are the
    generator's write sequence numbers. *)
type action =
  | Read of int
  | Update of int * int
  | Insert of int * int
  | Scan of int * int
  | Rmw of int * int

(** A workload generator: mix + distribution + mutable key-space state
    + its own deterministic PRNG. *)
type gen

(** [generator mix pairs ~seed] draws over the bulk-loaded [pairs]
    (strictly increasing, as produced by {!Keygen.bulk_pairs}).
    [dist] overrides {!default_dist}; [max_scan_span] (default 100)
    bounds the uniform scan length of [Scan] actions.
    @raise Invalid_argument on an empty key set. *)
val generator :
  ?max_scan_span:int ->
  ?dist:Keygen.dist ->
  seed:int ->
  t ->
  (int * int) array ->
  gen

(** Draw the next action (mutates the generator: inserts grow the
    key-age array). *)
val next : gen -> action

(** Number of live keys (bulk-loaded + inserted so far). *)
val live_keys : gen -> int

(** Actions drawn so far as [(read, update, insert, scan, rmw)] counts. *)
val drawn_counts : gen -> int * int * int * int * int

(** [execute idx action] runs the action against the index through its
    normal charged path; [commit] (default a no-op) runs after each
    mutating action — pass the WAL commit there to make writes
    durable. *)
val execute :
  Fpb_btree_common.Index_sig.instance ->
  ?commit:(unit -> unit) ->
  action ->
  unit
