(* Host timing: how fast the simulator itself runs.

   Times are process CPU seconds ([Sys.time]).  On a shared virtual
   machine that is not enough: neighbouring guests change this guest's
   speed by up to 2x for minutes at a time, which no median inside one
   run can absorb.  So the run also times a reference probe, a fixed
   kernel that shares no code with the program under test, before and
   after every set-up and at every segment boundary.  [slowdown ()], the
   median probe time over its nominal time, rescales the run's host
   timings to the speed of an unloaded machine; the raw values are
   reported next to the rescaled ones. *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

module Probe = struct
  let buf = lazy (Bytes.make (1 lsl 20) '\000')
  let iters = 1_000_000

  (* The probe's time on an unloaded 2-vCPU Xeon guest at 2.1 GHz. *)
  let nominal_s = 0.0040

  (* xorshift-indexed read-modify-writes over 1 MB.  The buffer stays
     in L2 and within TLB reach, so the probe reads the same in any
     process whatever its heap: a 16 MB buffer varied up to 40 % from
     process to process with page placement. *)
  let pass () =
    let buf = Lazy.force buf in
    let mask = Bytes.length buf - 8 in
    let t0 = Sys.time () in
    let x = ref 0x2545F4914F6CDD1D in
    for _ = 1 to iters do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17);
      let i = !x land mask in
      Bytes.set_int64_le buf i (Int64.add (Bytes.get_int64_le buf i) 1L)
    done;
    Sys.time () -. t0

  let samples = ref []

  (* The fastest of three passes: the first also brings the buffer back
     into cache, and a short stall in one pass drops out. *)
  let run () = samples := Float.min (pass ()) (Float.min (pass ()) (pass ())) :: !samples
end

(* Nearest-rank 90th percentile. *)
let upper_decile l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (((9 * n) + 9) / 10 - 1))

let probe_s () = median !Probe.samples
let slowdown () = probe_s () /. Probe.nominal_s

(* [f ()] and its CPU seconds, probed on both sides. *)
let timed f =
  Probe.run ();
  let t0 = Sys.time () in
  let r = f () in
  let t = Sys.time () -. t0 in
  Probe.run ();
  (r, t)

(* The measured phase's CPU time, cut into [segments] equal op segments
   with a probe at every boundary; only time between [start] and [stop]
   counts, probes excluded.  Interference only ever slows code down, and
   on a shared machine it comes and goes within seconds, so the run's
   rate is its upper-decile segment (the second fastest of ten), not
   the median. *)
module Meter = struct
  let segments = 10

  type t = {
    bound : int array;
    at_ops : int array;
    at_s : float array;
    mutable ops : int;
    mutable seg : int;
    mutable acc : float;
    mutable t0 : float;
  }

  let create total =
    {
      bound = Array.init segments (fun j -> max 1 ((j + 1) * total / segments));
      at_ops = Array.make segments 0;
      at_s = Array.make segments 0.;
      ops = 0;
      seg = 0;
      acc = 0.;
      t0 = 0.;
    }

  let start m = m.t0 <- Sys.time ()
  let stop m = m.acc <- m.acc +. (Sys.time () -. m.t0)

  let tick m k =
    m.ops <- m.ops + k;
    while m.seg < segments && m.ops >= m.bound.(m.seg) do
      let now = Sys.time () in
      m.at_ops.(m.seg) <- m.ops;
      m.at_s.(m.seg) <- m.acc +. (now -. m.t0);
      Probe.run ();
      m.t0 <- m.t0 +. (Sys.time () -. now);
      m.seg <- m.seg + 1
    done

  (* Ops per CPU second of each segment. *)
  let rates m =
    List.init m.seg (fun j ->
        let o0, s0 = if j = 0 then (0, 0.) else (m.at_ops.(j - 1), m.at_s.(j - 1)) in
        float_of_int (m.at_ops.(j) - o0) /. Float.max 1e-9 (m.at_s.(j) -. s0))
end
