(* Global simulated clock shared by the CPU/cache model and the disk model.
   Unit: nanoseconds (equivalently CPU cycles at the paper's 1 GHz). *)

(* [floor_at] is the last [set] value while a scheduler is replaying
   clients ([replaying]); otherwise the clock only moves forward and the
   floor is [now]. *)
type t = { mutable now : int; mutable replaying : bool; mutable floor_at : int }

let create () = { now = 0; replaying = false; floor_at = 0 }
let now t = t.now
let advance t dt = t.now <- t.now + dt

(* Move the clock forward to an absolute time, e.g. an I/O completion.
   Never moves backwards. *)
let advance_to t when_ = if when_ > t.now then t.now <- when_

(* Set the clock to an absolute time, possibly rewinding it.  Only the
   multi-client scheduler may use this: it runs each logical client's
   next operation at that client's local time, which can lie before the
   global maximum reached by another client.  The scheduler's dispatch
   times never decrease, so the last one is a floor under every future
   [now].  Resources kept as busy-interval timelines (shard latches, the
   memory pipeline) let a rewound client use the gaps between other
   clients' spans; resources kept as a single free-at watermark make it
   queue behind everything the host already executed on them. *)
let set t when_ =
  if t.replaying && when_ < t.floor_at then
    invalid_arg
      (Printf.sprintf "Clock.set: %d is below the previous dispatch %d" when_
         t.floor_at);
  t.now <- when_;
  t.replaying <- true;
  t.floor_at <- when_

(* End a replay: every logical client has finished by [when_], so the
   clock continues from there and never goes below it again. *)
let join t when_ =
  t.now <- when_;
  t.replaying <- false

let floor t = if t.replaying then t.floor_at else t.now

let reset t =
  t.now <- 0;
  t.replaying <- false
