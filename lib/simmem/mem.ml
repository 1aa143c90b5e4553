(* Typed access to simulated memory regions.

   A region is a byte buffer (normally one buffer-pool frame) plus the base
   address it occupies in the simulated physical address space.  The charged
   accessors drive the cache simulator and the busy-cycle cost model; the
   [peek_*] variants bypass both and exist for invariant checkers, test
   oracles and debug printers, which must not perturb the measured
   execution.

   Every charged write widens the region's span: the bytes written since
   the span was last cleared.  The WAL clears a page's span when it logs
   the page, and diffs the page against its last-logged copy only inside
   it.  A change that bypasses [Mem] marks the span whole ([lo < 0]),
   which absorbs every later widening until the next clear.

   All multi-byte values are little-endian.  Layouts keep values naturally
   aligned, so a single value never straddles a cache line, but the charged
   accessors handle straddling correctly anyway. *)

module Span = struct
  type t = { mutable lo : int; mutable hi : int }

  let create () = { lo = max_int; hi = 0 }

  let clear s =
    s.lo <- max_int;
    s.hi <- 0

  let mark_all s =
    s.lo <- -1;
    s.hi <- max_int

  let is_all s = s.lo < 0
end

type region = { bytes : Bytes.t; base : int; span : Span.t }

let make ~bytes ~base = { bytes; base; span = Span.create () }
let make_tracked ~span ~bytes ~base = { bytes; base; span }
let length r = Bytes.length r.bytes

let[@inline] touch (sim : Sim.t) r off len =
  Cache.touch sim.cache ~busy:sim.cost.Cost_model.c_access (r.base + off) len

(* Widen [r]'s span to cover [off, stop); called after the write, so a
   write that raised never widens it. *)
let written r off stop =
  let s = r.span in
  if off < s.Span.lo then s.lo <- off;
  if stop > s.hi then s.hi <- stop

(* Charged reads *)

let read_u8 sim r off =
  touch sim r off 1;
  Char.code (Bytes.get r.bytes off)

let read_u16 sim r off =
  touch sim r off 2;
  Bytes.get_uint16_le r.bytes off

let read_i32 sim r off =
  touch sim r off 4;
  Int32.to_int (Bytes.get_int32_le r.bytes off)

(* Charged writes *)

let write_u8 sim r off v =
  touch sim r off 1;
  Bytes.set r.bytes off (Char.chr (v land 0xff));
  written r off (off + 1)

let write_u16 sim r off v =
  touch sim r off 2;
  Bytes.set_uint16_le r.bytes off v;
  written r off (off + 2)

let write_i32 sim r off v =
  touch sim r off 4;
  Bytes.set_int32_le r.bytes off (Int32.of_int v);
  written r off (off + 4)

(* Busy cycles of moving [len] bytes. *)
let move_busy (sim : Sim.t) len =
  (len / sim.cost.Cost_model.move_bytes_per_cycle) + 1

(* Bulk copy between (possibly identical) regions.  Charges one busy cycle
   per [move_bytes_per_cycle] bytes and touches every source and destination
   line, so that the data-movement cost of insertions into large sorted
   arrays shows up as the paper describes. *)
let blit sim src src_off dst dst_off len =
  if len > 0 then begin
    Cache.touch sim.Sim.cache ~busy:(move_busy sim len) (src.base + src_off) len;
    Cache.touch sim.cache ~busy:0 (dst.base + dst_off) len;
    Bytes.blit src.bytes src_off dst.bytes dst_off len;
    written dst dst_off (dst_off + len)
  end

let fill_zero sim r off len =
  if len > 0 then begin
    Cache.touch sim.Sim.cache ~busy:(move_busy sim len) (r.base + off) len;
    Bytes.fill r.bytes off len '\000';
    written r off (off + len)
  end

(* One move of a [len]-byte record at [off], of which host string [s]
   lands at [at]. *)
let move_in sim r ~off ~len s ~at =
  Cache.touch sim.Sim.cache ~busy:(move_busy sim len) (r.base + off) len;
  let n = String.length s in
  Bytes.blit_string s 0 r.bytes at n;
  written r at (at + n)

(* Software prefetch of [len] bytes starting at [off]; one busy cycle per
   prefetch instruction issued. *)
let prefetch (sim : Sim.t) r ~off ~len =
  Cache.prefetch_range sim.cache ~busy_per_line:sim.cost.Cost_model.c_prefetch
    (r.base + off) len

(* {2 Entry windows} *)

(* How many 4-byte values from the one at address [a] on lie whole in
   [a]'s line: 0 when that one straddles the line's end. *)
let[@inline] in_line ~line a =
  let o = a land (line - 1) in
  if o + 4 > line then 0 else (line - o) / 4

(* How many entries from the one whose key is at address [ka] and value
   at [va] keep their keys in [ka]'s line and values in [va]'s: 0 when
   that one's key or value straddles a line. *)
let[@inline] window ~line ka va =
  let wk = in_line ~line ka and wv = in_line ~line va in
  if wv < wk then wv else wk

(* A window is a run of entries whose keys all lie in one line and whose
   values all lie in one line, so its charged loads are one
   [Cache.touch_pairs]; an entry whose key or value straddles a line is
   a window of its own, charged by two [touch]es.  The window's in-range
   entries are charged after their callbacks, which must not move the
   clock: their loads would otherwise have run at other times. *)
let walk_pairs (sim : Sim.t) r ~keys ~values ~n ~hi i f =
  let line = sim.cfg.Config.line_size and busy = sim.cost.Cost_model.c_access in
  let b = r.bytes and clock = sim.clock in
  let i = ref i and more = ref true in
  while !more && !i < n do
    let i0 = !i in
    let ka = r.base + keys + (4 * i0) and va = r.base + values + (4 * i0) in
    let w = window ~line ka va in
    let span = if w = 0 then 1 else if n - i0 < w then n - i0 else w in
    let t0 = clock.Clock.now and m = ref 0 and inside = ref true in
    while !inside && !m < span do
      let e = i0 + !m in
      let k = Int32.to_int (Bytes.get_int32_le b (keys + (4 * e))) in
      if k > hi then inside := false
      else begin
        f k (Int32.to_int (Bytes.get_int32_le b (values + (4 * e))));
        incr m
      end
    done;
    let m = !m in
    if m > 0 then begin
      if clock.Clock.now <> t0 then
        invalid_arg "Mem.walk_pairs: the callback charged simulated time";
      if w = 0 then begin
        touch sim r (keys + (4 * i0)) 4;
        touch sim r (values + (4 * i0)) 4
      end
      else Cache.touch_pairs sim.cache ~busy ka va m
    end;
    i := i0 + m;
    more := m = span
  done;
  !i

(* The store counterpart of [walk_pairs]: the same windows,
   each charged after its stores by one [Cache.touch_pairs], or by two
   [touch]es for an entry that straddles a line; the span widens once.
   The bounds are checked first, so a store that cannot land charges
   and stores nothing. *)
let write_pairs (sim : Sim.t) r ~keys ~values src pos n =
  if n > 0 then begin
    let first = if keys < values then keys else values in
    let last = if keys < values then values else keys in
    if
      pos < 0 || pos > Array.length src - n || first < 0
      || last > Bytes.length r.bytes - (4 * n)
    then invalid_arg "Mem.write_pairs";
    let line = sim.cfg.Config.line_size and busy = sim.cost.Cost_model.c_access in
    let b = r.bytes and i = ref 0 in
    while !i < n do
      let i0 = !i in
      let ka = r.base + keys + (4 * i0) and va = r.base + values + (4 * i0) in
      let w = window ~line ka va in
      let m = if w = 0 then 1 else if n - i0 < w then n - i0 else w in
      for e = i0 to i0 + m - 1 do
        let k, v = src.(pos + e) in
        Bytes.set_int32_le b (keys + (4 * e)) (Int32.of_int k);
        Bytes.set_int32_le b (values + (4 * e)) (Int32.of_int v)
      done;
      if w = 0 then begin
        touch sim r (keys + (4 * i0)) 4;
        touch sim r (values + (4 * i0)) 4
      end
      else Cache.touch_pairs sim.cache ~busy ka va m;
      i := i0 + m
    done;
    written r first (last + (4 * n))
  end

(* Uncharged reads, for checkers and oracles only. *)

let peek_u8 r off = Char.code (Bytes.get r.bytes off)
let peek_u16 r off = Bytes.get_uint16_le r.bytes off
let peek_i32 r off = Int32.to_int (Bytes.get_int32_le r.bytes off)
