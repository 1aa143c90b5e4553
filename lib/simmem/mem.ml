(* Typed access to simulated memory regions.

   A region is a byte buffer (normally one buffer-pool frame) plus the base
   address it occupies in the simulated physical address space.  The charged
   accessors drive the cache simulator and the busy-cycle cost model; the
   [peek_*]/[poke_*] variants bypass both and exist for invariant checkers,
   test oracles and debug printers, which must not perturb the measured
   execution.

   All multi-byte values are little-endian.  Layouts keep values naturally
   aligned, so a single value never straddles a cache line, but the charged
   accessors handle straddling correctly anyway. *)

type region = { bytes : Bytes.t; base : int }

let make ~bytes ~base = { bytes; base }
let length r = Bytes.length r.bytes

let touch (sim : Sim.t) r off len =
  Cache.touch sim.cache ~busy:sim.cost.Cost_model.c_access (r.base + off) len

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
  Bytes.set r.bytes off (Char.chr (v land 0xff))

let write_u16 sim r off v =
  touch sim r off 2;
  Bytes.set_uint16_le r.bytes off v

let write_i32 sim r off v =
  touch sim r off 4;
  Bytes.set_int32_le r.bytes off (Int32.of_int v)

(* Bulk copy between (possibly identical) regions.  Charges one busy cycle
   per [move_bytes_per_cycle] bytes and touches every source and destination
   line, so that the data-movement cost of insertions into large sorted
   arrays shows up as the paper describes. *)
let blit sim src src_off dst dst_off len =
  if len > 0 then begin
    let busy = (len / sim.Sim.cost.Cost_model.move_bytes_per_cycle) + 1 in
    Cache.touch sim.cache ~busy (src.base + src_off) len;
    Cache.touch sim.cache ~busy:0 (dst.base + dst_off) len;
    Bytes.blit src.bytes src_off dst.bytes dst_off len
  end

let fill_zero sim r off len =
  if len > 0 then begin
    let busy = (len / sim.Sim.cost.Cost_model.move_bytes_per_cycle) + 1 in
    Cache.touch sim.cache ~busy (r.base + off) len;
    Bytes.fill r.bytes off len '\000'
  end

(* Software prefetch of [len] bytes starting at [off]; one busy cycle per
   prefetch instruction issued. *)
let prefetch (sim : Sim.t) r ~off ~len =
  Cache.prefetch_range sim.cache ~busy_per_line:sim.cost.Cost_model.c_prefetch
    (r.base + off) len

(* Uncharged access, for checkers and oracles only. *)

let peek_u8 r off = Char.code (Bytes.get r.bytes off)
let peek_u16 r off = Bytes.get_uint16_le r.bytes off
let peek_i32 r off = Int32.to_int (Bytes.get_int32_le r.bytes off)
let poke_u8 r off v = Bytes.set r.bytes off (Char.chr (v land 0xff))
let poke_u16 r off v = Bytes.set_uint16_le r.bytes off v
let poke_i32 r off v = Bytes.set_int32_le r.bytes off (Int32.of_int v)
