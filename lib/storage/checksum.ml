(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum
   disks and filesystems conventionally stamp on sectors.  Two kernels,
   bit-identical to the one-table byte-at-a-time CRC and to each other:

   - carry-less-multiply folding (checksum_stubs.c), which folds 16-byte
     blocks with PCLMULQDQ.  [update] runs it over the whole 16-byte
     blocks of a span of at least 64 bytes when the CPU has PCLMULQDQ
     and SSE4.1 (asked once, at module initialisation), then finishes
     the last [len mod 16] bytes with the table loop from its result;
   - slicing-by-8 ([table_loop]): eight 256-entry tables, where table k
     advances a byte's contribution by k further zero bytes, fold eight
     input bytes per step (two little-endian 32-bit words); a byte loop
     finishes the tail.  It is the tail path, the whole CRC for shorter
     spans and on other CPUs, and [update_portable].

   The choice is made from the CPU alone; there is no setting.  Host time
   spent here is not simulated time: the simulated machine pays for its
   checksums through [Cost_model.crc_bytes_per_cycle] instead. *)

external fold_available : unit -> bool = "fpb_crc32_fold_available"
[@@noalloc]

(* [fold c b off len]: the CRC register [c] advanced over [len] bytes of
   [b] from [off]; [len] >= 64 and a multiple of 16, range unchecked. *)
external fold : int -> Bytes.t -> int -> int -> int = "fpb_crc32_fold"
[@@noalloc]

let use_fold = fold_available ()

(* The eight tables, flat: table k is [k * 256, (k + 1) * 256).  Table 0
   is the classic byte table.  Built at module initialisation, so [update]
   reads them without a [Lazy.force] and they are complete before any
   domain could share them. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let p = t.(i - 256) in
    t.(i) <- (p lsr 8) lxor t.(p land 0xff)
  done;
  t

(* The CRC register [c] (32 bits, pre-inverted) advanced over [len]
   bytes of [b] from [off], range unchecked. *)
let table_loop c b off len =
  let t = tables in
  (* 32 bits only: [lo lsr 24] below indexes a table unchecked *)
  let c = ref c in
  let i = ref off in
  let last = off + len - 8 in
  while !i <= last do
    let lo = !c lxor (Int32.to_int (Bytes.get_int32_le b !i) land 0xffffffff) in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land 0xffffffff in
    c :=
      Array.unsafe_get t (0x700 + (lo land 0xff))
      lxor Array.unsafe_get t (0x600 + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x500 + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t (0x400 + (lo lsr 24))
      lxor Array.unsafe_get t (0x300 + (hi land 0xff))
      lxor Array.unsafe_get t (0x200 + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x100 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to off + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c

let check_range b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Checksum.update"

let update crc b off len =
  check_range b off len;
  let c = (crc lxor 0xffffffff) land 0xffffffff in
  let c =
    if use_fold && len >= 64 then
      let bulk = len land lnot 15 in
      table_loop (fold c b off bulk) b (off + bulk) (len - bulk)
    else table_loop c b off len
  in
  c lxor 0xffffffff

let update_portable crc b off len =
  check_range b off len;
  table_loop ((crc lxor 0xffffffff) land 0xffffffff) b off len lxor 0xffffffff

let bytes b = update 0 b 0 (Bytes.length b)
let string s = bytes (Bytes.unsafe_of_string s)
