(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum
   disks and filesystems conventionally stamp on sectors.  Slicing-by-8:
   eight 256-entry tables, where table k advances a byte's contribution
   by k further zero bytes, fold eight input bytes per step (two
   little-endian 32-bit words); a byte loop finishes the tail.  The
   result is bit-identical to the one-table byte-at-a-time CRC.  Host
   time spent here is not simulated time: the simulated machine pays for
   its checksums through [Cost_model.crc_bytes_per_cycle] instead. *)

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

let update crc b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Checksum.update";
  let t = tables in
  (* 32 bits only: [lo lsr 24] below indexes a table unchecked *)
  let c = ref ((crc lxor 0xffffffff) land 0xffffffff) in
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
  !c lxor 0xffffffff

let bytes b = update 0 b 0 (Bytes.length b)
let string s = bytes (Bytes.unsafe_of_string s)
