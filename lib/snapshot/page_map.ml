(* Persistence layer of the shadow-paging subsystem: two on-disk
   indirection-table slots plus two superblock sectors on a dedicated
   metadata disk, in the style of the betrfs tla-tree design.

   A checkpoint generation G persists as:

   - its encoded indirection table (logical page -> physical block, plus
     the WAL cut marks, the allocator state at the cut, and the index
     root metadata), written to table slot [G land 1] — always the slot
     the PREVIOUS generation does NOT occupy, so a crash mid-write can
     only damage a table that was already superseded twice over;
   - a fixed-size superblock naming the generation, its slot, the table
     blob's length and CRC-32, written to superblock sector [G land 1] —
     one sector, so the flip is as atomic as a disk write gets: a torn
     superblock fails its CRC and recovery falls back to the other
     sector (the previous generation).

   Everything is length-framed and CRC-32-guarded; [load] never trusts a
   byte it cannot checksum.  Reads and writes are charged to the
   simulated clock through a one-disk {!Fpb_storage.Disk_model}, so the
   flip's durability wait is real simulated time.  [inject_damage] rots
   persisted bytes deterministically for the chaos harness. *)

open Fpb_simmem
open Fpb_storage
module Counter = Fpb_obs.Counter

type entry = { disk : int; phys : int; lsn : int }

type table = {
  gen : int;
  entries : entry array;  (* index = page id; slot 0 is a dummy *)
  marks : int array;  (* per-stripe WAL offsets of the checkpoint's cut *)
  alloc : int * int list;  (* (total pages, free list) at the cut *)
  op : int;  (* last committed operation at the flip *)
  meta : int list;  (* index root metadata at the flip *)
}

type target = Table of int | Superblock of int

type damage =
  | Zero_span of { off : int; len : int }
  | Flip_bit of { off : int; bit : int }

type stats = {
  table_writes : Counter.t;
  table_bytes : Counter.t;
  sb_writes : Counter.t;
  loads : Counter.t;
  sb_fallbacks : Counter.t;
}

(* Physical layout on the metadata disk (in pages): each table slot owns
   a fixed region, superblocks sit above both. *)
let slot_region_pages = 1 lsl 20
let sb_phys slot = (2 * slot_region_pages) + slot

type t = {
  clock : Clock.t;
  disks : Disk_model.t;  (* one metadata disk *)
  page_size : int;
  slots : Bytes.t option array;  (* 2 persisted table blobs *)
  sbs : Bytes.t option array;  (* 2 persisted superblock sectors *)
  stats : stats;
}

let create ~page_size clock =
  {
    clock;
    disks =
      Disk_model.create
        ~transfer_ns:(Disk_model.transfer_ns_of_page_size page_size)
        ~n_disks:1 clock;
    page_size;
    slots = [| None; None |];
    sbs = [| None; None |];
    stats =
      {
        table_writes = Counter.make "pagemap.table_writes";
        table_bytes = Counter.make "pagemap.table_bytes";
        sb_writes = Counter.make "pagemap.superblock_writes";
        loads = Counter.make "pagemap.loads";
        sb_fallbacks = Counter.make "pagemap.superblock_fallbacks";
      };
  }

(* ------------------------------ codecs ------------------------------- *)

let table_magic = 0x46504254 (* "FPBT" *)
let sb_magic = 0x46504253 (* "FPBS" *)

let add_i32 b v = Buffer.add_int32_le b (Int32.of_int v)
let get_i32 b pos = Int32.to_int (Bytes.get_int32_le b pos)

let encode_table tb =
  let b = Buffer.create 4096 in
  add_i32 b table_magic;
  add_i32 b tb.gen;
  add_i32 b (Array.length tb.marks);
  Array.iter (add_i32 b) tb.marks;
  let total, free = tb.alloc in
  add_i32 b total;
  add_i32 b (List.length free);
  List.iter (add_i32 b) free;
  add_i32 b tb.op;
  add_i32 b (List.length tb.meta);
  List.iter (add_i32 b) tb.meta;
  add_i32 b (Array.length tb.entries);
  Array.iter
    (fun e ->
      add_i32 b e.disk;
      add_i32 b e.phys;
      add_i32 b e.lsn)
    tb.entries;
  let body = Buffer.to_bytes b in
  let framed = Buffer.create (Bytes.length body + 4) in
  Buffer.add_bytes framed body;
  add_i32 framed (Checksum.update 0 body 0 (Bytes.length body));
  Buffer.to_bytes framed

let table_crc blob =
  (* CRC of the body, i.e. the blob minus its own trailing checksum —
     stored redundantly in the superblock so a table blob can never be
     paired with the wrong superblock. *)
  get_i32 blob (Bytes.length blob - 4) land 0xffffffff

(* Decode a table blob of exactly [len] bytes at the start of [b];
   [None] on any framing, bounds or checksum violation. *)
let decode_table b ~len =
  if len < 8 || len > Bytes.length b then None
  else
    let body_len = len - 4 in
    let sum = get_i32 b body_len land 0xffffffff in
    if sum <> Checksum.update 0 b 0 body_len then None
    else begin
      let pos = ref 0 in
      let ok = ref true in
      let i32 () =
        if !pos + 4 > body_len then begin
          ok := false;
          0
        end
        else begin
          let v = get_i32 b !pos in
          pos := !pos + 4;
          v
        end
      in
      (* A count that passed the CRC is trustworthy; the bound only guards
         allocation size against the astronomically unlikely collision. *)
      let count limit =
        let n = i32 () in
        if n < 0 || n > limit then begin
          ok := false;
          0
        end
        else n
      in
      let ints n =
        let acc = ref [] in
        for _ = 1 to n do
          acc := i32 () :: !acc
        done;
        List.rev !acc
      in
      let magic = i32 () in
      let gen = i32 () in
      let n_marks = count 4096 in
      let marks = Array.make n_marks 0 in
      for i = 0 to n_marks - 1 do
        marks.(i) <- i32 ()
      done;
      let total = i32 () in
      let free = ints (count body_len) in
      let op = i32 () in
      let meta = ints (count body_len) in
      let n_entries = count (body_len / 12) in
      let entries = Array.make n_entries { disk = 0; phys = 0; lsn = 0 } in
      for i = 0 to n_entries - 1 do
        let disk = i32 () in
        let phys = i32 () in
        let lsn = i32 () in
        entries.(i) <- { disk; phys; lsn }
      done;
      if (not !ok) || magic <> table_magic then None
      else Some { gen; entries; marks; alloc = (total, free); op; meta }
    end

let sb_len = 24

let encode_sb ~gen ~slot ~table_len ~crc =
  let b = Buffer.create sb_len in
  add_i32 b sb_magic;
  add_i32 b gen;
  add_i32 b slot;
  add_i32 b table_len;
  add_i32 b crc;
  let body = Buffer.to_bytes b in
  let framed = Buffer.create sb_len in
  Buffer.add_bytes framed body;
  add_i32 framed (Checksum.update 0 body 0 (Bytes.length body));
  Buffer.to_bytes framed

(* (gen, slot, table_len, table_crc), or [None] on damage. *)
let decode_sb b =
  if Bytes.length b < sb_len then None
  else
    let body_len = sb_len - 4 in
    let sum = get_i32 b body_len land 0xffffffff in
    if sum <> Checksum.update 0 b 0 body_len then None
    else if get_i32 b 0 <> sb_magic then None
    else
      Some
        (get_i32 b 4, get_i32 b 8, get_i32 b 12, get_i32 b 16 land 0xffffffff)

(* ---------------------------- persistence ---------------------------- *)

(* Write [blob] (or, with [len], only its first [len] bytes — a crash
   mid-write) into table slot [slot], charging the span as one coalesced
   sequential write and waiting for it: the flip's durability barrier is
   real.  A partial write leaves the slot's previous bytes beyond the
   prefix, exactly what a real torn multi-sector write leaves. *)
let write_table t ~slot ?len blob =
  let full = Bytes.length blob in
  let len = match len with None -> full | Some l -> max 0 (min l full) in
  let dst =
    match t.slots.(slot) with
    | Some old when Bytes.length old >= full -> old
    | old ->
        let nd = Bytes.make full '\000' in
        (match old with
        | Some o -> Bytes.blit o 0 nd 0 (min (Bytes.length o) full)
        | None -> ());
        nd
  in
  Bytes.blit blob 0 dst 0 len;
  t.slots.(slot) <- Some dst;
  let n = max 1 ((len + t.page_size - 1) / t.page_size) in
  let done_at =
    Disk_model.write_run t.disks ~disk:0
      ~phys:(slot * slot_region_pages)
      ~n ()
  in
  Clock.advance_to t.clock done_at;
  Counter.incr t.stats.table_writes;
  Counter.add t.stats.table_bytes len

(* Write generation [gen]'s superblock to sector [gen land 1].  With
   [torn], only the first half of the sector arrives (the CRC does not):
   the torn-flip crash point. *)
let write_superblock t ~gen ~slot ~table_len ~crc ?(torn = false) () =
  let b = encode_sb ~gen ~slot ~table_len ~crc in
  let which = gen land 1 in
  let dst =
    if torn then begin
      let half = Bytes.length b / 2 in
      let nd =
        match t.sbs.(which) with
        | Some old -> Bytes.copy old
        | None -> Bytes.make (Bytes.length b) '\000'
      in
      Bytes.blit b 0 nd 0 half;
      nd
    end
    else b
  in
  t.sbs.(which) <- Some dst;
  let done_at = Disk_model.write_sync t.disks ~disk:0 ~phys:(sb_phys which) () in
  Clock.advance_to t.clock done_at;
  Counter.incr t.stats.sb_writes

(* Read back the live generation: both superblocks (charged), candidates
   ordered by generation, each cross-checked against its table blob's
   length and CRC before the table is decoded.  Any invalid superblock
   or table falls back to the other candidate ([sb_fallbacks] counts
   each step down).  [None] only when no (superblock, table) pair in
   either slot checks out — the caller then recovers from the WAL
   alone. *)
let load t =
  Counter.incr t.stats.loads;
  let completion = ref (Clock.now t.clock) in
  let read_phys phys =
    completion := max !completion (Disk_model.read t.disks ~disk:0 ~phys ())
  in
  read_phys (sb_phys 0);
  read_phys (sb_phys 1);
  let candidates =
    List.filter_map
      (fun which ->
        match t.sbs.(which) with
        | None -> None
        | Some b -> decode_sb b)
      [ 0; 1 ]
    |> List.sort (fun (g1, _, _, _) (g2, _, _, _) -> compare g2 g1)
  in
  let fallbacks = ref 0 in
  let rec try_candidates = function
    | [] -> None
    | (gen, slot, table_len, crc) :: rest -> (
        let tb =
          if slot <> 0 && slot <> 1 then None
          else
            match t.slots.(slot) with
            | None -> None
            | Some blob ->
                if Bytes.length blob < table_len then None
                else begin
                  for
                    lp = slot * slot_region_pages
                    to (slot * slot_region_pages)
                       + ((table_len - 1) / t.page_size)
                  do
                    read_phys lp
                  done;
                  match decode_table blob ~len:table_len with
                  | Some tb
                    when tb.gen = gen
                         && table_crc (Bytes.sub blob 0 table_len) = crc ->
                      Some tb
                  | _ -> None
                end
        in
        match tb with
        | Some tb -> Some (tb, !fallbacks)
        | None ->
            incr fallbacks;
            Counter.incr t.stats.sb_fallbacks;
            try_candidates rest)
  in
  (* An invalid superblock never even makes the candidate list; count it
     as a fallback too so damage is visible either way. *)
  let invalid_sbs =
    List.length
      (List.filter
         (fun w ->
           match t.sbs.(w) with None -> false | Some b -> decode_sb b = None)
         [ 0; 1 ])
  in
  fallbacks := invalid_sbs;
  for _ = 1 to invalid_sbs do
    Counter.incr t.stats.sb_fallbacks
  done;
  let r = try_candidates candidates in
  Clock.advance_to t.clock !completion;
  r

(* Deterministic damage to the persisted metadata bytes (the chaos
   harness's superblock/table-region fault leg).  Lengths never change:
   contents rot in place. *)
let inject_damage t target d =
  let buf =
    match target with
    | Table slot -> t.slots.(slot land 1)
    | Superblock which -> t.sbs.(which land 1)
  in
  match buf with
  | None -> ()
  | Some b -> (
      let n = Bytes.length b in
      match d with
      | Zero_span { off; len } ->
          if off >= 0 && off < n && len > 0 then
            Bytes.fill b off (min len (n - off)) '\000'
      | Flip_bit { off; bit } ->
          if off >= 0 && off < n then
            Bytes.set b off
              (Char.chr
                 (Char.code (Bytes.get b off) lxor (1 lsl (bit land 7)))))

let counters t =
  [
    t.stats.table_writes; t.stats.table_bytes; t.stats.sb_writes;
    t.stats.loads; t.stats.sb_fallbacks;
  ]

let kv t = List.map Counter.kv (counters t)
let reset_stats t = List.iter Counter.reset (counters t)
