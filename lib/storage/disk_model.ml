(* Discrete-event model of a farm of independent disks.

   Each disk serves requests one at a time in submission order.  A request
   costs a positioning overhead (seek + rotational latency) plus the page
   transfer time; a request for the physical page immediately following the
   previous one served by the same disk skips the positioning cost
   (sequential access).  Requests may start no earlier than a caller-chosen
   time, which lets the buffer pool model prefetcher threads dispatching
   work in the future relative to the simulated CPU clock.

   A disk may carry a fault profile (see [Fault]): reads and writes then
   draw from a deterministic seeded schedule and can fail transiently
   (succeed when retried), fail persistently (latent sector errors, cleared
   by the next write to the location, i.e. sector remapping), or silently
   return corrupted bytes.  The model only decides *what happened*; the
   caller owns the page bytes and applies any corruption spec itself, so
   layering stays clean. *)

open Fpb_simmem
module Counter = Fpb_obs.Counter

(* What a read returned.  Corruption is reported as a spec over byte
   offsets (callers reduce offsets mod their page size): either a list of
   (offset, xor mask) byte flips or a torn sector (a 512-byte span reads
   back zeroed). *)
type corruption = Bit_flips of (int * int) list | Torn_sector of int

type read_outcome =
  | Read_ok of int  (* completion time *)
  | Read_corrupt of int * corruption
  | Read_error of int * [ `Transient | `Latent ]  (* error discovered then *)

type fault_state = {
  profile : Fault.profile;
  access_count : (int * int, int) Hashtbl.t;  (* (disk, phys) -> reads *)
  transient_left : (int * int, int) Hashtbl.t;  (* remaining forced failures *)
  latent : (int * int, unit) Hashtbl.t;  (* unreadable until rewritten *)
}

type t = {
  clock : Clock.t;
  n_disks : int;
  transfer_ns : int;
  request_overhead_ns : int;  (* fixed per-request controller cost *)
  free_at : int array;  (* per disk: time the disk becomes idle *)
  last_phys : int array;  (* per disk: last physical page served *)
  faults : fault_state option array;  (* per disk *)
  c_reads : Counter.t;
  c_writes : Counter.t;
  c_write_runs : Counter.t;  (* coalesced multi-page write requests *)
  c_busy_ns : Counter.t;  (* total time disks spent servicing requests *)
  c_fault_transient_read : Counter.t;
  c_fault_transient_write : Counter.t;
  c_fault_latent : Counter.t;
  c_fault_corrupt : Counter.t;
}

(* 8 ms positioning (seek + rotational), 40 MB/s transfer: the paper's
   Seagate Cheetah 4LP-class disks. *)
let default_seek_ns = 8_000_000

let transfer_ns_of_page_size page_size = page_size * 25 (* 40 MB/s = 25 ns/B *)

let create ?(request_overhead_ns = 0) ~transfer_ns ~n_disks clock =
  if n_disks <= 0 then invalid_arg "Disk_model.create";
  {
    clock;
    n_disks;
    transfer_ns;
    request_overhead_ns;
    free_at = Array.make n_disks 0;
    last_phys = Array.make n_disks (-10);
    faults = Array.make n_disks None;
    c_reads = Counter.make "disk.reads";
    c_writes = Counter.make "disk.writes";
    c_write_runs = Counter.make "disk.write_runs";
    c_busy_ns = Counter.make "disk.busy_ns";
    c_fault_transient_read = Counter.make "disk.fault.transient_read";
    c_fault_transient_write = Counter.make "disk.fault.transient_write";
    c_fault_latent = Counter.make "disk.fault.latent";
    c_fault_corrupt = Counter.make "disk.fault.corrupt";
  }

let n_disks t = t.n_disks

(* ------------------------- fault injection -------------------------- *)

let fresh_fault_state profile =
  {
    profile;
    access_count = Hashtbl.create 256;
    transient_left = Hashtbl.create 16;
    latent = Hashtbl.create 16;
  }

(* Arm (or with [None] disarm) fault injection on one disk or, without
   [disk], on all of them.  Arming resets the disk's fault history. *)
let set_faults t ?disk profile =
  let set d =
    t.faults.(d) <- Option.map fresh_fault_state profile
  in
  match disk with
  | Some d -> set d
  | None ->
      for d = 0 to t.n_disks - 1 do
        set d
      done

let corruption_spec ~profile h =
  if Fault.uniform (Fault.mix32 (h lxor 0x5bf03635)) < profile.Fault.torn_frac
  then Torn_sector (Fault.mix32 (h lxor 0x2545f491) land 0xffffff)
  else
    Bit_flips
      (List.init (max 1 profile.Fault.corrupt_bits) (fun i ->
           let hi = Fault.mix32 (h + (i * 0x27d4eb2f)) in
           (hi land 0xffffff, ((hi lsr 24) land 0xff) lor 1)))

(* Decide what this read of (disk, phys) does, advancing the location's
   deterministic schedule. *)
let draw_read_fault t ~disk ~phys =
  match t.faults.(disk) with
  | None -> `Ok
  | Some fs ->
      let loc = (disk, phys) in
      if Hashtbl.mem fs.latent loc then begin
        Counter.incr t.c_fault_latent;
        `Latent
      end
      else
        let left =
          Option.value ~default:0 (Hashtbl.find_opt fs.transient_left loc)
        in
        if left > 0 then begin
          Hashtbl.replace fs.transient_left loc (left - 1);
          Counter.incr t.c_fault_transient_read;
          `Transient
        end
        else begin
          let n =
            1 + Option.value ~default:0 (Hashtbl.find_opt fs.access_count loc)
          in
          Hashtbl.replace fs.access_count loc n;
          let p = fs.profile in
          let h = Fault.draw ~seed:p.Fault.seed ~disk ~phys ~n in
          let u = Fault.uniform h in
          if u < p.Fault.transient_read then begin
            (* this attempt fails; the next fail_len - 1 retries also do *)
            Hashtbl.replace fs.transient_left loc (p.Fault.transient_fail_len - 1);
            Counter.incr t.c_fault_transient_read;
            `Transient
          end
          else if u < p.Fault.transient_read +. p.Fault.latent then begin
            Hashtbl.replace fs.latent loc ();
            Counter.incr t.c_fault_latent;
            `Latent
          end
          else if u < p.Fault.transient_read +. p.Fault.latent +. p.Fault.corrupt
          then begin
            Counter.incr t.c_fault_corrupt;
            `Corrupt (corruption_spec ~profile:p h)
          end
          else `Ok
        end

(* A write to a location repairs its media state: latent sectors are
   remapped and any pending transient-failure run is forgotten.  The
   write itself can transiently fail, which the controller absorbs by
   retrying — modelled as a second service charge. *)
let draw_write_fault t ~disk ~phys =
  match t.faults.(disk) with
  | None -> false
  | Some fs ->
      let loc = (disk, phys) in
      Hashtbl.remove fs.latent loc;
      Hashtbl.remove fs.transient_left loc;
      let n =
        1 + Option.value ~default:0 (Hashtbl.find_opt fs.access_count loc)
      in
      Hashtbl.replace fs.access_count loc n;
      let p = fs.profile in
      let h = Fault.draw ~seed:(p.Fault.seed lxor 0x6a09e667) ~disk ~phys ~n in
      if Fault.uniform h < p.Fault.transient_write then begin
        Counter.incr t.c_fault_transient_write;
        true
      end
      else false

(* ----------------------------- service ------------------------------ *)

let service t ?(append = false) ~earliest ~disk ~phys () =
  let start = max earliest t.free_at.(disk) in
  (* [append]: log-style append — a request continuing the last served
     page (small records packing into the same physical page) keeps the
     head where it is, exactly like the next-page case. *)
  let sequential =
    phys = t.last_phys.(disk) + 1 || (append && phys = t.last_phys.(disk))
  in
  let cost =
    t.request_overhead_ns
    + if sequential then t.transfer_ns else default_seek_ns + t.transfer_ns
  in
  let completion = start + cost in
  t.free_at.(disk) <- completion;
  t.last_phys.(disk) <- phys;
  Counter.add t.c_busy_ns cost;
  completion

(* Submit a read; returns its completion time (absolute ns).  Never
   draws faults: the WAL's log disk and a few tests want the pre-fault
   contract.  Demand reads in the buffer pool use [read_result]. *)
let read t ?earliest ~disk ~phys () =
  let earliest =
    match earliest with Some e -> e | None -> Clock.now t.clock
  in
  Counter.incr t.c_reads;
  service t ~earliest ~disk ~phys ()

(* Submit a read through the fault schedule.  The disk does the work
   (and charges busy time) whether or not the request then fails: an
   erroring sector still costs its positioning and (attempted) transfer. *)
let read_result t ?earliest ~disk ~phys () =
  let completion = read t ?earliest ~disk ~phys () in
  match draw_read_fault t ~disk ~phys with
  | `Ok -> Read_ok completion
  | `Corrupt spec -> Read_corrupt (completion, spec)
  | `Transient -> Read_error (completion, `Transient)
  | `Latent -> Read_error (completion, `Latent)

let write_service t ~append ~earliest ~disk ~phys =
  Counter.incr t.c_writes;
  let completion = service t ~append ~earliest ~disk ~phys () in
  if draw_write_fault t ~disk ~phys then
    (* controller-level retry of a transiently failed write *)
    service t ~append ~earliest:completion ~disk ~phys ()
  else completion

(* Submit an asynchronous write-back; the caller never waits for it. *)
let write t ~disk ~phys =
  ignore
    (write_service t ~append:false ~earliest:(Clock.now t.clock) ~disk ~phys
      : int)

(* Submit a write whose completion time the caller cares about (e.g. a log
   flush that must be durable before the committer proceeds).  [append]
   extends sequential treatment to a same-page continuation (a
   replica's append-only log device). *)
let write_sync t ?earliest ?(append = false) ~disk ~phys () =
  let earliest =
    match earliest with Some e -> e | None -> Clock.now t.clock
  in
  write_service t ~append ~earliest ~disk ~phys

(* Submit [n] physically contiguous pages starting at [phys] as ONE
   write request: positioning (unless sequential with the previous
   request) and the per-request overhead are paid once, plus [n]
   transfers.  Each covered page still draws its own write fault —
   coalescing batches the I/O, it does not skip media effects; a
   transiently failed page costs the controller a positioned retry
   within the run.  [disk.writes] counts all [n] pages, so page
   accounting matches the per-page path exactly; [disk.write_runs]
   counts the single request. *)
let write_run t ?earliest ~disk ~phys ~n () =
  if n <= 0 then invalid_arg "Disk_model.write_run";
  let earliest =
    match earliest with Some e -> e | None -> Clock.now t.clock
  in
  let start = max earliest t.free_at.(disk) in
  let cost =
    ref
      (t.request_overhead_ns
      + (n * t.transfer_ns)
      + if phys = t.last_phys.(disk) + 1 then 0 else default_seek_ns)
  in
  Counter.add t.c_writes n;
  Counter.incr t.c_write_runs;
  for i = 0 to n - 1 do
    if draw_write_fault t ~disk ~phys:(phys + i) then
      cost := !cost + default_seek_ns + t.transfer_ns
  done;
  let completion = start + !cost in
  t.free_at.(disk) <- completion;
  t.last_phys.(disk) <- phys + n - 1;
  Counter.add t.c_busy_ns !cost;
  completion

let counters t =
  [
    t.c_reads; t.c_writes; t.c_write_runs; t.c_busy_ns;
    t.c_fault_transient_read; t.c_fault_transient_write; t.c_fault_latent;
    t.c_fault_corrupt;
  ]

(* Completion time of the last submitted request across the farm: a
   durability barrier (e.g. a sharp checkpoint's data fsync) waits until
   here before declaring the queued writes stable. *)
let drain t = Array.fold_left max 0 t.free_at

let kv t = List.map Counter.kv (counters t)
let reads t = Counter.value t.c_reads
let writes t = Counter.value t.c_writes
let write_runs t = Counter.value t.c_write_runs
let reset_stats t = List.iter Counter.reset (counters t)

(* Forget positioning state and pending work, e.g. between experiments.
   Media fault state (latent sectors, schedules) persists: damage does
   not heal because an experiment ended. *)
let quiesce t =
  Array.fill t.free_at 0 t.n_disks 0;
  Array.fill t.last_phys 0 t.n_disks (-10)
