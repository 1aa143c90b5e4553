(* Range scans with jump-pointer I/O prefetching (paper Section 2.2), the
   one walker behind every index's [range_scan] and [range_scan_rev].

   When prefetching, a scan first searches its far end, so the I/O pump
   never runs past that leaf page; then it descends to its near end and
   walks the leaf pages, keeping up to [distance] of the next ones in
   flight, drawn from a jump-pointer cursor.  The walker owns the empty
   range, that bounding descent, the pump, every pin and unpin of a leaf
   page after the descent, the [Level_acc] bumps of the pages it pins
   (and of node steps, where the index counts nodes), the entry loop in
   both directions and the count; an index supplies only the [hooks] that
   read its layout.

   The callback [f] gets each entry before its window's loads are
   charged, so it must do no charged work; [Mem.walk_pairs] raises
   [Invalid_argument] if the clock moved across a window's callbacks.

   A leaf page holds a chain of nodes, each named by an int: an in-page
   line, never 0, for the fpB+-Trees, and always 0 for the page-granular
   trees, whose page is one node.  The charged accesses come in this
   order:
   - [descend] on the far key with [~cursor:false] (prefetching and
     bounded only; a pinned result is unpinned at once), then on the near
     key with [~cursor:prefetch];
   - the pump: [step] then [Buffer_pool.prefetch], until the window is
     full or the far page is issued;
   - a leaf page the descent left unpinned, and each sibling:
     [Buffer_pool.get], then [prefetch_page] (prefetching only), then
     [first]; a page the descent left pinned gets [prefetch_page] only;
   - per node: [count], [slot] while seeking, then the entries in range
     one window at a time, a window being a run whose keys share one
     cache line and whose values share one ([Mem.walk_pairs]): per
     entry a key read and a value read, in entry order; then one key
     read of the entry that ended the run, unless the node ran out
     (backward, a key above [end_key] is skipped and the walk resumes
     past it); then, unless the range ended, [next], and [sibling] when
     [next] leaves the page;
   - leaving a page: unpin it, one page step of the pump (one fewer
     prefetch in flight, then refill), and pin the sibling. *)

open Fpb_simmem
open Fpb_storage

(* How to read a node's entries: a key array and a parallel array of
   4-byte values. *)
type node = {
  count : Mem.region -> int -> int;
  slot : Mem.region -> int -> n:int -> int -> [ `Lower | `Upper ] -> int;
      (* [`Lower]: first entry >= key; [`Upper]: first entry > key *)
  keys : int -> int;  (* byte offset of a node's key 0 *)
  values : int -> int;  (* byte offset of its value 0 *)
}

type 'cur hooks = {
  descend : int -> cursor:bool -> int * (Mem.region * int) option * 'cur;
      (* the leaf page a key routes to; its region and node when the
         descent leaves it pinned; and a cursor already placed beside the
         routing entry, so its [step] yields the next leaf page in scan
         order ([cursor] says whether the scan will draw from it) *)
  step : 'cur -> int option;
  first : Mem.region -> seek:bool -> int -> int;
      (* the node a walked-into page starts at; [seek] asks for the node
         holding the given key instead *)
  next : Mem.region -> page:int -> int -> int;
      (* the node after this one inside the page, or 0 *)
  sibling : Mem.region -> int;  (* the next leaf page, or nil *)
  node : node;
  prefetch_page : Mem.region -> unit;  (* cache prefetch of a leaf page *)
  bump_nodes : bool;  (* each node step is a [Level_acc] leaf access *)
}

let nil = Page_store.nil

(* Keep up to [distance] prefetches in flight, drawing their targets from
   [next] and stopping after [last] (when [on]).  Returns the step a scan
   takes each time it moves on to another page or node. *)
let prefetcher ~distance ~on ~next ~issue ~last =
  let outstanding = ref 0 and finished = ref (not on) in
  let pump () =
    while (not !finished) && !outstanding < distance do
      match next () with
      | None -> finished := true
      | Some pid ->
          issue pid;
          incr outstanding;
          if pid = last then finished := true
    done
  in
  pump ();
  fun () ->
    if !outstanding > 0 then decr outstanding;
    pump ()

(* Visit node [nd]'s entries in [start_key, end_key] in scan order,
   counting them in [count]; [seek] starts at the near key's slot instead
   of the node's end.  Returns whether the range ended in this node.
   [Mem.walk_pairs] consumes the entries in range; the entry it stops at
   costs one charged key read.  A key past the far end ends the range;
   going backward, a key above [end_key] is skipped.  A forward walk
   takes every key up to [end_key]: seeking placed it at or past
   [start_key]. *)
let entries sim e ~rev ~seek ~start_key ~end_key ~count f r nd =
  let n = e.count r nd in
  let keys = e.keys nd and values = e.values nd in
  if rev then
    let rec go i =
      let j =
        Mem.walk_pairs sim r ~keys ~values ~n ~rev ~lo:start_key ~hi:end_key i f
      in
      count := !count + (i - j);
      j >= 0
      && (Mem.read_i32 sim r (keys + (Key.size * j)) < start_key || go (j - 1))
    in
    go (if seek then e.slot r nd ~n end_key `Upper - 1 else n - 1)
  else begin
    let i = if seek then e.slot r nd ~n start_key `Lower else 0 in
    let j =
      Mem.walk_pairs sim r ~keys ~values ~n ~rev ~lo:min_int ~hi:end_key i f
    in
    count := !count + (j - i);
    j < n && (ignore (Mem.read_i32 sim r (keys + (Key.size * j)) : int); true)
  end

(* The keys in [start_key, end_key], in ascending order or with [rev] in
   descending order through the backward sibling links and a backward
   cursor; returns how many.  [~bound:false] makes a forward scan skip
   the end-key search and so prefetch past its end page.  A forward
   scan seeks the start key in every node until an entry is visited; a
   reverse scan seeks the end key in its first node only. *)
let range_scan acc pool ~levels ~distance ~rev ?(bound = true) ~prefetch
    ~start_key ~end_key h f =
  let sim = Buffer_pool.sim pool in
  Sim.busy_op sim;
  if end_key < start_key then 0
  else begin
    let near, far = if rev then (end_key, start_key) else (start_key, end_key) in
    let last =
      if prefetch && (bound || rev) then begin
        let page, pinned, _ = h.descend far ~cursor:false in
        if pinned <> None then Buffer_pool.unpin pool page;
        page
      end
      else nil
    in
    let page, pinned, cur = h.descend near ~cursor:prefetch in
    (* nothing to prefetch when the scan starts on the far page *)
    let step =
      prefetcher ~distance ~on:(prefetch && page <> last)
        ~next:(fun () -> h.step cur)
        ~issue:(Buffer_pool.prefetch pool) ~last
    in
    let count = ref 0 and fresh = ref true in
    let seeking () = if rev then !fresh else !count = 0 in
    let rec visit page r line =
      let seek = seeking () in
      fresh := false;
      if entries sim h.node ~rev ~seek ~start_key ~end_key ~count f r line then
        Buffer_pool.unpin pool page
      else begin
        let line' = h.next r ~page line in
        if line' <> 0 then begin
          if h.bump_nodes then Level_acc.bump acc levels;
          visit page r line'
        end
        else begin
          let sib = h.sibling r in
          Buffer_pool.unpin pool page;
          if sib <> nil then begin
            step ();
            enter sib
          end
        end
      end
    and enter page =
      let r = Buffer_pool.get pool page in
      Level_acc.bump acc levels;
      if prefetch then h.prefetch_page r;
      visit page r (h.first r ~seek:(seeking ()) near)
    in
    (match pinned with
    | Some (r, line) ->
        if prefetch then h.prefetch_page r;
        visit page r line
    | None -> enter page);
    !count
  end
