(* Range scans with jump-pointer I/O prefetching (paper Section 2.2), the
   one walker behind every paged index's [range_scan].

   Scans run in ascending key order.  When prefetching, a scan first
   searches its end key, so the I/O pump never runs past that leaf page;
   then it descends to its start key and walks the leaf pages forward,
   keeping up to [distance] of the next ones in flight, drawn from a
   jump-pointer cursor.  The walker owns the empty range, that bounding
   descent, the pump, every pin and unpin of a leaf page after the
   descent, the [Level_acc] bumps of the pages it pins (and of node
   steps, where the index counts nodes), the entry loop and the count;
   an index supplies only the [hooks] that read its layout.

   The callback [f] gets each entry before its window's loads are
   charged, so it must do no charged work; [Mem.walk_pairs] raises
   [Invalid_argument] if the clock moved across a window's callbacks.

   A leaf page holds a chain of nodes, each named by an int: an in-page
   line, never 0, for the fpB+-Trees, and always 0 for the page-granular
   trees, whose page is one node.  The charged accesses come in this
   order:
   - [descend] on the end key with [~cursor:false] (prefetching and
     bounded only; a pinned result is unpinned at once), then on the
     start key with [~cursor:prefetch];
   - the pump: [step] then [Buffer_pool.prefetch], until the window is
     full or the end page is issued;
   - a leaf page the descent left unpinned, and each sibling:
     [Buffer_pool.get], then [prefetch_page] (prefetching only), then
     [first]; a page the descent left pinned gets [prefetch_page] only;
   - per node: [count], [slot] while no entry has been visited, then the
     entries up to [end_key] one window at a time, a window being a run
     whose keys share one cache line and whose values share one
     ([Mem.walk_pairs]): per entry a key read and a value read, in entry
     order; then one key read of the entry that ended the run, unless
     the node ran out; then, unless the range ended, [next], and
     [sibling] when [next] leaves the page;
   - leaving a page: unpin it, one page step of the pump (one fewer
     prefetch in flight, then refill), and pin the sibling. *)

open Fpb_simmem
open Fpb_storage

(* How to read a node's entries: a key array and a parallel array of
   4-byte values. *)
type node = {
  count : Mem.region -> int -> int;
  slot : Mem.region -> int -> n:int -> int -> int;  (* first entry >= key *)
  keys : int -> int;  (* byte offset of a node's key 0 *)
  values : int -> int;  (* byte offset of its value 0 *)
}

type 'cur hooks = {
  descend : int -> cursor:bool -> int * (Mem.region * int) option * 'cur;
      (* the leaf page a key routes to; its region and node when the
         descent leaves it pinned; and a cursor already placed beside the
         routing entry, so its [step] yields the next leaf page ([cursor]
         says whether the scan will draw from it) *)
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

(* The keys in [start_key, end_key], in ascending order; returns how
   many.  [~bound:false] skips the end-key search and so prefetches past
   the end page.  The scan seeks the start key in every node until an
   entry is visited; after that, seeking has placed every key at or
   past [start_key], so a node's walk stops only at a key past
   [end_key]. *)
let range_scan acc pool ~levels ~distance ?(bound = true) ~prefetch ~start_key
    ~end_key h f =
  let sim = Buffer_pool.sim pool in
  Sim.busy_op sim;
  if end_key < start_key then 0
  else begin
    let last =
      if prefetch && bound then begin
        let page, pinned, _ = h.descend end_key ~cursor:false in
        if pinned <> None then Buffer_pool.unpin pool page;
        page
      end
      else nil
    in
    let page, pinned, cur = h.descend start_key ~cursor:prefetch in
    (* Keep up to [distance] prefetches in flight, stopping after [last];
       nothing to prefetch when the scan starts on the end page. *)
    let outstanding = ref 0 and pumping = ref (prefetch && page <> last) in
    let pump () =
      while !pumping && !outstanding < distance do
        match h.step cur with
        | None -> pumping := false
        | Some pid ->
            Buffer_pool.prefetch pool pid;
            incr outstanding;
            if pid = last then pumping := false
      done
    in
    pump ();
    let e = h.node and count = ref 0 in
    let rec visit page r nd =
      let n = e.count r nd in
      let keys = e.keys nd in
      let i = if !count = 0 then e.slot r nd ~n start_key else 0 in
      let j = Mem.walk_pairs sim r ~keys ~values:(e.values nd) ~n ~hi:end_key i f in
      count := !count + (j - i);
      if j < n then begin
        ignore (Mem.read_i32 sim r (keys + (Key.size * j)) : int);
        Buffer_pool.unpin pool page
      end
      else begin
        let nd' = h.next r ~page nd in
        if nd' <> 0 then begin
          if h.bump_nodes then Level_acc.bump acc levels;
          visit page r nd'
        end
        else begin
          let sib = h.sibling r in
          Buffer_pool.unpin pool page;
          if sib <> nil then begin
            if !outstanding > 0 then decr outstanding;
            pump ();
            enter sib
          end
        end
      end
    and enter page =
      let r = Buffer_pool.get pool page in
      Level_acc.bump acc levels;
      if prefetch then h.prefetch_page r;
      visit page r (h.first r ~seek:(!count = 0) start_key)
    in
    (match pinned with
    | Some (r, nd) ->
        if prefetch then h.prefetch_page r;
        visit page r nd
    | None -> enter page);
    !count
  end
