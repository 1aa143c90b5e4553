(* Batched lookup as sorted level-wise waves (docs/BATCHING.md), the one
   walker behind every index's [search_batch].

   A node is a [(page, line)] pair: [line] places a cache-line node inside
   its page for the cache-first fpB+-Tree and is always 0 for the
   page-granular trees.  The walker owns the sort, the per-level pin of
   the frontier's pages, the frontier dedup, the disk pipeline, the
   [Overloaded] split and every [Batch_stats] call; an index supplies
   only the [hooks] that read its nodes. *)

open Fpb_simmem
open Fpb_storage

type hooks = {
  lookahead : Mem.region -> int -> unit;
      (* cache prefetch of the next frontier node, issued before the
         current node's visit (and its trace stall window) opens *)
  enter : Mem.region -> int -> next:(Mem.region * int) option -> int;
      (* open a node's visit: the index's busy charge and cache prefetch
         of the node (and of [next], if it pipelines inside the visit);
         returns the entry count [route] and [lookup] get as [n] *)
  route : Mem.region -> int -> n:int -> int -> int * int;
      (* the child [(page, line)] a key routes to from a nonleaf node *)
  lookup : Mem.region -> int -> n:int -> int -> int option;
  search : int -> int option;  (* singleton descent, the split's floor *)
}

(* Pin each page under the frontier nodes [pgs] exactly once, in
   first-seen order (cache-first nodes of one level may share pages in
   any order), by [Buffer_pool.get_batch]'s policy for a [leaf] level or
   a nonleaf one.  Returns the pinned pages and each node's region. *)
let pin_level pool held ~leaf pgs =
  let slot = Hashtbl.create (2 * Array.length pgs) in
  let pages = ref [] in
  Array.iter
    (fun p ->
      if not (Hashtbl.mem slot p) then begin
        Hashtbl.add slot p (Hashtbl.length slot);
        pages := p :: !pages
      end)
    pgs;
  let pages = Array.of_list (List.rev !pages) in
  let regions = Buffer_pool.get_batch pool held ~leaf pages in
  (pages, Array.map (fun p -> regions.(Hashtbl.find slot p)) pgs)

(* One wave over the sorted probes [order.(lo..hi-1)].  Probes arrive
   sorted by key, so the probes routing through one node are consecutive
   and the frontier stays key-ordered: dedup is "same child as the
   previous probe".  Level [levels] is the leaf level.  Only one
   level's pages are pinned at a time, and [Buffer_pool.get_batch]
   unwinds its own pins on [Overloaded], so the exception escapes with
   nothing pinned and the caller can split. *)
let wave acc pool h ~root ~levels ~held keys order lo hi out =
  let np = hi - lo in
  Batch_stats.note_wave np;
  for _ = 1 to np do
    Sim.busy_op (Buffer_pool.sim pool)
  done;
  let cpg = Array.make np 0 and cln = Array.make np 0 in
  (* [(pgs.(g), lns.(g))] is the g-th unique node of the current level;
     [starts.(g) .. starts.(g+1)-1] its slice of sorted probes. *)
  let rec go pgs lns starts depth =
    let ng = Array.length pgs in
    let leaf = depth = levels in
    let pages, regs = pin_level pool held ~leaf pgs in
    let prev_pg = ref (-1) and prev_ln = ref (-1) in
    for g = 0 to ng - 1 do
      let page = pgs.(g) and line = lns.(g) and r = regs.(g) in
      let next = if g + 1 < ng then Some (regs.(g + 1), lns.(g + 1)) else None in
      Option.iter (fun (nr, nln) -> h.lookahead nr nln) next;
      let stall0 = Level_acc.stall_now acc in
      let n = h.enter r line ~next in
      for j = starts.(g) to starts.(g + 1) - 1 do
        let key = keys.(order.(j)) in
        if leaf then out.(order.(j)) <- h.lookup r line ~n key
        else begin
          let child_pg, child_ln = h.route r line ~n key in
          cpg.(j - lo) <- child_pg;
          cln.(j - lo) <- child_ln;
          (* Disk pipeline: async-read each newly discovered off-page
             child while the rest of this level is still being routed. *)
          if child_pg <> !prev_pg || child_ln <> !prev_ln then begin
            prev_pg := child_pg;
            prev_ln := child_ln;
            if child_pg <> page && not (Buffer_pool.is_resident pool child_pg)
            then begin
              Batch_stats.note_stall ();
              Buffer_pool.prefetch pool child_pg
            end
          end
        end
      done;
      (* Accounting convention (see Index_sig): one access per unique
         node per wave, however many probes shared it. *)
      Level_acc.note acc ~page ~depth ~stall0;
      Batch_stats.note_group (starts.(g + 1) - starts.(g))
    done;
    Array.iter (Buffer_pool.unpin pool) pages;
    if not leaf then begin
      (* Compress consecutive equal children into the next frontier. *)
      let fresh j = j = 0 || cpg.(j) <> cpg.(j - 1) || cln.(j) <> cln.(j - 1) in
      let ng' = ref 0 in
      for j = 0 to np - 1 do
        if fresh j then incr ng'
      done;
      let npg = Array.make !ng' 0 and nln = Array.make !ng' 0 in
      let nstarts = Array.make (!ng' + 1) hi in
      let g = ref 0 in
      for j = 0 to np - 1 do
        if fresh j then begin
          npg.(!g) <- cpg.(j);
          nln.(!g) <- cln.(j);
          nstarts.(!g) <- lo + j;
          incr g
        end
      done;
      go npg nln nstarts (depth + 1)
    end
  in
  go [| fst root |] [| snd root |] [| lo; hi |] 1

(* [Index_sig.S.search_batch] for the tree of [levels] levels rooted at
   node [root], whose pages each wave pins through its memo [held]: sort,
   then run one wave, splitting it in halves under [Overloaded] down to
   singleton [h.search]. *)
let search_batch acc pool ~root ~levels ~held (keys : int array) h =
  let m = Array.length keys in
  let out = Array.make m None in
  if m > 0 then begin
    let order = Array.init m Fun.id in
    Array.sort
      (fun a b ->
        let c = compare keys.(a) keys.(b) in
        if c <> 0 then c else compare a b)
      order;
    let rec run lo hi =
      if hi - lo = 1 then begin
        Batch_stats.note_wave 1;
        out.(order.(lo)) <- h.search keys.(order.(lo))
      end
      else
        try wave acc pool h ~root ~levels ~held keys order lo hi out
        with Buffer_pool.Overloaded _ ->
          let mid = (lo + hi) / 2 in
          run lo mid;
          run mid hi
    in
    run 0 m
  end;
  out
