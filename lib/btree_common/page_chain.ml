(* The page level shared by every paged B+-Tree (see the interface).
   Every tree's simulated costs depend on the order of the charged
   accesses here: an edit that reorders them moves reported numbers. *)

open Fpb_simmem
open Fpb_storage

type links = { prev : int; next : int }

let nil = Page_store.nil

(* A page's region for [Mem.peek_*] reads, pinned only for the lookup. *)
let peek pool page =
  let r = Buffer_pool.get pool page in
  Buffer_pool.unpin pool page;
  r

let splice l pool ~page r ~right rr =
  let sim = Buffer_pool.sim pool in
  let old_next = Mem.read_i32 sim r l.next in
  Mem.write_i32 sim rr l.next old_next;
  Mem.write_i32 sim rr l.prev page;
  Mem.write_i32 sim r l.next right;
  if old_next <> nil then
    Buffer_pool.with_page pool old_next (fun onr ->
        Mem.write_i32 sim onr l.prev right;
        Buffer_pool.mark_dirty pool old_next)

let build l pool ~fanout ~fill ~make pairs =
  let sim = Buffer_pool.sim pool in
  (* at least two entries a page, or a level of one-entry nonleaf pages
     would never narrow to a root *)
  let per_page = max 2 (int_of_float (float_of_int fanout *. fill)) in
  let level ~leaf entries =
    let n = Array.length entries in
    let n_pages = (n + per_page - 1) / per_page in
    let ups = Array.make n_pages (0, 0) in
    let prev = ref nil in
    for p = 0 to n_pages - 1 do
      let lo = p * per_page in
      let page, r = make ~leaf entries lo (min per_page (n - lo)) in
      Mem.write_i32 sim r l.prev !prev;
      if !prev <> nil then begin
        Buffer_pool.with_page pool !prev (fun pr -> Mem.write_i32 sim pr l.next page);
        Buffer_pool.mark_dirty pool !prev
      end;
      Buffer_pool.unpin pool page;
      prev := page;
      ups.(p) <- (fst entries.(lo), page)
    done;
    ups
  in
  let rec up level_pages levels =
    match level_pages with
    | [| (_, root) |] -> (root, levels)
    | _ -> up (level ~leaf:false level_pages) (levels + 1)
  in
  up (level ~leaf:true pairs) 1

let rec propagate ~insert ~grow path sep child =
  match path with
  | [] -> grow sep child
  | parent :: rest -> (
      match insert parent sep child with
      | None -> ()
      | Some (sep, right) -> propagate ~insert ~grow rest sep right)

let iter_leaves l pool ~root ~down f =
  let rec leftmost page depth =
    let child = down ~depth page in
    if child = nil then page else leftmost child (depth + 1)
  in
  let rec walk page =
    if page <> nil then begin
      let r = peek pool page in
      f r;
      walk (Mem.peek_i32 r l.next)
    end
  in
  walk (leftmost root 1)

let fail fmt = Fmt.kstr failwith fmt

let check l pool leaves =
  let rec walk ~prev page acc =
    if page = nil then List.rev acc
    else begin
      let r = peek pool page in
      let back = Mem.peek_i32 r l.prev in
      if back <> prev then fail "page %d: prev link %d, not %d" page back prev;
      walk ~prev:page (Mem.peek_i32 r l.next) (page :: acc)
    end
  in
  match leaves with
  | [] -> ()
  | first :: _ ->
      if walk ~prev:nil first [] <> leaves then
        fail "page chain disagrees with tree order"

let meta ~root ~levels ~n_pages = [ root; levels; n_pages ]

let restore_meta ~name = function
  | [ root; levels; n_pages ] -> (root, levels, n_pages)
  | _ -> invalid_arg (name ^ ".restore_meta: bad shape")
