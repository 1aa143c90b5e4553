(* Optimal node-size selection (paper, Section 3.1.1 and Table 2).

   The paper's goal G: "maximize the page fan-out while maintaining the
   analytical search cost to be within 10% of the optimal."  The analytical
   cost of searching an L-level in-page tree with w-line nonleaf nodes and
   x-line leaf nodes is

     cost = (L-1) * (T1 + (w-1)*Tnext) + T1 + (x-1)*Tnext.

   Comparing configurations with different fan-outs requires normalising by
   how much of the overall (multi-page) search a page resolves: a page of
   fan-out F resolves log2(F) bits of the search, so the figure of merit is
   cost / ln(fan-out) — the total root-to-leaf cost of a tree over N keys is
   proportional to this for any N.  With the layout constants of
   [Layout], this procedure reproduces the paper's Table 2 node sizes and
   fan-outs exactly (470/961/1953/4017 disk-first, 497/994/2001/4029
   cache-first, 496/1008/2032/4064 micro-indexing). *)

type disk_first = {
  df_page_size : int;
  df_w : int;  (* nonleaf in-page node size, lines *)
  df_x : int;  (* leaf in-page node size, lines *)
  df_levels : int;  (* in-page tree levels *)
  df_root_fanout : int;  (* restricted root fan-out (= nonleaf cap if unrestricted) *)
  df_nonleaf_cap : int;
  df_leaf_cap : int;
  df_fanout : int;  (* page fan-out *)
  df_cost : int;  (* analytic in-page search cost, cycles *)
  df_ratio : float;  (* cost/ln(fanout) relative to the optimum *)
}

type cache_first = {
  cf_page_size : int;
  cf_w : int;  (* node size, lines (same for leaf and nonleaf) *)
  cf_nodes_per_page : int;
  cf_leaf_cap : int;
  cf_nonleaf_cap : int;
  cf_fanout : int;  (* leaf-page fan-out *)
  cf_cost : int;  (* analytic per-node search cost, cycles *)
  cf_ratio : float;
}

type micro_index = {
  mi_page_size : int;
  mi_sub_lines : int;  (* sub-array size, lines *)
  mi_n_sub : int;  (* number of sub-arrays (micro-index entries) *)
  mi_fanout : int;
  mi_cost : int;  (* analytic in-page search cost, cycles *)
  mi_ratio : float;
}

let node_cost ~t1 ~tnext lines = t1 + ((lines - 1) * tnext)

(* --- Disk-first ---------------------------------------------------------- *)

(* Best (levels, root_fanout, page_fanout, cost) for node sizes (w, x):
   maximum fan-out, then minimum cost.  Levels beyond 4 never help for the
   page sizes considered. *)
let df_best_shape ~t1 ~tnext ~line_size ~usable_lines w x =
  let fn = Layout.df_nonleaf_capacity ~line_size w in
  let fl = Layout.df_leaf_capacity ~line_size x in
  let best = ref None in
  let consider levels root_fanout fanout cost =
    match !best with
    | Some (_, _, f, c) when f > fanout || (f = fanout && c <= cost) -> ()
    | _ -> best := Some (levels, root_fanout, fanout, cost)
  in
  if x <= usable_lines then consider 1 0 fl (node_cost ~t1 ~tnext x);
  if fn >= 2 then
    for levels = 2 to 4 do
      (* nonleaf nodes below the root fan out fully; the root's fan-out r is
         restricted to whatever fits (Figure 7(a)). *)
      let full = int_of_float (float_of_int fn ** float_of_int (levels - 2)) in
      (* per unit of root fan-out: inner nonleaf nodes and leaf nodes *)
      let inner_per_r =
        let rec go i acc = if i > levels - 2 then acc else go (i + 1) (acc + int_of_float (float_of_int fn ** float_of_int (i - 1))) in
        go 1 0
      in
      let leaves_per_r = full in
      let budget = usable_lines - w in
      let per_r = (inner_per_r * w) + (leaves_per_r * x) in
      if per_r > 0 then begin
        let r = min fn (budget / per_r) in
        if r >= 1 then begin
          let fanout = r * leaves_per_r * fl in
          let cost =
            ((levels - 1) * node_cost ~t1 ~tnext w) + node_cost ~t1 ~tnext x
          in
          consider levels r fanout cost
        end
      end
    done;
  !best

let disk_first ?(t1 = 150) ?(tnext = 10) ?(line_size = 64) ~page_size () =
  let usable_lines = (page_size / line_size) - Layout.df_page_header_lines in
  let max_node = min 32 usable_lines in
  let candidates = ref [] in
  for w = 1 to max_node do
    for x = 1 to max_node do
      match df_best_shape ~t1 ~tnext ~line_size ~usable_lines w x with
      | Some (levels, r, fanout, cost) when fanout >= 2 ->
          let metric = float_of_int cost /. log (float_of_int fanout) in
          candidates := (w, x, levels, r, fanout, cost, metric) :: !candidates
      | _ -> ()
    done
  done;
  let min_metric =
    List.fold_left (fun acc (_, _, _, _, _, _, m) -> min acc m) infinity !candidates
  in
  let best = ref None in
  List.iter
    (fun (w, x, levels, r, fanout, cost, metric) ->
      if metric <= 1.1 *. min_metric then
        match !best with
        | Some (_, _, _, _, f, c, _) when f > fanout || (f = fanout && c <= cost)
          ->
            ()
        | _ -> best := Some (w, x, levels, r, fanout, cost, metric))
    !candidates;
  match !best with
  | None -> invalid_arg "Tuning.disk_first: page too small"
  | Some (w, x, levels, r, fanout, cost, metric) ->
      {
        df_page_size = page_size;
        df_w = w;
        df_x = x;
        df_levels = levels;
        df_root_fanout = r;
        df_nonleaf_cap = Layout.df_nonleaf_capacity ~line_size w;
        df_leaf_cap = Layout.df_leaf_capacity ~line_size x;
        df_fanout = fanout;
        df_cost = cost;
        df_ratio = metric /. min_metric;
      }

(* --- Cache-first --------------------------------------------------------- *)

let cache_first ?(t1 = 150) ?(tnext = 10) ?(line_size = 64) ~page_size () =
  let usable_lines = (page_size / line_size) - Layout.cf_page_header_lines in
  (* The per-node figure of merit is independent of the page size: a search
     visits log(N)/log(nonleaf capacity) nodes of cost T1+(w-1)*Tnext. *)
  let metric w =
    let fn = Layout.cf_nonleaf_capacity ~line_size w in
    if fn < 2 then infinity
    else float_of_int (node_cost ~t1 ~tnext w) /. log (float_of_int fn)
  in
  let min_metric = ref infinity in
  for w = 1 to 32 do
    if metric w < !min_metric then min_metric := metric w
  done;
  let best = ref None in
  for w = 1 to min 32 usable_lines do
    let m = metric w in
    if m <= 1.1 *. !min_metric then begin
      let nodes = usable_lines / w in
      let fanout = nodes * Layout.cf_leaf_capacity ~line_size w in
      match !best with
      | Some (_, _, f, bm) when f > fanout || (f = fanout && bm <= m) -> ()
      | _ -> best := Some (w, nodes, fanout, m)
    end
  done;
  match !best with
  | None -> invalid_arg "Tuning.cache_first: page too small"
  | Some (w, nodes, fanout, m) ->
      {
        cf_page_size = page_size;
        cf_w = w;
        cf_nodes_per_page = nodes;
        cf_leaf_cap = Layout.cf_leaf_capacity ~line_size w;
        cf_nonleaf_cap = Layout.cf_nonleaf_capacity ~line_size w;
        cf_fanout = fanout;
        cf_cost = node_cost ~t1 ~tnext w;
        cf_ratio = m /. !min_metric;
      }

(* --- Micro-indexing ------------------------------------------------------ *)

let micro_index ?(t1 = 150) ?(tnext = 10) ?(line_size = 64) ~page_size () =
  (* Sub-arrays are prefetched like pB+-Tree nodes, whose useful widths top
     out at 8 lines; larger sub-arrays stop behaving like one prefetch
     group. *)
  let candidates = ref [] in
  for s = 1 to 8 do
    let fanout = Layout.mi_max_fanout ~page_size ~line_size ~sub_lines:s in
    if fanout >= 2 then begin
      let keys_per_sub = line_size * s / Layout.key_size in
      let n_sub = (fanout + keys_per_sub - 1) / keys_per_sub in
      let m = Layout.mi_micro_lines ~line_size ~n_sub in
      (* Search = prefetched scan of the micro-index + prefetched binary
         search of one key sub-array (pointer access folded into the leaf
         cost as in the fpB+-Tree model). *)
      let cost = node_cost ~t1 ~tnext m + node_cost ~t1 ~tnext s in
      let metric = float_of_int cost /. log (float_of_int fanout) in
      candidates := (s, n_sub, fanout, cost, metric) :: !candidates
    end
  done;
  let min_metric =
    List.fold_left (fun acc (_, _, _, _, m) -> min acc m) infinity !candidates
  in
  let best = ref None in
  List.iter
    (fun (s, n_sub, fanout, cost, metric) ->
      if metric <= 1.1 *. min_metric then
        match !best with
        | Some (bs, _, f, _, bm)
          when f > fanout
               || (f = fanout && (bm < metric || (bm = metric && bs <= s))) ->
            ()
        | _ -> best := Some (s, n_sub, fanout, cost, metric))
    (List.rev !candidates);
  match !best with
  | None -> invalid_arg "Tuning.micro_index: page too small"
  | Some (s, n_sub, fanout, cost, metric) ->
      {
        mi_page_size = page_size;
        mi_sub_lines = s;
        mi_n_sub = n_sub;
        mi_fanout = fanout;
        mi_cost = cost;
        mi_ratio = metric /. min_metric;
      }
