(* Extension experiment: variable-length keys (the paper defers these to
   its full version).  Compares the slotted baseline B+-Tree against the
   varkey disk-first fpB+-Tree on search and insert cycles for several key
   lengths, checking that the paper's fixed-key conclusions carry over. *)


let keys rng n ~len =
  (* sorted distinct fixed-length-ish random strings *)
  let tbl = Hashtbl.create (2 * n) in
  while Hashtbl.length tbl < n do
    let k =
      String.init len (fun _ -> Char.chr (97 + Fpb_workload.Prng.int rng 26))
    in
    Hashtbl.replace tbl k ()
  done;
  let arr = Array.of_seq (Hashtbl.to_seq_keys tbl) in
  Array.sort compare arr;
  Array.mapi (fun i k -> (k, i)) arr

let run scale =
  let n = match scale with Scale.Tiny -> 20_000 | Quick -> 60_000 | Full -> 300_000 in
  let ops = 2000 in
  let rows =
    List.map
      (fun len ->
        let rng = Fpb_workload.Prng.create 909 in
        let pairs = keys rng n ~len in
        let probes = Array.init ops (fun _ -> fst pairs.(Fpb_workload.Prng.int rng n)) in
        let inserts =
          Array.init ops (fun _ ->
              String.init (len + 1) (fun _ ->
                  Char.chr (97 + Fpb_workload.Prng.int rng 26)))
        in
        let measure build search insert =
          let sys = Setup.make ~page_size:16384 () in
          let t = build sys in
          let m1 =
            Setup.measure_cycles sys (fun () -> Array.iter (search t) probes)
          in
          let m2 =
            Setup.measure_cycles sys (fun () -> Array.iter (insert t) inserts)
          in
          (m1.Setup.total, m2.Setup.total)
        in
        let bs, bi =
          measure
            (fun sys ->
              let t = Fpb_varkey.Vk_btree.create sys.Setup.pool in
              Fpb_varkey.Vk_btree.bulkload t pairs;
              t)
            (fun t k -> ignore (Fpb_varkey.Vk_btree.search t k))
            (fun t k -> ignore (Fpb_varkey.Vk_btree.insert t k 1))
        in
        let fs, fi =
          measure
            (fun sys ->
              let t = Fpb_varkey.Vk_disk_first.create ~avg_key_len:len sys.Setup.pool in
              Fpb_varkey.Vk_disk_first.bulkload t pairs;
              t)
            (fun t k -> ignore (Fpb_varkey.Vk_disk_first.search t k))
            (fun t k -> ignore (Fpb_varkey.Vk_disk_first.insert t k 1))
        in
        [
          string_of_int len;
          Table.cell_mcycles bs;
          Table.cell_mcycles fs;
          Table.cell_f (float_of_int bs /. float_of_int fs);
          Table.cell_mcycles bi;
          Table.cell_mcycles fi;
          Table.cell_f (float_of_int bi /. float_of_int fi);
        ])
      [ 8; 20; 40 ]
  in
  Table.make ~id:"ext-varkey"
    ~title:
      (Printf.sprintf
         "Extension: variable-length keys, %d keys, %d ops (Mcycles, 16KB)" n ops)
    ~header:
      [
        "key len"; "B+tree search"; "fpB+ search"; "speedup";
        "B+tree insert"; "fpB+ insert"; "speedup";
      ]
    rows
