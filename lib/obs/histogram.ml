(* Log-linear (HDR-style) histogram: exact buckets below [sub_count],
   then power-of-two ranges each split into [sub_count] linear
   sub-buckets, giving a 1/sub_count relative-error bound on quantiles
   with a fixed few-KB footprint. *)

let sub_bits = 4
let sub_count = 1 lsl sub_bits (* 16 *)

(* Highest bucket index for 62-bit OCaml ints: exponent up to 62. *)
let n_buckets = sub_count + ((63 - sub_bits) * sub_count)

type t = {
  name : string;
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let make name =
  {
    name;
    buckets = Array.make n_buckets 0;
    count = 0;
    sum = 0;
    min_v = max_int;
    max_v = 0;
  }

let name t = t.name

(* Position of the most significant set bit of [v > 0] (0 for [v <= 1]):
   a binary search in six halving steps, enough for 63-bit ints. *)
let msb v =
  let v = ref v and m = ref 0 in
  if !v lsr 32 <> 0 then begin v := !v lsr 32; m := 32 end;
  if !v lsr 16 <> 0 then begin v := !v lsr 16; m := !m + 16 end;
  if !v lsr 8 <> 0 then begin v := !v lsr 8; m := !m + 8 end;
  if !v lsr 4 <> 0 then begin v := !v lsr 4; m := !m + 4 end;
  if !v lsr 2 <> 0 then begin v := !v lsr 2; m := !m + 2 end;
  if !v lsr 1 <> 0 then m := !m + 1;
  !m

let bucket_of v =
  if v < sub_count then v
  else
    let e = msb v in
    (* top sub_bits+1 bits select the sub-bucket within [2^e, 2^(e+1)) *)
    let sub = (v lsr (e - sub_bits)) - sub_count in
    sub_count + (((e - sub_bits) * sub_count) + sub)

(* Midpoint of the value range covered by bucket [i] (exact below
   sub_count, where ranges are single values). *)
let bucket_mid i =
  if i < sub_count then i
  else begin
    let b = i - sub_count in
    let e = (b / sub_count) + sub_bits in
    let sub = b mod sub_count in
    let lo = (sub_count + sub) lsl (e - sub_bits) in
    let width = 1 lsl (e - sub_bits) in
    lo + ((width - 1) / 2)
  end

let record t v =
  let v = if v > 0 then v else 0 in
  let b = bucket_of v in
  t.buckets.(b) <- t.buckets.(b) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = t.max_v
let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count

let percentile t p =
  if p < 0. || p > 100. then invalid_arg "Histogram.percentile";
  if t.count = 0 then 0
  else if p = 0. then min_value t
  else if p = 100. then t.max_v
  else begin
    let rank =
      max 1 (int_of_float (ceil (p /. 100. *. float_of_int t.count)))
    in
    let acc = ref 0 and i = ref 0 and result = ref t.max_v in
    (try
       while !i < n_buckets do
         acc := !acc + t.buckets.(!i);
         if !acc >= rank then begin
           result := bucket_mid !i;
           raise Exit
         end;
         incr i
       done
     with Exit -> ());
    (* clamp the bucket midpoint estimate to the observed range *)
    min (max !result (min_value t)) t.max_v
  end

let reset t =
  Array.fill t.buckets 0 n_buckets 0;
  t.count <- 0;
  t.sum <- 0;
  t.min_v <- max_int;
  t.max_v <- 0

let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("sum", Json.Int t.sum);
      ("min", Json.Int (min_value t));
      ("max", Json.Int t.max_v);
      ("mean", Json.Float (mean t));
      ("p50", Json.Int (percentile t 50.));
      ("p90", Json.Int (percentile t 90.));
      ("p95", Json.Int (percentile t 95.));
      ("p99", Json.Int (percentile t 99.));
      ("p999", Json.Int (percentile t 99.9));
    ]
