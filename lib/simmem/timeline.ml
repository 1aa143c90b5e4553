(* Busy intervals of one shared resource, in absolute simulated time.

   A set of disjoint, non-adjacent half-open spans [start, end), sorted,
   in two flat int arrays.  A client replayed at a rewound time sees the
   gaps between other clients' spans instead of only their last release,
   so it waits only when its request really overlaps someone else's.

   Every operation has an O(1) path for a request at or after the last
   span's start, which is all a clock that never goes backwards
   produces; other requests binary-search the ends.  Spans that end at or
   before the floor are dropped only when the arrays fill up, so the hot
   paths never call out to compute the floor.  Shifts use explicit int
   loops: on major-heap arrays [Array.blit] goes through the write
   barrier element by element. *)

type t = {
  mutable starts : int array;
  mutable ends : int array;
  mutable n : int;
  floor : unit -> int;
}

let create ~floor =
  { starts = Array.make 8 0; ends = Array.make 8 0; n = 0; floor }

let clear t = t.n <- 0

let length t = t.n

(* Index of the first span whose end is > [x] (n if none).  Ends are
   strictly increasing. *)
let first_ending_after t x =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.ends.(mid) > x then hi := mid else lo := mid + 1
  done;
  !lo

let free_from t at =
  let n = t.n in
  if n = 0 || at >= t.ends.(n - 1) then at
  else
    let i = first_ending_after t at in
    if t.starts.(i) <= at then t.ends.(i) else at

let fit t ~at ~len =
  let n = t.n in
  if n = 0 || at >= t.ends.(n - 1) then at
  else if at >= t.starts.(n - 1) then t.ends.(n - 1)
  else if len <= 0 then free_from t at
  else begin
    let s = ref at and i = ref (first_ending_after t at) in
    while !i < n && !s + len > t.starts.(!i) do
      if t.ends.(!i) > !s then s := t.ends.(!i);
      incr i
    done;
    !s
  end

(* Remove [d] spans at [i] (d > 0) or open [-d] slots at [i] (d < 0). *)
let shift_from t i d =
  if d > 0 then
    for k = i to t.n - 1 - d do
      t.starts.(k) <- t.starts.(k + d);
      t.ends.(k) <- t.ends.(k + d)
    done
  else
    for k = t.n - 1 downto i do
      t.starts.(k - d) <- t.starts.(k);
      t.ends.(k - d) <- t.ends.(k)
    done;
  t.n <- t.n - d

(* The arrays are full: drop the spans no future request can reach, and
   double the arrays unless that freed a quarter of them, so the work
   stays O(1) per added span. *)
let make_room t =
  let floor = t.floor () in
  let n = t.n in
  if n > 0 && t.ends.(0) <= floor then
    if t.ends.(n - 1) <= floor then clear t
    else shift_from t 0 (first_ending_after t floor);
  let cap = Array.length t.starts in
  if 4 * t.n > 3 * cap then begin
    let s = Array.make (2 * cap) 0 and e = Array.make (2 * cap) 0 in
    for k = 0 to t.n - 1 do
      s.(k) <- t.starts.(k);
      e.(k) <- t.ends.(k)
    done;
    t.starts <- s;
    t.ends <- e
  end

let append t s e =
  if t.n = Array.length t.starts then make_room t;
  let n = t.n in
  t.starts.(n) <- s;
  t.ends.(n) <- e;
  t.n <- n + 1

let add t s e =
  if e <= s then false
  else begin
    let n = t.n in
    if n = 0 || s > t.ends.(n - 1) then begin
      append t s e;
      false
    end
    else if s >= t.starts.(n - 1) then begin
      let last = t.ends.(n - 1) in
      if e > last then t.ends.(n - 1) <- e;
      s < last
    end
    else begin
      if n = Array.length t.starts then make_room t;
      let n = t.n in
      (* spans i..j-1 touch [s, e) and merge with it *)
      let i = first_ending_after t (s - 1) in
      let j = ref i in
      while !j < n && t.starts.(!j) <= e do
        incr j
      done;
      let j = !j in
      if i = j then begin
        shift_from t i (-1);
        t.starts.(i) <- s;
        t.ends.(i) <- e;
        false
      end
      else begin
        (* a span that only touches an end of [s, e) does not overlap it *)
        let touching =
          Bool.to_int (t.ends.(i) = s) + Bool.to_int (t.starts.(j - 1) = e)
        in
        let overlaps = j - i > touching in
        if s < t.starts.(i) then t.starts.(i) <- s;
        t.ends.(i) <- max e t.ends.(j - 1);
        if j - i > 1 then shift_from t (i + 1) (j - i - 1);
        overlaps
      end
    end
  end
