type t = {
  mutable data : float array;
  mutable size : int;
  mutable sorted : bool;
}

let create () = { data = [||]; size = 0; sorted = false }

let add t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let data = Array.make ncap 0.0 in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.sorted <- false

let count t = t.size

let fold f init t =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let total t = fold ( +. ) 0.0 t
let mean t = if t.size = 0 then 0.0 else total t /. float_of_int t.size

let stddev t =
  if t.size < 2 then 0.0
  else begin
    let m = mean t in
    let ss = fold (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 t in
    sqrt (ss /. float_of_int (t.size - 1))
  end

let min t = if t.size = 0 then 0.0 else fold Float.min infinity t
let max t = if t.size = 0 then 0.0 else fold Float.max neg_infinity t

(* Sorting the samples is most of the cost of summarising a large
   histogram.  When they hold no NaN and no negative zero, every two
   samples [Float.compare] calls equal are the same bits, so any correct
   sort leaves the same array: a merge sort specialised to floats (no
   comparison closure) then does the work.  Otherwise the generic sort
   runs, so the result never depends on which sort was taken. *)
let plain_floats (a : float array) n =
  let ok = ref true and i = ref 0 in
  while !ok && !i < n do
    let x = a.(!i) in
    if Float.is_nan x || (x = 0.0 && 1.0 /. x < 0.0) then ok := false;
    incr i
  done;
  !ok

let run_len = 16

let sort_plain (a : float array) n =
  (* insertion-sort runs of [run_len], then merge bottom-up through a
     scratch buffer, ping-ponging between the two *)
  let lo = ref 0 in
  while !lo < n do
    let hi = Int.min n (!lo + run_len) in
    for j = !lo + 1 to hi - 1 do
      let x = a.(j) in
      let k = ref (j - 1) in
      while !k >= !lo && a.(!k) > x do
        a.(!k + 1) <- a.(!k);
        decr k
      done;
      a.(!k + 1) <- x
    done;
    lo := hi
  done;
  let src = ref a and dst = ref (Array.make n 0.0) and width = ref run_len in
  while !width < n do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = Int.min n (!lo + !width) in
      let hi = Int.min n (mid + !width) in
      let p = ref !lo and q = ref mid and k = ref !lo in
      while !p < mid && !q < hi do
        if s.(!q) < s.(!p) then begin
          d.(!k) <- s.(!q);
          incr q
        end
        else begin
          d.(!k) <- s.(!p);
          incr p
        end;
        incr k
      done;
      Array.blit s !p d !k (mid - !p);
      Array.blit s !q d (!k + mid - !p) (hi - !q);
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  if !src != a then Array.blit !src 0 a 0 n

let ensure_sorted t =
  if not t.sorted then begin
    if plain_floats t.data t.size then sort_plain t.data t.size
    else begin
      let view = Array.sub t.data 0 t.size in
      Array.sort Float.compare view;
      Array.blit view 0 t.data 0 t.size
    end;
    t.sorted <- true
  end

let percentile t p =
  assert (p >= 0.0 && p <= 100.0);
  if t.size = 0 then 0.0
  else begin
    ensure_sorted t;
    let rank = p /. 100.0 *. float_of_int (t.size - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then t.data.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      (t.data.(lo) *. (1.0 -. frac)) +. (t.data.(hi) *. frac)
    end
  end

let count_above t v =
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    if t.data.(i) > v then Stdlib.incr n
  done;
  !n

let ci95_halfwidth t =
  if t.size < 2 then 0.0
  else 1.96 *. stddev t /. sqrt (float_of_int t.size)

let merge_into ~dst ~src =
  for i = 0 to src.size - 1 do
    add dst src.data.(i)
  done

let clear t =
  t.data <- [||];
  t.size <- 0;
  t.sorted <- false
