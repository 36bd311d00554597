(* DDSketch-style streaming quantile sketch.

   Observations land in log-spaced buckets: x > 0 goes to bucket
   ceil(ln x / ln gamma), so bucket i covers (gamma^(i-1), gamma^i] and
   the bucket midpoint 2*gamma^i/(gamma+1) is within relative error
   alpha of every value in it.  Buckets live in a contiguous int array
   with a base index; the array grows geometrically and, past
   [max_bins], the lowest buckets collapse into one so memory stays
   fixed no matter the stream.  A mirrored store handles negatives and a
   dedicated bucket holds |x| <= 1e-12 (including exact zeros, which the
   log map cannot place). *)

type store = {
  mutable bins : int array; (* [||] until first insert *)
  mutable base : int; (* bucket index represented by bins.(0) *)
  mutable lo : int; (* lowest used bucket index *)
  mutable hi : int; (* highest used bucket index *)
  mutable n : int; (* total count held by this store *)
}

(* The running float state lives in an all-float record: those are
   flat in the OCaml value model, so the per-add stores are unboxed (as
   mutable float fields of the mixed record [t] they would box a fresh
   float per add).  [last] memoises the last magnitude [add] mapped to
   a bucket, whose index is [last_idx]: streams that repeat a value
   (lock hold times on the cost atoms) then skip the log of [index]. *)
type floats = {
  mutable sum : float;
  mutable mn : float; (* +inf when empty *)
  mutable mx : float; (* -inf when empty *)
  mutable last : float; (* 0.0, never a bucketed magnitude, until the first add *)
}

type t = {
  alpha : float;
  gamma : float;
  log_gamma : float;
  max_bins : int;
  pos : store;
  neg : store;
  mutable zero : int;
  mutable count : int;
  f : floats;
  mutable last_idx : int;
}

let min_pos = 1e-12

let new_store () = { bins = [||]; base = 0; lo = 0; hi = -1; n = 0 }

let create ?(accuracy = 0.005) ?(max_bins = 4096) () =
  if not (accuracy > 0.0 && accuracy < 1.0) then
    invalid_arg "Sketch.create: accuracy outside (0, 1)";
  if max_bins < 16 then invalid_arg "Sketch.create: max_bins < 16";
  let gamma = (1.0 +. accuracy) /. (1.0 -. accuracy) in
  {
    alpha = accuracy;
    gamma;
    log_gamma = Float.log gamma;
    max_bins;
    pos = new_store ();
    neg = new_store ();
    zero = 0;
    count = 0;
    f = { sum = 0.0; mn = Float.infinity; mx = Float.neg_infinity; last = 0.0 };
    last_idx = 0;
  }

let accuracy t = t.alpha
let count t = t.count
let total t = t.f.sum
let mean t = if t.count = 0 then 0.0 else t.f.sum /. float_of_int t.count
let min t = if t.count = 0 then 0.0 else t.f.mn
let max t = if t.count = 0 then 0.0 else t.f.mx
let bins t = Array.length t.pos.bins + Array.length t.neg.bins

(* Bucket index for a magnitude m > min_pos. *)
let[@inline] index t m = int_of_float (Float.ceil (Float.log m /. t.log_gamma))

(* Midpoint value of bucket i: within relative error alpha of every
   sample the bucket holds. *)
let value_of t i = 2.0 *. Float.exp (float_of_int i *. t.log_gamma) /. (t.gamma +. 1.0)

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

(* Add [c] observations to bucket [idx] of [st], growing the array or
   collapsing the lowest buckets as needed to respect [max_bins]. *)
let insert_slow max_bins st idx c =
  if Array.length st.bins = 0 then begin
    st.bins <- Array.make 32 0;
    st.base <- idx
  end;
  if st.n = 0 then begin
    st.lo <- idx;
    st.hi <- idx
  end;
  let lo = Stdlib.min st.lo idx and hi = Stdlib.max st.hi idx in
  (* Clamp the span: everything below [lo] folds into the lowest kept
     bucket, including the incoming index itself when it falls there. *)
  let lo = if hi - lo + 1 > max_bins then hi - max_bins + 1 else lo in
  let idx = if idx < lo then lo else idx in
  if lo < st.base || hi > st.base + Array.length st.bins - 1 then begin
    let span = hi - lo + 1 in
    let cap = Stdlib.min max_bins (next_pow2 span 32) in
    let nb = Array.make (Stdlib.max cap span) 0 in
    if st.n > 0 then
      for i = st.lo to st.hi do
        let v = st.bins.(i - st.base) in
        if v > 0 then begin
          let j = if i < lo then lo else i in
          nb.(j - lo) <- nb.(j - lo) + v
        end
      done;
    st.bins <- nb;
    st.base <- lo
  end
  else if st.n > 0 && lo > st.lo then
    (* Collapse without reallocation: fold the dropped prefix in place. *)
    for i = st.lo to lo - 1 do
      let v = st.bins.(i - st.base) in
      if v > 0 then begin
        st.bins.(i - st.base) <- 0;
        st.bins.(lo - st.base) <- st.bins.(lo - st.base) + v
      end
    done;
  st.bins.(idx - st.base) <- st.bins.(idx - st.base) + c;
  st.lo <- lo;
  st.hi <- hi;
  st.n <- st.n + c

let insert max_bins st idx c =
  if st.n > 0 && idx >= st.lo && idx <= st.hi then begin
    (* inside the used span: no growth, no collapse *)
    st.bins.(idx - st.base) <- st.bins.(idx - st.base) + c;
    st.n <- st.n + c
  end
  else insert_slow max_bins st idx c

(* [index] is a pure function of the magnitude, so a memo hit gives
   the bucket the log would. *)
let[@inline] index_memo t m =
  if (m : float) = t.f.last then t.last_idx
  else begin
    let i = index t m in
    t.f.last <- m;
    t.last_idx <- i;
    i
  end

let add t x =
  if x > min_pos then insert t.max_bins t.pos (index_memo t x) 1
  else if x < -.min_pos then insert t.max_bins t.neg (index_memo t (-.x)) 1
  else t.zero <- t.zero + 1;
  t.count <- t.count + 1;
  t.f.sum <- t.f.sum +. x;
  if x < t.f.mn then t.f.mn <- x;
  if x > t.f.mx then t.f.mx <- x

exception Found of float

let percentile t p =
  if t.count = 0 then 0.0
  else begin
    let p = if p < 0.0 then 0.0 else if p > 100.0 then 100.0 else p in
    let rank = p /. 100.0 *. float_of_int (t.count - 1) in
    let k = int_of_float (Float.floor (rank +. 0.5)) in
    let cum = ref 0 in
    let v =
      try
        (* Negatives in ascending value order = descending magnitude index. *)
        for i = t.neg.hi downto t.neg.lo do
          cum := !cum + t.neg.bins.(i - t.neg.base);
          if !cum > k then raise (Found (-.value_of t i))
        done;
        cum := !cum + t.zero;
        if !cum > k then 0.0
        else begin
          for i = t.pos.lo to t.pos.hi do
            cum := !cum + t.pos.bins.(i - t.pos.base);
            if !cum > k then raise (Found (value_of t i))
          done;
          (* Unreachable: cumulative counts sum to t.count > k. *)
          t.f.mx
        end
      with Found v -> v
    in
    if v < t.f.mn then t.f.mn else if v > t.f.mx then t.f.mx else v
  end

(* Count held by [st] in bucket indices [a, b] (inclusive). *)
let sum_range st a b =
  if st.n = 0 then 0
  else begin
    let a = Stdlib.max a st.lo and b = Stdlib.min b st.hi in
    let acc = ref 0 in
    for i = a to b do
      acc := !acc + st.bins.(i - st.base)
    done;
    !acc
  end

let count_above t v =
  if t.count = 0 || v >= t.f.mx then 0
  else if v < t.f.mn then t.count
  else if v > min_pos then sum_range t.pos (index t v + 1) max_int
  else if v >= -.min_pos then t.pos.n
  else
    (* v < -min_pos: everything positive or zero, plus the negatives of
       strictly smaller magnitude. *)
    t.pos.n + t.zero + sum_range t.neg min_int (index t (-.v) - 1)

let merge_store max_bins ~dst ~src =
  if src.n > 0 then
    for i = src.lo to src.hi do
      let c = src.bins.(i - src.base) in
      if c > 0 then insert max_bins dst i c
    done

let merge_into ~dst ~src =
  if not (Float.equal dst.gamma src.gamma) || dst.max_bins <> src.max_bins then
    invalid_arg "Sketch.merge_into: incompatible accuracy or max_bins";
  merge_store dst.max_bins ~dst:dst.pos ~src:src.pos;
  merge_store dst.max_bins ~dst:dst.neg ~src:src.neg;
  dst.zero <- dst.zero + src.zero;
  dst.count <- dst.count + src.count;
  dst.f.sum <- dst.f.sum +. src.f.sum;
  if src.f.mn < dst.f.mn then dst.f.mn <- src.f.mn;
  if src.f.mx > dst.f.mx then dst.f.mx <- src.f.mx

let copy_store st =
  { bins = Array.copy st.bins; base = st.base; lo = st.lo; hi = st.hi; n = st.n }

(* [f] is mutable state too (running floats and the memo): copy it. *)
let copy t =
  {
    t with
    pos = copy_store t.pos;
    neg = copy_store t.neg;
    f = { t.f with sum = t.f.sum };
  }

let clear_store st =
  Array.fill st.bins 0 (Array.length st.bins) 0;
  st.lo <- 0;
  st.hi <- -1;
  st.n <- 0

let clear t =
  clear_store t.pos;
  clear_store t.neg;
  t.zero <- 0;
  t.count <- 0;
  t.f.sum <- 0.0;
  t.f.mn <- Float.infinity;
  t.f.mx <- Float.neg_infinity
