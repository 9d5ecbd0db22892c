module A = Float.Array

type config = {
  initial : float;
  min_timeout : float;
  max_timeout : float;
  quantile : float;
  multiplier : float;
  min_samples : int;
}

let default_config =
  {
    initial = 25.0;
    min_timeout = 5.0;
    max_timeout = 200.0;
    quantile = 0.95;
    multiplier = 3.0;
    min_samples = 8;
  }

(* A binary min-heap over the first [n] slots of a flat float array. *)
type heap = { mutable a : floatarray; mutable n : int }

(* The nearest-rank order statistic of rank [k] splits the samples into
   [lo], the [k] smallest, kept as a max-heap by storing them negated, and
   [hi], the rest; the statistic is [lo]'s root.  Each sample is held
   once, in one of the two heaps. *)
type t = { config : config; lo : heap; hi : heap }

let create ?(config = default_config) () =
  if config.quantile < 0.0 || config.quantile > 1.0 then
    invalid_arg "Rto.create: quantile out of [0,1]";
  {
    config;
    lo = { a = A.create 0; n = 0 };
    hi = { a = A.create 0; n = 0 };
  }

(* The helpers below take and return only ints: without flambda, a float
   crossing a call that is not inlined is boxed. *)

let sift_up a i =
  let x = A.unsafe_get a i in
  let i = ref i in
  while !i > 0 && A.unsafe_get a ((!i - 1) / 2) > x do
    let p = (!i - 1) / 2 in
    A.unsafe_set a !i (A.unsafe_get a p);
    i := p
  done;
  A.unsafe_set a !i x

let sift_down a n i =
  let x = A.unsafe_get a i in
  let i = ref i and settled = ref false in
  while not !settled do
    let l = (2 * !i) + 1 in
    if l >= n then settled := true
    else begin
      let c =
        if l + 1 < n && A.unsafe_get a (l + 1) < A.unsafe_get a l then l + 1
        else l
      in
      if A.unsafe_get a c < x then begin
        A.unsafe_set a !i (A.unsafe_get a c);
        i := c
      end
      else settled := true
    end
  done;
  A.unsafe_set a !i x

let reserve h =
  if h.n = A.length h.a then begin
    let grown = A.create (max 8 (2 * h.n)) in
    A.blit h.a 0 grown 0 h.n;
    h.a <- grown
  end

(* Moves [src]'s root onto [dst], negated, since the heaps store opposite
   signs. *)
let transfer src dst =
  reserve dst;
  A.unsafe_set dst.a dst.n (-.A.unsafe_get src.a 0);
  dst.n <- dst.n + 1;
  sift_up dst.a (dst.n - 1);
  src.n <- src.n - 1;
  if src.n > 0 then begin
    A.unsafe_set src.a 0 (A.unsafe_get src.a src.n);
    sift_down src.a src.n 0
  end

(* Nearest rank of quantile [q] among [n >= 1] samples, 1-based. *)
let rank q n =
  if q = 0.0 then 1 else min n (int_of_float (ceil (q *. float_of_int n)))

let observe t rtt =
  if rtt > 0.0 then begin
    let lo = t.lo in
    let into_lo = lo.n > 0 && rtt <= -.A.unsafe_get lo.a 0 in
    let h = if into_lo then lo else t.hi in
    reserve h;
    A.unsafe_set h.a h.n (if into_lo then -.rtt else rtt);
    h.n <- h.n + 1;
    sift_up h.a (h.n - 1);
    let k = rank t.config.quantile (lo.n + t.hi.n) in
    while lo.n > k do
      transfer lo t.hi
    done;
    while lo.n < k do
      transfer t.hi lo
    done
  end

let samples t = t.lo.n + t.hi.n

let timeout t =
  let c = t.config in
  if samples t < max 1 c.min_samples then c.initial
  else
    Float.min c.max_timeout
      (Float.max c.min_timeout
         (c.multiplier *. -.A.unsafe_get t.lo.a 0))
