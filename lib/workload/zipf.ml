module Rng = Dsutil.Rng

type t = { n : int; cdf : float array }

(* Plain loops over one float array: no [Array.init] closure, no fold and
   no captured float ref, so the only allocation is the table itself.
   The table first holds the weights 1/(i+1)^theta, then their running
   normalised sum, accumulated in key order. *)
let create ~n ~theta =
  if n < 1 then invalid_arg "Zipf.create: need at least one key";
  (* Written so that NaN fails the check too. *)
  if not (theta >= 0.0 && theta <= 2.0) then
    invalid_arg "Zipf.create: theta out of [0,2]";
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let w = 1.0 /. (float_of_int (i + 1) ** theta) in
    cdf.(i) <- w;
    total := !total +. w
  done;
  let total = !total in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (cdf.(i) /. total);
    cdf.(i) <- !acc
  done;
  cdf.(n - 1) <- 1.0;
  { n; cdf }

(* The uniform draw is [Rng.float rng 1.0] rebuilt from the raw bits, so
   it is not a boxed float; the binary search finds the first cdf entry
   >= u. *)
let sample t rng =
  let u = float_of_int (Rng.bits53 rng) /. 9007199254740992.0 in
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let pmf t i =
  if i < 0 || i >= t.n then invalid_arg "Zipf.pmf: key out of range";
  if i = 0 then t.cdf.(0) else t.cdf.(i) -. t.cdf.(i - 1)

let cdf t i =
  if i < 0 || i >= t.n then invalid_arg "Zipf.cdf: key out of range";
  t.cdf.(i)
