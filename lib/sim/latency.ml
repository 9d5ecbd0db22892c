module Rng = Dsutil.Rng

type t = Constant of float | Uniform of float * float | Exponential of float

(* The draw is rebuilt here from [Rng.bits53] and written into the
   caller's slot: [Rng.float]'s result and this function's would each be
   a boxed float, once per message.  The arithmetic is exactly
   [Rng.float]'s followed by the transform, so each draw equals the one
   made through [Rng.float] bit for bit. *)
let sample_into t rng slot =
  match t with
  | Constant d -> Float.Array.set slot 0 d
  | Uniform (lo, hi) ->
    let u = float_of_int (Rng.bits53 rng) /. 9007199254740992.0 *. (hi -. lo) in
    Float.Array.set slot 0 (lo +. u)
  | Exponential mean ->
    let u = float_of_int (Rng.bits53 rng) /. 9007199254740992.0 in
    let u = if u <= 0.0 then 1e-300 else u in
    Float.Array.set slot 0 ((0.1 *. mean) +. (-.mean *. log u))

let mean = function
  | Constant d -> d
  | Uniform (lo, hi) -> (lo +. hi) /. 2.0
  | Exponential mean -> 1.1 *. mean

let pp ppf = function
  | Constant d -> Format.fprintf ppf "constant(%.2f)" d
  | Uniform (lo, hi) -> Format.fprintf ppf "uniform(%.2f, %.2f)" lo hi
  | Exponential mean -> Format.fprintf ppf "exponential(%.2f)" mean
