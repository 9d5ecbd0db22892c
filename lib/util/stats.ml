(* Float state lives in a float-only sub-record ([acc]) and retained
   samples in a [floatarray]: both store flat, so [add] — which runs on
   the per-operation and per-reply hot paths (latency accumulators, RTT
   estimators) — allocates nothing beyond amortized sample-array growth.
   Inlining the float fields in the mixed record below would box two
   floats per update, and a sample list would cons five words per
   sample. *)
type acc = {
  mutable mean : float;
  mutable m2 : float;
  mutable min_v : float;
  mutable max_v : float;
}

type t = {
  mutable n : int;
  acc : acc;
  mutable samples : floatarray;  (* first [n] entries, insertion order *)
  mutable sorted : float array option; (* cache invalidated by [add] *)
}

let create () =
  {
    n = 0;
    acc = { mean = 0.0; m2 = 0.0; min_v = infinity; max_v = neg_infinity };
    samples = Float.Array.create 0;
    sorted = None;
  }

let add t x =
  (if t.n = Float.Array.length t.samples then begin
     let grown = Float.Array.create (max 8 (2 * t.n)) in
     Float.Array.blit t.samples 0 grown 0 t.n;
     t.samples <- grown
   end);
  Float.Array.set t.samples t.n x;
  t.n <- t.n + 1;
  let a = t.acc in
  let delta = x -. a.mean in
  a.mean <- a.mean +. (delta /. float_of_int t.n);
  a.m2 <- a.m2 +. (delta *. (x -. a.mean));
  if x < a.min_v then a.min_v <- x;
  if x > a.max_v then a.max_v <- x;
  t.sorted <- None

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.acc.mean
let total t = t.acc.mean *. float_of_int t.n
let variance t = if t.n < 2 then 0.0 else t.acc.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)
let min_value t =
  if t.n = 0 then invalid_arg "Stats.min_value: empty";
  t.acc.min_v

let max_value t =
  if t.n = 0 then invalid_arg "Stats.max_value: empty";
  t.acc.max_v

let sorted_samples t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.init t.n (fun i -> Float.Array.get t.samples i) in
    Array.sort Float.compare a;
    t.sorted <- Some a;
    a

let percentile t q =
  if t.n = 0 then invalid_arg "Stats.percentile: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.percentile: q out of range";
  let a = sorted_samples t in
  (* Nearest-rank; q = 0.0 maps straight to the minimum instead of
     computing the out-of-range rank -1 first. *)
  let idx =
    if q = 0.0 then 0 else int_of_float (ceil (q *. float_of_int t.n)) - 1
  in
  a.(min (t.n - 1) idx)

let ci95 t =
  if t.n < 2 then 0.0 else 1.96 *. stddev t /. sqrt (float_of_int t.n)

(* Replays [a]'s samples in insertion order, then [b]'s newest-first —
   exactly the order the former list representation produced
   ([rev_append a.samples b.samples] over newest-first lists), so merged
   Welford state is unchanged. *)
let add_newest_first t b =
  for i = b.n - 1 downto 0 do
    add t (Float.Array.get b.samples i)
  done

let merge a b =
  let t = create () in
  for i = 0 to a.n - 1 do
    add t (Float.Array.get a.samples i)
  done;
  add_newest_first t b;
  t

(* [merge (merge (create ()) a) b ...] without the intermediate copies. *)
let merge_all ts =
  let t = create () in
  List.iter (add_newest_first t) ts;
  t

let mean_of xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev_of xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean_of xs in
    let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    sqrt (ss /. float_of_int (List.length xs - 1))
