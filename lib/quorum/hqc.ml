module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng

type t = { depth : int; s : int; r : int; w : int; n : int }

let pow b e =
  let rec go acc e = if e = 0 then acc else go (acc * b) (e - 1) in
  go 1 e

let n_of_depth l = pow 3 l

let create_general ~depth ~s ~r ~w =
  if depth < 0 then invalid_arg "Hqc.create: negative depth";
  if s < 1 then invalid_arg "Hqc.create: branching must be positive";
  if r < 1 || r > s || w < 1 || w > s then
    invalid_arg "Hqc.create: thresholds out of [1, s]";
  if r + w <= s then invalid_arg "Hqc.create: need r + w > s";
  if 2 * w <= s then invalid_arg "Hqc.create: need 2w > s";
  { depth; s; r; w; n = pow s depth }

let create ~depth = create_general ~depth ~s:3 ~r:2 ~w:2

let of_n ~n =
  if n < 1 then invalid_arg "Hqc.of_n: need at least one replica";
  let rec fit l = if n_of_depth (l + 1) > n then l else fit (l + 1) in
  create ~depth:(fit 0)

let name _ = "HQC"
let universe_size t = t.n
let universe t = t.n
let depth t = t.depth

(* The subtree at [lo] of size [len] (a power of s) covers the leaves
   lo .. lo+len-1.  A quorum needs subquorums from [threshold] of its s
   children. *)
let rec collect t ~alive ~rng ~threshold lo len =
  if len = 1 then
    if Bitset.mem alive lo then Some (Bitset.of_list t.n [ lo ]) else None
  else begin
    let child = len / t.s in
    let order = Array.init t.s Fun.id in
    Rng.shuffle rng order;
    let sub i = collect t ~alive ~rng ~threshold (lo + (order.(i) * child)) child in
    let rec gather i acc got =
      if got = threshold then Some acc
      else if i = t.s then None
      else begin
        match sub i with
        | Some q -> gather (i + 1) (Bitset.union acc q) (got + 1)
        | None -> gather (i + 1) acc got
      end
    in
    gather 0 (Bitset.create t.n) 0
  end

let read_quorum t ~alive ~rng = collect t ~alive ~rng ~threshold:t.r 0 t.n
let write_quorum t ~alive ~rng = collect t ~alive ~rng ~threshold:t.w 0 t.n

(* All ways of choosing [threshold] of the s children and combining their
   quorum families. *)
let rec combinations k = function
  | _ when k = 0 -> Seq.return []
  | [] -> Seq.empty
  | x :: rest ->
    Seq.append
      (Seq.map (fun tail -> x :: tail) (combinations (k - 1) rest))
      (combinations k rest)

let rec enum t ~threshold lo len =
  if len = 1 then Seq.return (Bitset.of_list t.n [ lo ])
  else begin
    let child = len / t.s in
    let children = List.init t.s (fun i -> lo + (i * child)) in
    Seq.concat_map
      (fun chosen ->
        List.fold_left
          (fun acc c ->
            Seq.concat_map
              (fun combined ->
                Seq.map (fun q -> Bitset.union combined q)
                  (enum t ~threshold c child))
              acc)
          (Seq.return (Bitset.create t.n))
          chosen)
      (combinations threshold children)
  end

let enumerate_read_quorums t = enum t ~threshold:t.r 0 t.n
let enumerate_write_quorums t = enum t ~threshold:t.w 0 t.n

let read_quorum_size t = pow t.r t.depth
let write_quorum_size t = pow t.w t.depth
let quorum_size = read_quorum_size
let cost t = float_of_int (quorum_size t)

let load_of threshold t =
  (float_of_int threshold /. float_of_int t.s) ** float_of_int t.depth

let read_load t = load_of t.r t
let write_load t = load_of t.w t
let optimal_load = read_load

(* P[Binomial(s, q) >= threshold]. *)
let binomial_tail t ~threshold q =
  let rec choose n k =
    if k = 0 || k = n then 1.0
    else choose (n - 1) (k - 1) *. float_of_int n /. float_of_int k
  in
  let acc = ref 0.0 in
  for k = threshold to t.s do
    acc :=
      !acc
      +. choose t.s k *. (q ** float_of_int k)
         *. ((1.0 -. q) ** float_of_int (t.s - k))
  done;
  !acc

let availability_of threshold t ~p =
  let rec go l =
    if l = 0 then p else binomial_tail t ~threshold (go (l - 1))
  in
  go t.depth

let read_availability t ~p = availability_of t.r t ~p
let write_availability t ~p = availability_of t.w t ~p
let availability = read_availability

let read_levels _ = None
let fork t = t

let protocol t =
  Protocol.pack
    (module struct
      type nonrec t = t

      let name = name
      let universe_size = universe_size
      let read_quorum = read_quorum
      let write_quorum = write_quorum
      let enumerate_read_quorums = enumerate_read_quorums
      let enumerate_write_quorums = enumerate_write_quorums
      let read_levels _ = None
      let fork t = t
    end)
    t
