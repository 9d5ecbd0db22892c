module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng

type t = { d : int; height : int; fanout : int; n : int }

let pow b e =
  let rec go acc e = if e = 0 then acc else go (acc * b) (e - 1) in
  go 1 e

let create ~d ~height =
  if d < 1 then invalid_arg "Tqp.create: d must be at least 1";
  if height < 0 then invalid_arg "Tqp.create: negative height";
  let fanout = (2 * d) + 1 in
  let n = (pow fanout (height + 1) - 1) / (fanout - 1) in
  { d; height; fanout; n }

let name _ = "TreeQuorumVLDB90"
let universe_size t = t.n
let fanout t = t.fanout
let n t = t.n

let child t v i = (v * t.fanout) + 1 + i
let is_leaf t v = child t v 0 >= t.n

(* Pick subquorums from d+1 children; children tried in random order, and
   assembly is complete: succeeds iff at least d+1 children subtrees can
   produce subquorums. *)
let majority_of_children t ~rng collect v =
  let order = Array.init t.fanout Fun.id in
  Rng.shuffle rng order;
  let needed = t.d + 1 in
  let rec go i acc got =
    if got = needed then Some acc
    else if i = t.fanout then None
    else begin
      match collect (child t v order.(i)) with
      | Some q -> go (i + 1) (Bitset.union acc q) (got + 1)
      | None -> go (i + 1) acc got
    end
  in
  go 0 (Bitset.create t.n) 0

let rec read_collect t ~alive ~rng v =
  if Bitset.mem alive v then Some (Bitset.of_list t.n [ v ])
  else if is_leaf t v then None
  else majority_of_children t ~rng (read_collect t ~alive ~rng) v

let rec write_collect t ~alive ~rng v =
  if not (Bitset.mem alive v) then None
  else if is_leaf t v then Some (Bitset.of_list t.n [ v ])
  else begin
    match majority_of_children t ~rng (write_collect t ~alive ~rng) v with
    | None -> None
    | Some q ->
      Bitset.add q v;
      Some q
  end

let read_quorum t ~alive ~rng = read_collect t ~alive ~rng 0
let write_quorum t ~alive ~rng = write_collect t ~alive ~rng 0

(* Choose d+1 children out of 2d+1 and combine their quorum families. *)
let rec combinations k = function
  | _ when k = 0 -> Seq.return []
  | [] -> Seq.empty
  | x :: rest ->
    Seq.append
      (Seq.map (fun tail -> x :: tail) (combinations (k - 1) rest))
      (combinations k rest)

(* Cartesian combination of the chosen children's quorum families. *)
let product_of_families ~n families =
  List.fold_left
    (fun acc family ->
      Seq.concat_map
        (fun combined -> Seq.map (fun q -> Bitset.union combined q) family)
        acc)
    (Seq.return (Bitset.create n))
    families

let rec enum_read t v =
  let self = Seq.return (Bitset.of_list t.n [ v ]) in
  if is_leaf t v then self
  else begin
    let children = List.init t.fanout (fun i -> child t v i) in
    let replacements =
      Seq.concat_map
        (fun chosen ->
          product_of_families ~n:t.n (List.map (fun c -> enum_read t c) chosen))
        (combinations (t.d + 1) children)
    in
    Seq.append self replacements
  end

let rec enum_write t v =
  if is_leaf t v then Seq.return (Bitset.of_list t.n [ v ])
  else begin
    let children = List.init t.fanout (fun i -> child t v i) in
    Seq.concat_map
      (fun chosen ->
        Seq.map
          (fun q ->
            let q = Bitset.copy q in
            Bitset.add q v;
            q)
          (product_of_families ~n:t.n (List.map (fun c -> enum_write t c) chosen)))
      (combinations (t.d + 1) children)
  end

let enumerate_read_quorums t = enum_read t 0
let enumerate_write_quorums t = enum_write t 0

let min_read_cost _ = 1
let max_read_cost t = pow (t.d + 1) t.height
let write_cost t = (pow (t.d + 1) (t.height + 1) - 1) / t.d

(* P(at least d+1 successes among 2d+1 independent trials of prob q). *)
let majority_prob t q =
  let m = t.fanout in
  let rec choose n k =
    if k = 0 || k = n then 1.0
    else choose (n - 1) (k - 1) *. float_of_int n /. float_of_int k
  in
  let acc = ref 0.0 in
  for k = t.d + 1 to m do
    acc :=
      !acc
      +. choose m k *. (q ** float_of_int k)
         *. ((1.0 -. q) ** float_of_int (m - k))
  done;
  !acc

let read_availability t ~p =
  let rec go l =
    if l = 0 then p else p +. ((1.0 -. p) *. majority_prob t (go (l - 1)))
  in
  go t.height

let write_availability t ~p =
  let rec go l = if l = 0 then p else p *. majority_prob t (go (l - 1)) in
  go t.height

let write_load _ = 1.0

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
