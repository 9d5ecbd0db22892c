module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng

type t = { votes : int array; r : int; w : int; total : int }

let create ~votes ~r ~w =
  if Array.length votes = 0 then invalid_arg "Weighted_voting.create: no replicas";
  if Array.exists (fun v -> v < 0) votes then
    invalid_arg "Weighted_voting.create: negative votes";
  let total = Array.fold_left ( + ) 0 votes in
  if total = 0 then invalid_arg "Weighted_voting.create: zero total votes";
  if r < 1 || w < 1 then invalid_arg "Weighted_voting.create: thresholds must be positive";
  if r + w <= total then
    invalid_arg "Weighted_voting.create: need r + w > total votes";
  if 2 * w <= total then
    invalid_arg "Weighted_voting.create: need 2w > total votes";
  { votes; r; w; total }

let uniform ~n ~r ~w = create ~votes:(Array.make n 1) ~r ~w

let majority ~n =
  let q = (n / 2) + 1 in
  uniform ~n ~r:q ~w:q

let rowa ~n = uniform ~n ~r:1 ~w:n

let name _ = "WeightedVoting"
let universe_size t = Array.length t.votes

(* Assemble a quorum reaching [threshold] votes from alive replicas,
   preferring a random order so load spreads; greedy by arrival order is
   complete because votes are non-negative. *)
let gather t ~alive ~rng threshold =
  let n = universe_size t in
  let order = Array.init n Fun.id in
  Rng.shuffle rng order;
  let q = Bitset.create n in
  let got = ref 0 in
  Array.iter
    (fun i ->
      if !got < threshold && Bitset.mem alive i && t.votes.(i) > 0 then begin
        Bitset.add q i;
        got := !got + t.votes.(i)
      end)
    order;
  if !got >= threshold then Some q else None

let read_quorum t ~alive ~rng = gather t ~alive ~rng t.r
let write_quorum t ~alive ~rng = gather t ~alive ~rng t.w

(* Enumerate minimal vote-gathering sets: all subsets whose votes reach the
   threshold and stay below it when any member is removed. *)
let enumerate t threshold =
  let n = universe_size t in
  if n > 20 then invalid_arg "Weighted_voting: enumeration only for small systems";
  let subsets = Seq.init (1 lsl n) Fun.id in
  Seq.filter_map
    (fun mask ->
      let votes = ref 0 in
      let minimal = ref true in
      for i = 0 to n - 1 do
        if mask land (1 lsl i) <> 0 then votes := !votes + t.votes.(i)
      done;
      if !votes < threshold then None
      else begin
        for i = 0 to n - 1 do
          if mask land (1 lsl i) <> 0 && !votes - t.votes.(i) >= threshold then
            minimal := false
        done;
        if not !minimal then None
        else begin
          let q = Bitset.create n in
          for i = 0 to n - 1 do
            if mask land (1 lsl i) <> 0 then Bitset.add q i
          done;
          Some q
        end
      end)
    subsets

let enumerate_read_quorums t = enumerate t t.r
let enumerate_write_quorums t = enumerate t t.w

let min_quorum_size t threshold =
  let votes = Array.copy t.votes in
  Array.sort (fun a b -> compare b a) votes;
  let rec go i acc =
    if acc >= threshold then i
    else if i >= Array.length votes then i
    else go (i + 1) (acc + votes.(i))
  in
  go 0 0

let min_read_quorum_size t = min_quorum_size t t.r
let min_write_quorum_size t = min_quorum_size t t.w

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
