module Config = Arbitrary.Config
module Analysis = Arbitrary.Analysis
module Tree_quorum = Quorum.Tree_quorum
module Hqc = Quorum.Hqc

type t = {
  config : Config.name;
  n : int;
  rd_cost : float;
  wr_cost : float;
  rd_load : float;
  wr_load : float;
  rd_avail : float;
  wr_avail : float;
  e_rd_load : float;
  e_wr_load : float;
}

let feasible_n name n =
  if n < 1 then invalid_arg "Config_metrics.feasible_n: n must be positive";
  match name with
  | Config.Binary ->
    Tree_quorum.n_of_height (Tree_quorum.height (Tree_quorum.of_n ~n))
  | Config.Hqc -> Hqc.n_of_depth (Hqc.depth (Hqc.of_n ~n))
  | Config.Mostly_write -> if n mod 2 = 1 then n else n - 1
  | Config.Unmodified ->
    let rec fit h = if (1 lsl (h + 2)) - 1 > n then h else fit (h + 1) in
    (1 lsl (fit 0 + 1)) - 1
  | Config.Arbitrary | Config.Mostly_read -> n

(* Equation 3.2 applied to a protocol whose read and write quorums share a
   single family (BINARY, HQC). *)
let expected_loads ~load ~avail =
  let e_rd = (avail *. (load -. 1.0)) +. 1.0 in
  let e_wr = (avail *. load) +. (1.0 -. avail) in
  (e_rd, e_wr)

(* The paper draws BINARY, UNMODIFIED and HQC as continuous curves of n,
   although their structures only exist at 2^(h+1)−1 resp. 3^L replicas.
   We do the same for costs and loads (their closed forms accept any n) and
   take availability from the nearest feasible structure — availability
   converges within a few levels, so the snap is invisible in the series. *)

let binary_paper_cost ~h =
  if h < 1.0 then 1.0
  else
    ((2.0 ** h) *. ((1.0 +. h) ** h) /. (h *. ((2.0 +. h) ** (h -. 1.0))))
    -. (2.0 /. h)

let log2 x = log x /. log 2.0

let compute name ~n ~p =
  if n < 1 then invalid_arg "Config_metrics.compute: n must be positive";
  match name with
  | Config.Binary ->
    let h = log2 (float_of_int (n + 1)) -. 1.0 in
    let cost = binary_paper_cost ~h in
    let load = 2.0 /. (h +. 2.0) in
    let avail = Tree_quorum.availability (Tree_quorum.of_n ~n) ~p in
    let e_rd, e_wr = expected_loads ~load ~avail in
    {
      config = name;
      n;
      rd_cost = cost;
      wr_cost = cost;
      rd_load = load;
      wr_load = load;
      rd_avail = avail;
      wr_avail = avail;
      e_rd_load = e_rd;
      e_wr_load = e_wr;
    }
  | Config.Hqc ->
    let nf = float_of_int n in
    let cost = nf ** 0.63 in
    let load = nf ** -0.37 in
    let avail = Hqc.availability (Hqc.of_n ~n) ~p in
    let e_rd, e_wr = expected_loads ~load ~avail in
    {
      config = name;
      n;
      rd_cost = cost;
      wr_cost = cost;
      rd_load = load;
      wr_load = load;
      rd_avail = avail;
      wr_avail = avail;
      e_rd_load = e_rd;
      e_wr_load = e_wr;
    }
  | Config.Unmodified ->
    let lg = log2 (float_of_int (n + 1)) in
    let tree = Config.build name ~n in
    let rd_avail = Analysis.read_availability tree ~p in
    let wr_avail = Analysis.write_availability tree ~p in
    let rd_load = 1.0 and wr_load = 1.0 /. lg in
    {
      config = name;
      n;
      rd_cost = lg;
      wr_cost = float_of_int n /. lg;
      rd_load;
      wr_load;
      rd_avail;
      wr_avail;
      e_rd_load = (rd_avail *. (rd_load -. 1.0)) +. 1.0;
      e_wr_load = (wr_avail *. wr_load) +. (1.0 -. wr_avail);
    }
  | Config.Arbitrary | Config.Mostly_read | Config.Mostly_write ->
    let tree = Config.build name ~n:(feasible_n name n) in
    let s = Analysis.summarize tree ~p in
    {
      config = name;
      n = Arbitrary.Tree.n tree;
      rd_cost = float_of_int s.Analysis.rd_cost;
      wr_cost = s.Analysis.wr_cost_avg;
      rd_load = s.Analysis.rd_load;
      wr_load = s.Analysis.wr_load;
      rd_avail = s.Analysis.rd_availability;
      wr_avail = s.Analysis.wr_availability;
      e_rd_load = s.Analysis.expected_rd_load;
      e_wr_load = s.Analysis.expected_wr_load;
    }

let protocol_of name ~n =
  let n = feasible_n name n in
  match name with
  | Config.Binary -> Tree_quorum.protocol (Tree_quorum.of_n ~n)
  | Config.Hqc -> Hqc.protocol (Hqc.of_n ~n)
  | Config.Unmodified | Config.Arbitrary | Config.Mostly_read
  | Config.Mostly_write ->
    Arbitrary.Quorums.protocol (Config.build name ~n)

let scenario name ~n =
  let n = feasible_n name n in
  (n, Replication.Harness.default_scenario ~proto:(protocol_of name ~n))
