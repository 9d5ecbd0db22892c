module Rng = Dsutil.Rng
module Shard_map = Arbitrary.Shard_map

type scenario = Txn_harness.scenario = {
  proto : Quorum.Protocol.t;
  shards : int;
  strategy : Shard_map.strategy;
  atomic : bool;
  n_clients : int;
  txns_per_client : int;
  keys_per_txn : int;
  key_space : int;
  latency : Dsim.Latency.t;
  loss_rate : float;
  think_time : float;
  shard_failures : (int * Dsim.Failure.entry list) list;
  shard_loss : (int * float) list;
  seed : int;
  config : Txn.config;
  horizon : float;
}

let default_scenario ~proto ~shards =
  { (Txn_harness.default_scenario ~proto) with shards; key_space = 16 }

type report = Txn_harness.report = {
  committed : int;
  aborted : int;
  uncertain : int;
  partial_commits : int;
  committed_increments : int;
  uncertain_increments : int;
  observed_total : int;
  conservation_ok : bool;
  cross_shard_txns : int;
  duration : float;
}

(* Pick [count] distinct keys spreading over as many distinct shards as
   the map allows: shuffle the active shards, then draw one random key
   from each in round-robin, rejecting duplicates. *)
let pick_keys ~count rng smap =
  let shards = Array.of_list (Shard_map.active smap) in
  Rng.shuffle rng shards;
  let n_sh = Array.length shards in
  let chosen = ref [] in
  for i = 0 to count - 1 do
    let keys = Array.of_list (Shard_map.keys_of smap shards.(i mod n_sh)) in
    if Array.length keys > 0 then begin
      let attempts = ref 0 in
      let key = ref (Rng.pick rng keys) in
      while List.mem !key !chosen && !attempts < 50 do
        key := Rng.pick rng keys;
        incr attempts
      done;
      if not (List.mem !key !chosen) then chosen := !key :: !chosen
    end
  done;
  List.rev !chosen

let run ?obs sc =
  if sc.keys_per_txn < 1 || sc.keys_per_txn > sc.key_space then
    invalid_arg "Shard_txn_harness.run: keys_per_txn must be in [1, key_space]";
  Txn_harness.run_with ?obs ~pick:(pick_keys ~count:sc.keys_per_txn) sc

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>transactions: %d committed, %d aborted (%d in-doubt, %d partial)@,\
     cross-shard: %d@,\
     increments: %d committed + %d uncertain; observed total %d@,\
     conservation: %s@]"
    r.committed r.aborted r.uncertain r.partial_commits r.cross_shard_txns
    r.committed_increments r.uncertain_increments r.observed_total
    (if r.conservation_ok then "OK" else "VIOLATED")
