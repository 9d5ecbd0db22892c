type reconfig_action = Harness.reconfig_action =
  | Split of int
  | Merge of { into : int; from_ : int }

type reconfig = Harness.reconfig = { at : float; action : reconfig_action }

type scenario = Harness.sharded = {
  base : Harness.scenario;
  shards : int;
  strategy : Arbitrary.Shard_map.strategy;
  service_time : float;
  shard_failures : (int * Dsim.Failure.entry list) list;
  reconfig : reconfig list;
}

let default ~proto ~shards =
  { (Harness.one_tree (Harness.default_scenario ~proto)) with shards }

type report = Harness.sharded_report = {
  agg : Harness.report;
  shards : int;
  active_shards : int list;
  per_shard_ops : int array;
  per_shard_keys : int array;
  migrated_keys : int;
  migration_failures : int;
  splits : int;
  merges : int;
  map_well_formed : bool;
  routing : int array;
}

let run = Harness.run_core

let imbalance r =
  let ops = List.map (fun s -> r.per_shard_ops.(s)) r.active_shards in
  match ops with
  | [] -> (0.0, 0.0)
  | _ ->
    let total = List.fold_left ( + ) 0 ops in
    let mx = List.fold_left max 0 ops in
    let mean = float_of_int total /. float_of_int (List.length ops) in
    if mean = 0.0 then (0.0, 0.0) else (float_of_int mx, mean)

let imbalance_ratio r =
  let mx, mean = imbalance r in
  if mean = 0.0 then 1.0 else mx /. mean
