(** Sharded end-to-end scenarios: a multi-tree control plane.  The types
    are {!Harness}'s sharded ones and the run is {!Harness.run_core}; see
    there for routing, per-shard instances and online split/merge.

    {b S=1 is byte-identical to {!Harness.run}}: both are the same loop
    over one tree instance, so every field of the aggregate report, and
    therefore its {!Eval.Batching.fingerprint}, matches the unsharded
    run.  That identity is the control gated in CI. *)

type reconfig_action = Harness.reconfig_action =
  | Split of int  (** split this shard; the new id is allocated at fire time *)
  | Merge of { into : int; from_ : int }

type reconfig = Harness.reconfig = { at : float; action : reconfig_action }

type scenario = Harness.sharded = {
  base : Harness.scenario;
  shards : int;
  strategy : Arbitrary.Shard_map.strategy;
  service_time : float;
  shard_failures : (int * Dsim.Failure.entry list) list;
  reconfig : reconfig list;  (** online splits/merges; requires [use_locks] *)
}

val default : proto:Quorum.Protocol.t -> shards:int -> scenario
(** {!Harness.default_scenario} under hash partitioning, no service
    model, no failures, no resharding. *)

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

val run : ?obs:Obs.t -> scenario -> report
(** {!Harness.run_core}. *)

val imbalance : report -> float * float
(** (max, mean) successful ops per active shard — the skew report.  Both
    0 when nothing completed. *)

val imbalance_ratio : report -> float
(** max/mean (1.0 when degenerate): 1.0 = perfectly balanced. *)
