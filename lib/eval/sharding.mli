(** Shard-scaling campaign: the multi-tree control plane under a
    saturating workload.

    Every cell runs the same closed-loop workload (32 clients, 1024
    operations, 50/50 mix over 1024 keys) against {!Replication.Shard_harness}
    with a per-replica service cost, so single-tree throughput saturates
    on the root replica and shard-count scaling is measurable in virtual
    time.  Five cell families:

    - {b scaling}: each §4 arbitrary-protocol configuration at
      S ∈ {1, 4, 16, 64}, uniform keys.  [speedup] is
      duration(S=1)/duration(S) within a configuration; the gate requires
      ≥ 0.7 × ideal at S=16 on at least one configuration.
    - {b skew}: the same workload at S=16 under Zipfian keys (θ = 0.99):
      per-shard operation histograms and the max/mean imbalance report.
    - {b identity}: the S=1 control — the sharded harness must reproduce
      the unsharded {!Replication.Harness} run byte-for-byte
      ({!Batching.fingerprint} equality).
    - {b atomicity}: cross-shard increment transactions through a lossy
      shard, once with the 2PC barrier ([conserved], no partials) and
      once without (the negative control must leave phantom increments).
    - {b reconfig}: an online split plus merge mid-run — zero safety
      violations, a well-formed final map, no migration failures.

    Cells are independent and fan out over {!Parallel.map}; output is
    byte-identical for any domain count. *)

type scale_cell = {
  config : Arbitrary.Config.name;
  shards : int;
  n : int;  (** replicas per shard tree *)
  completed : int;
  duration : float;  (** virtual makespan *)
  throughput : float;  (** completed ops per unit virtual time *)
  violations : int;  (** online safety-checker hits *)
  speedup : float;  (** duration(S=1) / duration, same configuration *)
  efficiency : float;  (** speedup / shards *)
}

type skew_cell = {
  sk_config : Arbitrary.Config.name;
  sk_shards : int;
  theta : float;
  sk_completed : int;
  sk_violations : int;
  per_shard_ops : int array;
  imbalance_max : float;
  imbalance_mean : float;
  imbalance_ratio : float;  (** max/mean; 1.0 = perfectly balanced *)
}

type identity_cell = {
  id_config : Arbitrary.Config.name;
  fingerprint_sharded : string;
  fingerprint_unsharded : string;
  identical : bool;
}

type atomicity_cell = {
  atomic : bool;
  committed : int;
  aborted : int;
  uncertain : int;
  partial_commits : int;
  phantoms : int;
  lost : int;
  conserved : bool;
  cross_shard : int;
}

type reconfig_cell = {
  rc_completed : int;
  rc_violations : int;
  splits : int;
  merges : int;
  migrated_keys : int;
  migration_failures : int;
  well_formed : bool;
  active_shards : int list;
}

type campaign = {
  scaling : scale_cell list;
  skew : skew_cell list;
  identity : identity_cell;
  atomic_cell : atomicity_cell;
  nonatomic_cell : atomicity_cell;
  reconfig : reconfig_cell;
}

val workload : Arbitrary.Config.name -> theta:float -> int * Replication.Harness.scenario
(** The saturating cell every scaling and skew run shards: 128 clients × 32
    ops over 4096 keys on the configuration at n = 9 (snapped size
    returned), Zipf [theta], consistency checking on. *)

val run : ?domains:int -> unit -> campaign
(** Seed 42, deterministic; [domains] only fans the independent workload
    cells over cores. *)

val gate : campaign -> Gate.verdict
(** The acceptance predicate: scaling ≥ 0.7 × ideal at S=16 on some
    configuration; zero safety violations in every scaling, skew and
    reconfig cell; the S=1 fingerprint control identical; the atomic
    transaction cell conserved with no partial commits; the non-atomic
    negative control showing phantom increments; and the reconfiguration
    cell completing its split and merge with a well-formed map and no
    migration failures. *)

val json : campaign -> string
(** The [BENCH_shard.json] payload (schema ["bench-shard/1"]). *)

val table : campaign -> string
(** Scaling and skew tables plus the control one-liners. *)
