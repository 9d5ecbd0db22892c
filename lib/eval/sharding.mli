(** Shard-scaling campaign: the multi-tree control plane under a
    saturating workload.

    Every cell runs the same closed-loop workload ({!line}: 128 clients ×
    32 operations, 50/50 mix over 4096 keys) as a sharded scenario line
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

    Every cell but the identity control is a scenario line, and one
    {!Campaign.run} runs them all; output is byte-identical for any
    domain count. *)

type identity_cell = {
  id_config : Arbitrary.Config.name;
  fingerprint_sharded : string;
  fingerprint_unsharded : string;
  identical : bool;
}

type campaign = {
  scaling : Campaign.cell list;
  skew : Campaign.cell list;
  identity : identity_cell;
  atomic_cell : Campaign.cell;  (** cross-shard transactions with the 2PC barrier *)
  nonatomic_cell : Campaign.cell;  (** the same without it: the negative control *)
  reconfig : Campaign.cell;
}

val line : Arbitrary.Config.name -> shards:int -> theta:float -> Scenario_line.t
(** The saturating cell every scaling and skew run shards: 128 clients × 32
    ops over 4096 keys on the configuration at n = 9, Zipf [theta],
    consistency checking on, seed 42, per-replica service time 8, over
    [shards] hash shards. *)

val run : ?domains:int -> unit -> campaign
(** Seed 42, deterministic; [domains] only fans the independent workload
    cells over cores. *)

val gate : campaign -> Gate.verdict
(** The acceptance predicate: scaling ≥ 0.7 × ideal at S=16 on some
    configuration; zero {!Campaign.violations} in every scaling, skew and
    reconfig cell (a failure names the cell's {!Campaign.replay}); the
    S=1 fingerprint control identical; the atomic transaction cell
    conserved with no partial commits; the non-atomic
    negative control showing phantom increments; and the reconfiguration
    cell completing its split and merge with a well-formed map and no
    migration failures. *)

val json : campaign -> string
(** The [BENCH_shard.json] payload (schema ["bench-shard/1"]). *)

val table : campaign -> string
(** Scaling and skew tables plus the control one-liners. *)
