(** Batched-vs-unbatched evaluation cells for the throughput architecture.

    Builds matched scenario pairs — identical workload, seed and protocol,
    differing only in the {!Replication.Harness.scenario.batching} knob —
    and fingerprints reports so byte-identity claims (batch size 1 ==
    unbatched; same seed == same run) are one string comparison. *)

val default_knobs : Replication.Harness.batching
(** The shape the benchmark gate runs: batch 32, group commit on,
    pipeline 8. *)

val identity_knobs : Replication.Harness.batching
(** The determinism control: batch 1, pipeline 1 — the
    {!Replication.Harness.batching_defaults} a scenario without batching
    runs, so it must reproduce that run byte-for-byte. *)

val scenario :
  name:Arbitrary.Config.name ->
  n:int ->
  ops:int ->
  seed:int ->
  int * Replication.Harness.scenario
(** The §4 single-client workload on a configuration: one client, [ops]
    operations, 50/50 read mix, short think time, unbatched.  Returns
    [Config_metrics.feasible_n name n] with it.  Every single-client
    probe (the simulated-vs-analytic ablation, the baseline, the hot-path
    benchmarks) runs this cell with its own fields updated. *)

val pair :
  ?knobs:Replication.Harness.batching ->
  name:Arbitrary.Config.name ->
  n:int ->
  ops:int ->
  seed:int ->
  unit ->
  Replication.Harness.scenario * Replication.Harness.scenario
(** [(unbatched, batched)] over the identical workload. *)

val fingerprint : Replication.Harness.report -> string
(** Digest (hex) of every deterministic observable in the report: op and
    failure counts, latency statistics, message counters, per-replica
    tallies, the full completion-time series, and the batching counters.
    Two runs with equal fingerprints behaved identically as far as the
    harness can see — the equality backing the batch-size-1 and
    same-seed determinism claims. *)
