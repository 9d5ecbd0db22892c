(** Chaos campaign: sweep failure schedules × tree configurations ×
    failure-detector modes, assert safety everywhere, measure degradation.

    Each cell of the campaign runs the full replication stack
    ({!Replication.Harness}) under an adversarial schedule — crash/recovery
    churn, recurring minority partitions, message loss, or all three at
    once — twice: once with the ground-truth oracle detector (the paper's
    §2.2 assumption) and once with the realistic heartbeat/φ-accrual
    detector ({!Detect.Heartbeat}).  Within a (configuration, schedule)
    pair both detector modes see the {e same} failure entries and the same
    workload seed, so their success rates are directly comparable.

    The invariant asserted everywhere is one-copy read freshness
    ([safety_violations = 0]): bad failure knowledge may cost availability
    and latency, never consistency. *)

type schedule = {
  label : string;
  loss_rate : float;
  entries :
    rng:Dsutil.Rng.t -> n:int -> horizon:float -> Dsim.Failure.entry list;
}

val crashes_schedule : schedule
(** Continuous per-site crash/recovery churn (steady-state availability
    ~0.8), no partitions, no loss. *)

val partitions_schedule : schedule
(** Recurring partitions isolating a random ~n/3 minority of replicas,
    healed after a window; clients always stay with the majority. *)

val loss_schedule : schedule
(** 5% i.i.d. message loss, sites never fail. *)

val combined_schedule : schedule
(** Crash churn + recurring partitions + 3% loss together. *)

val blackout_schedule : schedule
(** Every replica crashes at t=100 and recovers at t=140 — under amnesia
    with an async WAL this loses the un-flushed suffix on {e all} copies
    at once (the negative-control schedule). *)

val chaos_coordinator : Replication.Coordinator.config
(** The degradation-tolerant coordinator every campaign cell uses: 8
    retries, adaptive timeouts, 600-unit operation deadline. *)

val line :
  Arbitrary.Config.name ->
  n:int ->
  clients:int ->
  ops:int ->
  seed:int ->
  horizon:float ->
  schedule ->
  Scenario_line.t
(** The chaos cell: [clients] × [ops] operations, 50/50 over 8 keys, think
    time 3, {!chaos_coordinator}, the schedule's loss rate and its failure
    entries drawn from [seed], oracle detection, fail-stop crashes, at the
    snapped [n].  {!run}, {!run_amnesia} and [replica-ctl chaos] vary only
    some of its fields. *)

val detector : Campaign.cell -> string
(** ["oracle"] or ["heartbeat"]: the cell's detector mode. *)

val run :
  ?n:int ->
  ?clients:int ->
  ?ops:int ->
  ?seed:int ->
  ?horizon:float ->
  ?configs:Arbitrary.Config.name list ->
  ?schedules:schedule list ->
  ?domains:int ->
  unit ->
  Campaign.cell list
(** Defaults: n = 45 (snapped per configuration), 3 clients × 25 ops,
    seed 42, horizon 3000, the four paper tree configurations
    (MOSTLY-READ, MOSTLY-WRITE, ARBITRARY, UNMODIFIED), all four
    schedules, both detectors — 32 cells, each labelled with its
    schedule.  The cell of configuration [ci] and schedule [si] (both
    0-based) is seeded [seed + 1000·ci + 100·si]; both detector modes of
    it see the same failure entries.  Deterministic for a fixed argument
    set, and byte-identical for any domain count. *)

val table : Campaign.cell list -> string
(** One row per cell: success rates, p99 latencies, retries, messages,
    safety violations. *)

val parity_table : Campaign.cell list -> string
(** Oracle vs heartbeat success-rate deltas per (configuration,
    schedule). *)

val crash_parity_gap : Campaign.cell list -> float
(** Largest |oracle − heartbeat| success-rate gap (reads or writes, in
    rate points) across the crash-only schedule cells — the acceptance
    bound is 0.10.  Components whose oracle-mode rate is below 0.5 are
    skipped: where ground-truth detection cannot assemble a quorum
    either (e.g. write-all under churn), the gap between two near-zero
    rates measures sampling luck, not the detector. *)

(** {2 Amnesia crash-recovery campaign}

    Same cells, but crashes destroy volatile state
    ({!Dsim.Network.crash_mode} [Amnesia]): replicas keep a {!Replication.Wal}
    and rejoin through replay + quorum catch-up.  Every cell runs with
    [check_consistency] on, so {!Campaign.violations} adds the
    trace-driven {!Consistency} checker to the online safety counter. *)

val run_amnesia :
  ?n:int ->
  ?clients:int ->
  ?ops:int ->
  ?seed:int ->
  ?horizon:float ->
  ?configs:Arbitrary.Config.name list ->
  ?domains:int ->
  unit ->
  Campaign.cell list
(** One cell per configuration (defaults mirror {!run}; oracle detector;
    configuration [ci] seeded [seed + 1000·ci]): a [Sync_on_commit] WAL
    and catch-up on, under the churn schedule — the configuration whose
    acceptance gate is {e zero} violations on every tree configuration. *)

val run_amnesia_negative :
  ?n:int ->
  ?clients:int ->
  ?ops:int ->
  ?seed:int ->
  ?horizon:float ->
  ?configs:Arbitrary.Config.name list ->
  ?domains:int ->
  unit ->
  Campaign.cell list
(** Negative control: [Async 60.0] WAL, catch-up disabled, blackout
    schedule — the checker {e must} report at least one violation, proving
    the detection machinery actually detects. *)

val amnesia_table : Campaign.cell list -> string
(** One row per cell: success rates, rejoin/catch-up counters, WAL losses,
    stale-incarnation rejections, checker violations. *)
