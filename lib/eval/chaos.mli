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

type detector = Oracle | Heartbeat

val detector_to_string : detector -> string

val chaos_coordinator : Replication.Coordinator.config
(** The degradation-tolerant coordinator every campaign cell uses: 8
    retries, adaptive timeouts, 600-unit operation deadline. *)

val make_scenario :
  Arbitrary.Config.name ->
  n:int ->
  clients:int ->
  ops:int ->
  seed:int ->
  horizon:float ->
  schedule ->
  int * Replication.Harness.scenario
(** The chaos cell: [clients] × [ops] operations, 50/50 over 8 keys, think
    time 3, {!chaos_coordinator}, the schedule's loss rate and its failure
    entries drawn from [seed], oracle detection, fail-stop crashes.
    Returns the snapped [n] with it.  {!run}, {!run_amnesia} and
    [replica-ctl chaos] update only the fields they vary. *)

val rate : int -> int -> float
(** [rate ok failed]: the success rate, 1.0 when nothing was attempted. *)

type cell = {
  config : Arbitrary.Config.name;
  schedule : string;
  detector : detector;
  n : int;  (** replica count the configuration snapped to *)
  report : Replication.Harness.report;
  read_rate : float;  (** successful / attempted reads (1.0 when none) *)
  write_rate : float;
}

type campaign = {
  cells : cell list;
  safety_violations : int;  (** summed over every cell — must be 0 *)
}

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
  campaign
(** Defaults: n = 45 (snapped per configuration), 3 clients × 25 ops,
    seed 42, horizon 3000, the four paper tree configurations
    (MOSTLY-READ, MOSTLY-WRITE, ARBITRARY, UNMODIFIED), all four
    schedules, both detectors — 32 cells.  Deterministic for a fixed
    argument set.  Cells are independent seeded simulations and fan out
    across [domains] cores ({!Parallel}); the campaign (cell order
    included) is byte-identical for any domain count. *)

val table : campaign -> string
(** One row per cell: success rates, p99 latencies, retries, messages,
    safety violations. *)

val parity_table : campaign -> string
(** Oracle vs heartbeat success-rate deltas per (configuration,
    schedule). *)

val crash_parity_gap : campaign -> float
(** Largest |oracle − heartbeat| success-rate gap (reads or writes, in
    rate points) across the crash-only schedule cells — the acceptance
    bound is 0.10.  Components whose oracle-mode rate is below 0.5 are
    skipped: where ground-truth detection cannot assemble a quorum
    either (e.g. write-all under churn), the gap between two near-zero
    rates measures sampling luck, not the detector. *)

(** {2 Amnesia crash-recovery campaign}

    Same harness, but crashes destroy volatile state
    ({!Dsim.Network.crash_mode} [Amnesia]): replicas keep a {!Replication.Wal}
    and rejoin through replay + quorum catch-up.  Every cell runs with
    [check_consistency] on and is verified offline by the trace-driven
    {!Consistency} checker on top of the online safety counter. *)

type amnesia_cell = {
  a_config : Arbitrary.Config.name;
  a_n : int;
  a_wal : Replication.Wal.policy;
  a_catch_up : bool;
  a_schedule : string;
  a_report : Replication.Harness.report;
  a_consistency : Consistency.report;
}

val run_amnesia :
  ?n:int ->
  ?clients:int ->
  ?ops:int ->
  ?seed:int ->
  ?horizon:float ->
  ?configs:Arbitrary.Config.name list ->
  ?wal:Replication.Wal.policy ->
  ?catch_up:bool ->
  ?schedule:schedule ->
  ?domains:int ->
  unit ->
  amnesia_cell list
(** One cell per configuration (defaults mirror {!run}; oracle detector).
    Default [wal] is [Sync_on_commit] and [catch_up] is on, under the
    churn schedule — the configuration whose acceptance gate is
    {e zero} consistency violations on every tree configuration. *)

val run_amnesia_negative :
  ?n:int ->
  ?clients:int ->
  ?ops:int ->
  ?seed:int ->
  ?horizon:float ->
  ?configs:Arbitrary.Config.name list ->
  ?domains:int ->
  unit ->
  amnesia_cell list
(** Negative control: [Async 60.0] WAL, catch-up disabled, blackout
    schedule — the checker {e must} report at least one violation, proving
    the detection machinery actually detects. *)

val amnesia_violations : amnesia_cell list -> int
(** Offline (checker) plus online (harness counter) violations, summed. *)

val amnesia_table : amnesia_cell list -> string
(** One row per cell: success rates, rejoin/catch-up counters, WAL losses,
    stale-incarnation rejections, violations. *)
