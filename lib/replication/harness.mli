(** End-to-end simulation scenarios: clients driving a replica control
    protocol over the simulated network, with failure injection and a
    built-in safety checker.

    This module is the one harness core.  {!run_core} builds the engine,
    one tree instance per shard (network, replicas, breaker), the clients
    and their loop, and assembles the report; the plain run ({!run}) and
    the sharded run ({!Shard_harness}) are calls into it.  A client runs
    one operation at a time, in batch windows, or as transactions
    ({!txn}).  Shards, overload, batching, failures, crash recovery,
    membership churn ({!churn}) and the detector are independent fields,
    and every combination of them runs, except churn over several
    shards.

    The safety property monitored is one-copy read freshness: a read that
    {e starts} after a write to the same key {e completed successfully}
    must return a timestamp at least as new as that write's.  With per-key
    locking and intersecting quorums this must never fire; the counter is
    reported so fault-injection tests can assert it stays zero. *)

type detector_mode =
  | Oracle
      (** ground truth: the simulator's up-and-reachable sites (§2.2's
          detectable failures) *)
  | Heartbeat of Detect.Heartbeat.config
      (** one φ-accrual heartbeat monitor per client, pinging every
          replica; quorums are assembled from its believed-alive view and
          the oracle is never consulted *)

type burst = {
  burst_at : float;  (** when the flash crowd arrives (after warmup) *)
  burst_clients : int;
  burst_ops : int;
  burst_think : float;  (** mean think time of burst clients (small =
                            aggressive) *)
}
(** A flash crowd: [burst_clients] extra clients, each issuing
    [burst_ops] operations, joining at [burst_at]. *)

type overload = {
  queue_capacity : int;
      (** bound on every replica's ingress queue (0 = unbounded) *)
  service_time : float;
      (** per-message processing cost at every replica — what makes
          saturation possible *)
  slow_sites : (int * float) list;
      (** per-site service-time overrides (the one-slow-replica cell) *)
  shed_watermark : int;
      (** replica admission watermark ({!Replica.admission}); 0 = off *)
  retry_budget : Detect.Budget.config option;
      (** when set, one shared budget gates every coordinator's retries *)
  breaker : Detect.Breaker.config option;
      (** when set, one per-site breaker per shard, shared by the shard's
          coordinators, steers quorum assembly *)
  burst : burst option;
}
(** Overload model for a scenario.  [None] in {!scenario.overload} keeps
    every run byte-identical to the pre-overload harness. *)

val overload_defaults : overload
(** All defenses off, no service cost, no burst — override fields from
    here. *)

type batching = {
  batch_size : int;
      (** client ops per batch window (>= 1); a window becomes one
          {!Coordinator.read_batch} plus one {!Coordinator.write_batch}
          per shard it touches *)
  group_commit : bool;
      (** replicas WAL one batch under a single durability point
          ({!Replica.create}'s [group_commit]) *)
  pipeline : int;
      (** outstanding batch windows per client (>= 1): the next window
          is issued without waiting for the previous one *)
}
(** Client-side batching.  [None] in {!scenario.batching} keeps the
    one-op-at-a-time client loop, byte-identical to before; and
    [batch_size = 1, pipeline = 1] draws the client RNG in exactly the
    unbatched order (think time is drawn after each window completes), so
    it too is byte-identical — the determinism control for the batching
    layer. *)

type txn = {
  keys_per_txn : int;
      (** keys each increment transaction reads and writes back + 1, in
          [1, key_space], spread over as many shards as the map allows *)
  atomic : bool;
      (** [false] drops the cross-shard prepare barrier: the negative
          control ({!Txn.create_sharded_manager}'s [atomic]) *)
}
(** Transaction clients.  Each client runs [ops_per_client] increment
    transactions ({!Txn}, strict 2PL on the run's lock manager) over its
    per-shard coordinators, which then take no locks themselves.  Strict
    2PL makes a committed increment add exactly one, so the run checks

    {v  Σ committed increments ≤ Σ final counter values
                                ≤ Σ committed + Σ in-doubt increments  v}

    by reading every counter after the run ({!txn_report}).  The
    freshness checker and [completions] cover operation clients only. *)

type membership_op = {
  at : float;  (** virtual time of the flow's start *)
  position : int;  (** tree position whose occupant is replaced *)
  spare : int;  (** site id promoted into the position *)
  fence : bool;
      (** decommission the displaced occupant (drain-fence-remove);
          without it the occupant becomes a re-promotable spare *)
}

type churn = {
  spares : int;  (** extra sites beyond the tree universe (>= 0) *)
  membership : membership_op list;
      (** {!Reconfig.promote} flows, scheduled after the clients start *)
  chunk_size : int;  (** keys per snapshot chunk ({!Replica.provision}) *)
  fence : bool;
      (** keep a provisioning replica out of service until its WAL tail
          lands; [false] is the negative control that serves while
          provisioning *)
}
(** Membership churn: provisioning, promotion and decommission under
    fault injection.  The run wraps [proto] in a {!Quorum.Relabel} map
    over [n + spares] sites (the spares start outside every quorum) and
    overlays the membership schedule on the failure schedule.  Whatever
    the scenario says, it runs amnesia crashes, client locks and
    snapshot + WAL-tail provisioning in place of quorum catch-up: the
    membership flows need all three.  Provisioning draws donors from the
    sites holding tree positions at the moment, so crashed sites rejoin
    through the transfer's resume and failover machinery.  With [fence]
    and a commit-durable WAL the freshness checker must count zero
    violations; the unfenced control must leak. *)

type scenario = {
  proto : Quorum.Protocol.t;
  n_clients : int;
  ops_per_client : int;
  read_fraction : float;
  key_space : int;
  zipf_theta : float;
  latency : Dsim.Latency.t;
  loss_rate : float;
  think_time : float;  (** mean exponential delay between a client's ops *)
  failures : Dsim.Failure.entry list;
  seed : int;
  use_locks : bool;
  coordinator : Coordinator.config;
  detector : detector_mode;
  horizon : float;  (** hard stop for the simulation clock *)
  warmup : float;
      (** virtual time before clients issue their first operation — lets
          failure schedules at t=0 settle first *)
  crash_mode : Dsim.Network.crash_mode;
      (** what a site crash destroys: [Fail_stop] (default, the paper's
          model — memory survives) or [Amnesia] (volatile state is lost;
          replicas get a {!Wal} and a rejoin state machine) *)
  wal : Wal.policy;
      (** stable-storage policy for amnesia replicas (default
          [Sync_on_commit]); ignored under [Fail_stop] *)
  catch_up : bool;
      (** run quorum catch-up after WAL replay before serving again
          (default [true]); disabling it is the negative control that
          makes amnesia observably unsafe *)
  check_consistency : bool;
      (** collect every operation span in memory and report them for the
          trace-driven consistency checker (default [false]) *)
  overload : overload option;
      (** bounded replica queues, load shedding, retry budget, breaker and
          flash-crowd injection (default [None]: none of it exists) *)
  batching : batching option;
      (** windowed batched clients, WAL group commit and pipelining
          (default [None]: the classic one-op loop) *)
  txn : txn option;
      (** transaction clients instead of operation clients (default
          [None]); excludes [batching] *)
  shard_loss : (int * float) list;
      (** per-shard message-loss overrides of [loss_rate] (default [[]]):
          a lossy shard's legs fail while its reads sometimes succeed *)
  churn : churn option;
      (** membership churn (default [None]); needs a single shard *)
}

val batching_defaults : batching
(** [batch_size = 1], no group commit, [pipeline = 1]. *)

val txn_defaults : txn
(** Two keys per transaction, atomic. *)

val churn_defaults : churn
(** One spare, no membership changes, four keys per chunk, fenced. *)

val default_scenario : proto:Quorum.Protocol.t -> scenario
(** 4 clients × 50 ops, 50% reads, 8 keys, uniform keys, exponential(1)
    latency, no loss, no failures, locks on, oracle detector, horizon
    100000. *)

type txn_report = {
  committed : int;
  aborted : int;  (** every transaction that did not commit *)
  uncertain : int;  (** in doubt: commit decided, acks incomplete *)
  partial_commits : int;
      (** non-atomic transactions where some shard legs applied and some
          did not — always 0 when [atomic] *)
  committed_increments : int;
  uncertain_increments : int;
  observed_total : int;  (** Σ final counter values across all shards *)
  conservation_ok : bool;
  cross_shard_txns : int;  (** transactions whose keys spanned ≥2 shards *)
}
(** The conservation tally of a transaction run.  After the horizon every
    shard is healed and loss turned off, and fresh coordinators outside
    the client counters and spans read every counter; their traffic is
    not in the report. *)

val txn_scenario : proto:Quorum.Protocol.t -> scenario
(** {!default_scenario} with transaction clients: 3 clients × 30 atomic
    two-key increment transactions over 6 keys, think time 2. *)

val churn_scenario : proto:Quorum.Protocol.t -> scenario
(** {!default_scenario} with churn: 3 clients × 40 ops, think time 3,
    horizon 3000, one spare, four keys per chunk, fenced provisioning, no
    membership changes. *)

type report = {
  duration : float;  (** virtual time at completion *)
  reads_ok : int;
  reads_failed : int;
  writes_ok : int;
  writes_failed : int;
  retries : int;
  deadline_exceeded : int;  (** operations that ran out of deadline budget *)
  safety_violations : int;
  read_latency : Dsutil.Stats.t;
  write_latency : Dsutil.Stats.t;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  heartbeat_pings : int;  (** probes sent by heartbeat monitors (0 under
                              the oracle detector) *)
  replica_reads_served : int array;
  replica_prepares_seen : int array;
  replica_writes_applied : int array;
  stale_incarnation_rejections : int;
      (** replies coordinators dropped for carrying a pre-crash
          incarnation *)
  replica_incarnations : int array;  (** amnesia recoveries per replica *)
  catchup_runs : int;  (** completed rejoin catch-ups, summed *)
  catchup_keys_installed : int;  (** keys freshened by catch-up reads *)
  catchup_abandoned : int;  (** catch-ups that ran out of retries *)
  stale_commits_nacked : int;  (** commits replicas refused as stale *)
  wal_records_replayed : int;
  wal_records_lost : int;  (** records destroyed by amnesia crashes *)
  replicas_recovering : int;  (** replicas still not serving at the end *)
  spans : Obs.Span.t list;
      (** every operation span, in close order — only collected when
          [check_consistency] is set (else empty); feed to
          [Eval.Consistency.check] *)
  replica_sheds : int;  (** client requests answered [Busy], summed *)
  busy_received : int;  (** [Busy] nacks coordinators acted on *)
  retries_suppressed : int;  (** retries refused by the shared budget *)
  overload_drops : int;  (** messages turned away by full replica queues *)
  breaker_trips : int;  (** circuit-breaker trips, summed over shards (0 without one) *)
  queue_peak : int;  (** deepest replica ingress queue seen in the run *)
  completions : float array;
      (** virtual completion time of every successful operation, in
          completion order — the raw material for goodput-over-time
          windows *)
  batches : int;
      (** multi-key batches coordinators executed (0 when batching is off
          or every window degenerated to one op) *)
  coalesced_ops : int;
      (** per-op messages saved by multi-op envelopes, summed over the
          shard networks ({!Dsim.Network.coalesced}; [net.coalesced]) *)
  wal_syncs : int;
      (** synchronous WAL forces across all replicas; under group commit a
          whole batch counts one *)
  provision_runs : int;
      (** snapshot + WAL-tail transfers started, summed over replicas (0
          in every run without [churn]) *)
  provision_chunks : int;
  provision_resumes : int;
  provision_donor_failovers : int;
  provision_rounds : int;
  provision_stale : int;
  failed_rejoins : int;
  replica_status : string array;  (** per-replica {!Replica.status_label} *)
  transactions : txn_report option;  (** [Some] iff [txn] is set *)
  promotions_started : int;  (** membership flows begun (0 without [churn]) *)
  promotions_done : int;
  decommissions_done : int;  (** fenced flows whose occupant was retired *)
}

(** {2 Sharded runs}

    The keyspace is partitioned by a deterministic {!Arbitrary.Shard_map}
    into S independent tree instances, each with its own forked protocol,
    network, service queues, breaker, replicas, stores and WALs, all over
    one engine.  Clients keep one coordinator per shard and route every
    operation through the shard map at issue time; one lock manager, one
    retry budget and one safety checker span all shards.  The plain run is
    S = 1. *)

type reconfig_action =
  | Split of int  (** split this shard; the new id is allocated at fire time *)
  | Merge of { into : int; from_ : int }

type reconfig = { at : float; action : reconfig_action }

type sharded = {
  base : scenario;
      (** the per-shard tree ([proto]) and the client workload.  Its
          [failures] hit every shard's network; its [overload] model
          applies to every shard's replicas (one shared retry budget, one
          breaker per shard). *)
  shards : int;  (** initial shard count S (>= 1) *)
  strategy : Arbitrary.Shard_map.strategy;
  service_time : float;
      (** when positive, the per-message processing cost at every replica
          of every shard: it sets [base.overload]'s service time, adding an
          otherwise all-off overload model when there is none *)
  shard_failures : (int * Dsim.Failure.entry list) list;
      (** per-shard failure schedules, applied after [base.failures] *)
  reconfig : reconfig list;
      (** online splits and merges.  A reconfiguration fences the moving
          keys (exclusive locks, taken while routing still points at the
          source shard), copies them to the target instance by
          forced-timestamp state transfer ({!Coordinator.write} with [~ts]),
          atomically flips the shard map, and releases the fences.  The
          fence is only safe behind client locks, so it needs
          [base.use_locks]. *)
}

val one_tree : scenario -> sharded
(** The scenario as a single tree: S = 1, hash partitioning, no service
    time of its own, no per-shard failures, no resharding. *)

type sharded_report = {
  agg : report;
      (** the whole-system aggregate: latencies merged, counters summed and
          per-replica arrays concatenated shard-major *)
  shards : int;  (** shard ids allocated (including split targets) *)
  active_shards : int list;
  per_shard_ops : int array;  (** successful ops routed to each shard *)
  per_shard_keys : int array;  (** final keys owned per shard *)
  migrated_keys : int;  (** keys copied by split/merge state transfer *)
  migration_failures : int;  (** keys whose copy exhausted its retries *)
  splits : int;
  merges : int;
  map_well_formed : bool;  (** final map invariant ({!Arbitrary.Shard_map.well_formed}) *)
  routing : int array;  (** final owner table: index = key, value = shard *)
}

val run_core : ?obs:Obs.t -> sharded -> sharded_report
(** The one harness loop.  Each shard's network has an address per
    replica, then per client, then per burst client, plus one for the
    migration and tally coordinators when [reconfig] is not empty or
    [txn] is set.  The membership schedule of [churn] is laid after the
    clients are started and before the failure schedules are applied.
    [obs] is that of {!run}.

    Every client's generator samples one key distribution, built once
    for the run, through the client's own RNG stream.

    @raise Invalid_argument on no client, a negative op count (steady or
    burst), service time, horizon, warmup, think time or burst time, no
    key, a [zipf_theta] outside [\[0, 2\]] or a [read_fraction] outside
    [\[0, 1\]] (NaN included), bad batching or transaction sizes, a shard index out of range, a
    reconfiguration without [base.use_locks] (the migration fence is only
    safe behind client locks), or a churn that is sharded, has negative
    spares, or names a position or spare outside the tree or the site
    universe. *)

val run : ?obs:Obs.t -> scenario -> report
(** With [obs], the harness points its clock at the engine's virtual time
    and attaches it to every network, breaker, replica, client
    coordinator and transaction manager, whose counter handles it
    registers; spans and
    phase-latency histograms cover the whole run.  The report sums the
    same handles, so it equals the registry under each name.  Attaching
    [obs] never perturbs the simulation: it draws no randomness and
    schedules no events.

    This is {!run_core} at S = 1. *)

val completed : report -> int
(** Successful operations: [reads_ok + writes_ok]. *)

val pp_txn_report : Format.formatter -> txn_report -> unit

val messages_per_op : report -> float
(** Delivered messages divided by completed operations — the measured
    communication cost (counting both request and reply legs). *)

val measured_read_load : report -> float
(** max over replicas of reads served / total successful reads: the
    empirical counterpart of the paper's system load, exact for read-only
    workloads. *)

val measured_write_load : report -> float
(** max over replicas of prepares seen / total successful writes. *)

val pp_report : Format.formatter -> report -> unit
