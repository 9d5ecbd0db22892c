(** Measured counterparts of the analytic figures: the same quantities
    observed from full protocol executions on the simulated network
    (ablation A1 of DESIGN.md).

    Costs and loads are measured from replica-side counters of read-only
    and write-only runs; availability is measured by driving the
    protocols' own quorum assembly over Monte-Carlo up/down patterns and,
    for the full stack, by crash-injected simulation runs. *)

type row = {
  config : Arbitrary.Config.name;
  n : int;
  analytic_rd_cost : float;
  measured_rd_cost : float;
  analytic_wr_cost : float;
  measured_wr_cost : float;
  analytic_rd_load : float;
  measured_rd_load : float;
  analytic_wr_load : float;
  measured_wr_load : float;
}

val read_write_runs :
  run:(Replication.Harness.scenario -> 'a) ->
  Arbitrary.Config.name ->
  n:int ->
  reads:int ->
  writes:int ->
  seed:int ->
  int * 'a * 'a
(** The {!Batching.scenario} workload run once read-only with [reads]
    operations at [seed], then once write-only with [writes] operations
    at [seed + 1], each through [run]; with the snapped [n].  The pair
    every measured cost and load comes from. *)

val measure : Arbitrary.Config.name -> n:int -> ops:int -> seed:int -> row
(** {!read_write_runs} with [ops] each way; extracts measured cost (replicas contacted per
    operation) and measured load (most-loaded replica's share of
    operations). *)

val cost_load_table : ?n:int -> ?ops:int -> ?seed:int -> unit -> string
(** All six configurations at [n] (default 65, 400 ops). *)

val cost_sweep : ?sizes:int list -> ?ops:int -> ?seed:int -> unit -> string
(** The measured counterpart of Figure 2: replicas contacted per read and
    per write, observed from real executions, across system sizes. *)

val latency_table : ?n:int -> ?ops:int -> ?seed:int -> unit -> string
(** Measured operation latencies (mean and p99, in simulated time units)
    per configuration under a mixed workload — latency follows the number
    of sequential phases, not just the contact count. *)

val availability_table :
  ?n:int -> ?p:float -> ?trials:int -> ?seed:int -> ?domains:int -> unit -> string
(** Closed-form availability vs Monte-Carlo assembly success rate.
    Trials are split into independently seeded chunks fanned across
    [domains] cores ({!Parallel}); hit counts are summed as integers, so
    the table is byte-identical for any domain count. *)

val failure_injection_run :
  Arbitrary.Config.name ->
  n:int ->
  p:float ->
  ops:int ->
  seed:int ->
  Replication.Harness.report
(** Full-stack run in which each replica is crashed independently with
    probability 1−p at time 0 and coordinators get no retries — the
    success rate estimates operation availability end-to-end. *)

val failure_availability_table :
  ?n:int -> ?p:float -> ?patterns:int -> ?seed:int -> ?domains:int -> unit -> string
(** End-to-end availability from [failure_injection_run] repeated over
    many random crash patterns.  Patterns are per-seed independent and
    fan across [domains] cores; output is byte-identical for any domain
    count. *)
