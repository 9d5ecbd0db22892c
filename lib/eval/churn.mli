(** §4-style membership-churn campaign: fault-injected provisioning,
    promotion and decommission over the four paper configurations.

    Each cell is one scenario line with [churn] ({!Campaign}): a client workload
    over a {!Quorum.Relabel}-wrapped tree while a scripted fault and
    membership schedule churns the sites.  Four scenario shapes:

    - {e donor-crash} — a replica amnesia-crashes and rejoins by
      provisioning; its donor is crashed mid-transfer, forcing a donor
      failover with resume;
    - {e recipient-crash} — the rejoiner itself crashes again
      mid-transfer and must resume from its last durable chunk mark;
    - {e partition-promotion} — a spare is promoted into a position and
      partitioned away mid-bulk-transfer; the flow stalls and completes
      after the heal;
    - {e rolling} — position 0 is rolled out to a spare and back
      (unfenced re-promotion), then another position's occupant is
      properly decommissioned, with background crash churn.

    The campaign gate: with fencing on and a commit-durable WAL,
    {!Campaign.violations} over every fenced cell must be zero, while the
    {!run_negative} blackout control (fencing off, volatile-suffix WAL)
    must leak at least one stale read. *)

val rejoin_failures :
  n:int ->
  crash_donor:bool ->
  crash_recipient:bool ->
  Dsim.Failure.entry list
(** The provisioning rejoin script: the last occupant (site [n−1])
    crashes at t=60 and recovers at t=100; with [crash_donor] its first
    donor (site 0) crashes mid-transfer at t=103, with [crash_recipient]
    it crashes again itself at t=104.  The donor-crash and
    recipient-crash scenarios are this script with one flag set. *)

val line :
  Arbitrary.Config.name ->
  n:int ->
  clients:int ->
  ops:int ->
  seed:int ->
  horizon:float ->
  failures:(n:int -> Dsim.Failure.entry list) ->
  membership:(n:int -> Replication.Harness.membership_op list) ->
  Scenario_line.t
(** The churn cell: the configuration at the snapped [n] plus two spares,
    [clients] × [ops] operations under {!Chaos.chaos_coordinator}, one key
    per snapshot chunk, fenced provisioning over a commit-durable WAL, and
    the [failures] and [membership] scripts applied to the snapped [n].
    {!run}, {!run_negative}, {!run_sharded} and [replica-ctl
    provision/promote/decommission] vary only some of its fields. *)

val run :
  ?n:int -> ?configs:Arbitrary.Config.name list -> ?domains:int -> unit ->
  Campaign.cell list
(** The positive campaign: every [configs] × kind cell, labelled with its
    kind, 3 clients × 25 ops, horizon 3000; the cell of configuration
    [ci] and kind [si] is seeded [42 + 1000·ci + 100·si]. *)

val run_negative :
  ?n:int -> ?configs:Arbitrary.Config.name list -> unit -> Campaign.cell list
(** The control that must leak: 3 clients × 40 ops over 4 keys, seed
    [42 + 1000·ci], horizon 3000; every occupant blacks out at once under
    [Wal.Async] with provisioning unfenced, so recovered replicas serve
    from gutted stores.  A campaign where this control shows zero
    violations is not testing anything. *)

val run_sharded : ?n:int -> unit -> Campaign.cell list
(** Three independently seeded single-tree cells on UNMODIFIED, one per
    key shard of a sharded control plane, shard [i] seeded [42 + 17·i]:
    each runs the rolling membership script plus a donor-crash rejoin.
    No cell is a sharded harness run; the shards share nothing, so the
    gate sums them. *)

val table : Campaign.cell list -> string

(** {2 Cold-rejoin cost: provisioning vs per-key catch-up} *)

type rejoin_comparison = {
  rj_keys : int;
  rj_n : int;
  rj_catchup_rounds : int;  (** per-key quorum rounds the old path needs *)
  rj_provision_rounds : int;  (** chunk/tail rounds the new path needs *)
  rj_provision_chunks : int;
  rj_catchup_serving : bool;  (** did the catch-up rejoin finish *)
  rj_provision_serving : bool;  (** did the provisioned rejoin finish *)
  rj_speedup : float;  (** catchup_rounds / provision_rounds *)
}

val cold_rejoin_comparison :
  ?keys:int -> ?chunk_size:int -> unit -> rejoin_comparison
(** Two identical worlds of seven UNMODIFIED replicas with [keys]
    committed keys (seed 42); the last replica
    amnesia-crashes cold and rejoins via catch-up in one and chunked
    provisioning in the other.  Counts protocol rounds — the BENCH gate
    requires [rj_speedup >= 5] at 10k keys. *)
