(** Membership-churn scenarios: provisioning, promotion and decommission
    under fault injection.

    A churn run builds a {!Quorum.Relabel}-wrapped tree over a universe
    of [n + spares] sites (the spares start outside every quorum), runs
    an ordinary client workload against it, and overlays two scripted
    event streams: a {!Dsim.Failure} schedule (amnesia crashes,
    partitions) and a membership schedule of {!Reconfig.promote} /
    decommission flows.  Every replica carries a
    {!Replica.provision} config, so crashed sites rejoin by snapshot +
    WAL-tail provisioning — the donor-crash, recipient-crash and
    partition cases the campaign injects all exercise the transfer's
    resume and failover machinery.

    The run is the {!Harness} core's; this module adds only the
    membership schedule and the provisioning config.  Safety is judged by
    the core's client-side freshness oracle: a read observing a timestamp
    older than a commit some client already saw acknowledged counts one
    violation.  With
    fencing on and a commit-durable WAL the count must be zero; the
    [fence_provisioning = false] negative control must leak. *)

type membership_op = {
  at : float;  (** virtual time of the flow's start *)
  position : int;  (** tree position whose occupant is replaced *)
  spare : int;  (** site id promoted into the position *)
  fence : bool;
      (** decommission the displaced occupant (drain-fence-remove);
          without it the occupant becomes a re-promotable spare *)
}

type scenario = {
  base : Harness.scenario;
      (** the tree, over positions ([proto]), and the client workload.
          [run] always uses amnesia crashes, client locks and
          provisioning in place of quorum catch-up, whatever [base] says:
          the membership flows need all three. *)
  spares : int;  (** extra sites beyond the tree universe *)
  membership : membership_op list;
  chunk_size : int;
  fence_provisioning : bool;
      (** [false] = the negative control: serve while provisioning *)
  provision_timeout : float;
}

val default_scenario : proto:Quorum.Protocol.t -> scenario
(** One spare, three clients × 40 ops, think time 3, horizon 3000, fenced
    provisioning, commit-durable WAL, no failures, no membership
    changes. *)

type report = {
  agg : Harness.report;
      (** the run itself, from {!Harness.run_core}: op counts, safety
          violations, provisioning and WAL counters, per-replica
          incarnations and {!Replica.status_label}s over the whole
          universe *)
  promotions_started : int;
  promotions_done : int;
  decommissions_done : int;
}

val run : scenario -> report
(** A {!Harness.run_core} call at S = 1: the relabelled tree, every
    replica provisioned from the live occupants, and the membership
    schedule as its [extend] hook. *)

val completed : report -> int
