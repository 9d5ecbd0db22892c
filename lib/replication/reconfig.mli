(** Online reconfiguration: "our protocol enables the shifting from one
    configuration into another by just modifying the structure of the
    tree" (§1, §3.3) — made executable.

    A quorum of the old geometry need not intersect a quorum of the new
    one, so switching requires a state transfer.  The engine:

    + takes the exclusive lock of every key in the key space (so no client
      operation is in flight anywhere during the switch),
    + for every key, reads the newest value through an {e old-tree} read
      quorum and re-installs it — under its {e original} timestamp — on a
      {e new-tree} write quorum,
    + invokes [on_switch] (where callers swap the protocol of their
      coordinators) and releases the locks.

    After the switch, every new-tree read quorum intersects the new-tree
    write quorum that received the transfer, so no committed write is
    lost.  Keys whose transfer failed (no quorum within the retry budget)
    are reported; the migration still completes for the others. *)

type result = {
  migrated : int;  (** keys successfully transferred (or empty) *)
  failed : int list;  (** keys whose transfer could not complete *)
}

val migrate :
  coord:Coordinator.t ->
  locks:Lock_manager.t ->
  new_proto:Quorum.Protocol.t ->
  key_space:int ->
  ?on_switch:(unit -> unit) ->
  (result -> unit) ->
  unit
(** [coord] must currently carry the {e old} protocol; on completion it
    has been switched to [new_proto].  It must have been created without
    [?locks] (the migration holds every key's lock itself); the transfer
    is its {!Coordinator.read}s under the old tree and forced-timestamp
    {!Coordinator.write}s under the new one.  Clients must confine their keys to
    [0 .. key_space-1].  The fence locks are held by one fresh owner
    ({!Lock_manager.fresh_owner}). *)

(** {2 Membership: promotion and decommission}

    Unlike {!migrate}, these flows never change the tree — only the
    {!Quorum.Relabel} position→site assignment.  Every quorum
    intersection argument is therefore untouched; what must be preserved
    is that the incoming site holds every commit its position ever
    acked.  Since a write quorum is all members of one physical level,
    any committed write either never involved the position or is acked
    by its current occupant — so the occupant is the one safe donor, and
    the flow is:

    + {e provision}: bulk snapshot + WAL tail from the outgoing occupant
      into the spare, online (clients keep committing);
    + {e drain}: take every key's exclusive lock, quiescing writes;
    + {e delta}: fetch the committed WAL tail since the bulk transfer's
      cut — under the locks, this is the occupant's final word;
    + {e flip}: optionally fence the occupant ({!Replica.decommission}),
      remap the position, release the locks. *)

val promote :
  locks:Lock_manager.t ->
  relabel:Quorum.Relabel.t ->
  position:int ->
  spare:Replica.t ->
  ?outgoing:Replica.t ->
  key_space:int ->
  (unit -> unit) ->
  unit
(** Promotes [spare] (an empty or stale site outside every quorum) into
    [position], displacing the current occupant.  When [outgoing] is
    given (it must be the occupant's replica) it is fenced permanently
    during the flip; without it the displaced occupant simply becomes a
    spare again — it still holds the position's history, so it can later
    be re-promoted, which is what a rolling restart does.  [spare] needs
    a {!Replica.provision} config; the fence locks are held by one fresh
    owner ({!Lock_manager.fresh_owner}).  The continuation fires once
    clients are readmitted.

    The transfer survives donor and recipient crashes: the bulk phase
    retries/resumes ({!Replica.provision_now} with a pinned donor), and
    the delta retries until the occupant answers.  A promotion whose
    outgoing occupant is {e permanently} dead cannot complete (nobody
    else is guaranteed to hold the position's acked writes — that is the
    quorum-intersection argument itself); replace dead occupants by
    provisioning from surviving same-level members via
    {!Replica.provision} [~donors] instead. *)
