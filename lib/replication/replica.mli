(** Replica server: the per-site message handler.

    In the paper's fail-stop model the replica is stateless beyond its
    {!Store.t} and all protocol decisions live in the coordinator.  With a
    {!recovery} config attached it additionally survives {e amnesia}
    crashes ({!Dsim.Network.crash_mode}): every store mutation is mirrored
    into a {!Wal}, and on recovery the replica runs a rejoin state
    machine — replay the surviving WAL suffix, then (optionally) catch up
    by reading every key's newest timestamp through a read quorum of its
    peers — before it serves reads or counts toward write quorums again.
    While recovering it answers [Prepare_nack {reason = "recovering"}] to
    reads and prepares, so coordinators re-assemble their quorums around
    it.

    Each amnesia recovery bumps the replica's {e incarnation} number,
    which is stamped on every reply; coordinators use it to reject replies
    and acks that straddle a crash (see {!Message}).  Under pure fail-stop
    the incarnation stays 0 and none of this machinery runs: a replica
    created without [?recovery] is byte-identical in behavior to the
    legacy one (no RNG split, no WAL, no crash hooks). *)

type t

type recovery
(** Crash-recovery configuration. *)

type provision
(** Snapshot-provisioning configuration (see {!provision}). *)

type admission
(** Overload admission-control configuration. *)

val admission : ?shed_watermark:int -> ?universe:int -> unit -> admission
(** [shed_watermark] (default 0 = disabled) is a depth threshold on the
    site's bounded ingress queue ({!Dsim.Network.set_service}): while the
    queue is deeper, client reads and prepares are answered with
    {!Message.t.Busy} instead of being served, so the replica spends its
    scarce service time on traffic that can still finish in time.
    [universe] is the replica count — sources below it are peers whose
    catch-up reads are never shed; it defaults to the recovery protocol's
    universe when available, else every source counts as a client.

    Attaching an admission config also installs a priority lane and an
    overflow hook on the network queue: 2PC commit/abort traffic, read
    repair, heartbeats and peer catch-up reads bypass the queue's
    capacity bound entirely, and requests the full queue turns away get
    an immediate [Busy] instead of a silent drop.

    @raise Invalid_argument on a negative watermark. *)

val provision :
  ?chunk_size:int ->
  ?fence:bool ->
  ?donors:(unit -> int list) ->
  key_space:int ->
  unit ->
  provision
(** Snapshot provisioning: on rejoin the replica rebuilds from a donor's
    chunked snapshot plus a WAL tail instead of per-key quorum catch-up.
    Chunk [i] always covers keys [i*chunk_size, (i+1)*chunk_size) of
    [key_space] (default chunk size 256), so chunk numbers keep their
    meaning across donor failover and recipient restarts, and the donor
    holds no per-transfer state.  Every applied chunk is WAL-logged with
    a progress mark, so an amnesia crash mid-transfer resumes after the
    last durable chunk.  A transfer making no progress for 30 virtual
    time units fails over to the next donor candidate ([donors]
    enumerates candidates in preference order; default: every site of the
    recovery protocol's universe), fenced by donor incarnation against
    chunks of a broken (pre-restart) transfer.

    [fence] (default [true]) keeps the recipient refusing reads and
    prepares until the tail is applied.  With [fence:false] the replica
    serves {e while} provisioning — deliberately unsafe (a client can
    read a key whose chunk has not arrived), kept as the negative control
    that proves the consistency checker would catch the races fencing
    prevents.

    @raise Invalid_argument on a non-positive key space or chunk size. *)

val recovery :
  ?wal_policy:Wal.policy ->
  ?catch_up:bool ->
  ?keys:(unit -> int list) ->
  ?proto:Quorum.Protocol.t ->
  ?provision:provision ->
  unit ->
  recovery
(** [wal_policy] defaults to {!Wal.Sync_on_commit}.  [catch_up] (default
    [true]) runs quorum catch-up after WAL replay and requires [proto];
    the instance is {!Quorum.Protocol.fork}ed so the replica never shares
    protocol scratch state with coordinators.  [keys] enumerates the keys
    to catch up on (default: the keys present in the store after replay —
    pass the full key space to also recover keys whose WAL records were
    lost).  Each per-key quorum gather times out after 25 virtual time
    units and is retried with {!Detect.Backoff.default} jitter up to 20
    times; on exhaustion the replica
    enters the terminal failed-rejoin state (safe but unavailable; see
    {!failed_rejoins}) until its next crash/recover cycle.

    When [provision] is given it {e replaces} quorum catch-up as the
    rejoin path: recovery replays the WAL, then provisions from a donor
    (resuming an interrupted transfer where its durable marks left off).

    @raise Invalid_argument if [catch_up] is set without [proto]. *)

val create :
  site:int ->
  net:Message.t Dsim.Network.t ->
  ?recovery:recovery ->
  ?admission:admission ->
  ?group_commit:bool ->
  ?obs:Obs.t ->
  unit ->
  t
(** Creates the replica and installs its handler on the network.  When
    [recovery] is given, also registers crash hooks
    ({!Dsim.Network.set_crash_hooks}) so the replica learns about its own
    amnesia crashes, and splits a private RNG stream for catch-up quorum
    sampling (so enabling recovery perturbs no other component's draws).

    [group_commit] (default [false]) makes the WAL records of one batched
    prepare or commit share a single durability point
    ({!Wal.append_batch}): at most one sync is charged per batch instead
    of one per record.  Per-record durability semantics are unchanged —
    the records are stamped exactly as individual appends at the same
    instant would stamp them — so crash truncation and replay behave
    identically; only the {!wal_syncs} cost model differs.  No effect on
    unbatched traffic.

    Every count below is a counter handle the replica owns; [obs]
    registers them under the [replica.*] and [provision.*] names of
    docs/PROTOCOL.md §8. *)

val site : t -> int
val store : t -> Store.t

val reads_served : t -> int
val writes_applied : t -> int
val prepares_seen : t -> int

val repairs_applied : t -> int
(** Read-repair installs that actually changed this replica's state. *)

val sheds : t -> int
(** Client requests answered with [Busy] — watermark sheds plus
    queue-full overflows ([replica.shed]). *)

(** {2 Recovery observables} *)

val incarnation : t -> int
(** Number of amnesia recoveries completed; 0 under fail-stop. *)

val is_serving : t -> bool
(** [false] while the rejoin state machine is still catching up. *)

val is_decommissioned : t -> bool
val is_failed_rejoin : t -> bool

val status_label : t -> string
(** ["serving"], ["recovering"], ["failed-rejoin"] or ["decommissioned"]. *)

(** {2 Membership operations}

    Provisioning, promotion support and decommission.  The higher-level
    online flows (promote a spare into a tree position, drain and remove
    an occupant) live in {!Reconfig}; these are the per-replica
    primitives they compose. *)

val provision_now : t -> donor:int -> (unit -> unit) -> unit
(** Starts (or restarts) a snapshot transfer from [donor] immediately,
    without waiting for a crash/recover cycle.  The donor is pinned: no
    failover, because promotion, the caller, has exactly one safe donor,
    the outgoing occupant (its acked writes are exactly what quorum
    intersection makes the incoming occupant answerable for).  The
    continuation fires when the tail is applied; it survives recipient
    amnesia crashes (the restarted transfer re-attaches it).  Requires a
    {!provision} config.

    @raise Invalid_argument without a provisioning config. *)

val request_tail : t -> donor:int -> (unit -> unit) -> unit
(** One-shot delta: fetch from [donor] the committed WAL tail since the
    newest donor WAL cut this replica holds, install it, then
    run the continuation.  Retried until answered.  The promotion flow
    calls this while every key is write-locked, making the reply the
    donor's final committed word. *)

val decommission : t -> unit
(** Fences the replica permanently: reads, prepares and donor duty are
    refused with [Prepare_nack "decommissioned"], commits are nacked, and
    crash/recover cycles do not resurrect it.  Heartbeats still answer —
    a decommissioned site is up, just out of every quorum. *)

val catchup_runs : t -> int
(** Completed catch-ups (back to serving). *)

val catchup_keys_installed : t -> int
(** Keys whose quorum-read value actually changed local state. *)

val catchup_abandoned : t -> int
(** Catch-ups that exhausted their retry budget (the replica lands in
    the terminal failed-rejoin state: safe, not live). *)

val catchup_rounds : t -> int
(** Read-quorum gathers issued by catch-up — one per key per attempt.
    The unit the provisioning speedup is measured in. *)

val failed_rejoins : t -> int
(** Times the rejoin machinery gave up and entered failed-rejoin.
    Registered as [replica.rejoin.failed]. *)

val provision_runs : t -> int
(** Completed snapshot provisionings (tail applied, back to serving). *)

val provision_chunks : t -> int
(** Snapshot chunks applied and logged ([provision.chunks] metric). *)

val provision_resumes : t -> int
(** Transfers continued from a non-zero chunk cursor — recipient
    restarts after the last durable mark, plus mid-transfer failovers
    ([provision.resumes] metric). *)

val provision_donor_failovers : t -> int
(** Donor switches after a stall or refusal ([provision.donor_failovers]
    metric). *)

val provision_stale : t -> int
(** Provisioning replies fenced off: wrong op, wrong donor, duplicate
    chunk, or a donor incarnation from a broken transfer. *)

val provision_rounds : t -> int
(** Provisioning protocol rounds issued (requests, acks and tail
    fetches) — directly comparable to {!catchup_rounds}. *)

val stale_commits_nacked : t -> int
(** Commits refused because they carried a pre-crash incarnation. *)

val wal_records_replayed : t -> int
val wal_records_lost : t -> int

val wal_syncs : t -> int
(** Synchronous WAL forces so far ({!Wal.syncs}); 0 without a WAL.  Under
    [group_commit] a whole batch counts one — comparing this across
    batched and unbatched runs measures the group-commit amortization. *)
