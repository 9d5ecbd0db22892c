(** Transaction coordinator: drives read and write operations against the
    replicas using the quorums of a pluggable replica control protocol.

    - {b read}: assemble a read quorum, query every member, return the
      value with the newest timestamp (§3.2.1).
    - {b write}: obtain the highest version through a read quorum,
      increment it, then two-phase-commit the new (timestamp, value) on
      every member of a write quorum (§3.2.2, §2.2).

    {b One operation machine.}  A single-key operation is a batch of one:
    {!read}/{!write} and {!read_batch}/{!write_batch} share one pooled
    operation record over 1..k keys and one set of phase, timeout and
    retry functions.  Only the envelope depends on the key count: one key
    travels as [Read_request]/[Prepare], k >= 2 keys as one
    [Read_batch]/[Prepare_batch] per quorum member counted as k units by
    the network.  [Commit], [Abort] and the acks are the same for both.

    Failures are handled by per-phase timeouts: a timed-out attempt is
    aborted and the operation retried with freshly assembled quorums from
    the current failure-detector view, up to [max_retries], pausing with
    jittered exponential backoff and bounded by an optional per-operation
    deadline budget.

    The failure-detector view is pluggable ({!Detect.View}).  Per §2.2
    failures are detectable, so the default is the simulator's
    ground-truth oracle, and a caller-supplied [view] — a
    {!Detect.Heartbeat} monitor — replaces it.  Every received message
    rehabilitates its sender in the view; every missed deadline reports
    the laggards as suspects.

    Under amnesia crash-recovery ({!Dsim.Network.crash_mode}) the
    coordinator additionally tracks each replica's newest incarnation
    number and drops replies stamped with an older one (a pre-crash
    life's evidence must not complete a post-crash quorum); each member's
    [Commit] echoes the incarnation from that member's [Prepare_ack], so
    a replica that lost its staged write to a crash refuses the commit
    and the write retries instead of being silently lost.  Under pure
    fail-stop all incarnations stay 0 and behavior is unchanged.

    {b Overload defenses} (both optional, both usually shared across
    every coordinator of a process): a {!Detect.Budget} caps the global
    retry/first-attempt ratio — each operation entry deposits, each retry
    withdraws, and a drained bucket fails the operation fast instead of
    feeding a retry storm (commit-phase resends are exempt: they are
    narrow and abandoning them wedges prepared writes).  A
    {!Detect.Breaker} accumulates per-site [Busy] nacks and phase
    timeouts, and quorum assembly skips sites whose breaker is open.
    Without these arguments behavior is byte-identical to before. *)

type config = {
  timeout : float;  (** fixed per-phase response deadline *)
  max_retries : int;  (** quorum re-assembly attempts per operation *)
  read_repair : bool;
      (** after a successful single-key query, push the newest value
          back to quorum members that answered with an older timestamp
          (off by default; batches never repair) *)
  adaptive_timeout : bool;
      (** derive the phase deadline from observed RTT quantiles
          ({!Detect.Rto}, at its default parameters) instead of the fixed
          [timeout] *)
  deadline : float;
      (** per-operation time budget; a retry that cannot start before
          [op start + deadline] fails the operation.  [infinity] (default)
          disables the budget. *)
  backoff : Detect.Backoff.policy;  (** retry pause policy *)
}

val default_config : config

type t

val create :
  site:int ->
  net:Message.t Dsim.Network.t ->
  proto:Quorum.Protocol.t ->
  ?locks:Lock_manager.t ->
  ?view:Detect.View.t ->
  ?budget:Detect.Budget.t ->
  ?breaker:Detect.Breaker.t ->
  ?obs:Obs.t ->
  ?config:config ->
  unit ->
  t
(** [site] is the coordinator's own network address (distinct from every
    replica's).  When [locks] is given, single-key reads take shared and
    writes exclusive per-key locks around the quorum protocol.  Each
    operation is its own lock owner (a fresh {!Lock_manager.fresh_owner}
    id per operation), so one client may have several operations in
    flight on one key; multi-key batches take no locks.  [view] replaces
    the ground-truth failure detector.  With [obs], every operation is
    traced as a span ([ops.read.*] / [ops.write.*], phases query/prepare/
    commit, plus a lock phase when [locks] is in force) and the counter
    handles below are registered in its registry; without it no span work
    is done and no name is built. *)

type read_result = { value : string; ts : Timestamp.t; attempts : int }

val read : t -> ?retry:bool -> key:int -> (read_result option -> unit) -> unit
(** [None] when no read quorum could be assembled within the retry
    budget.

    [~retry:true] marks a caller-level re-issue of a failed operation:
    it skips the retry-budget deposit so a storm of re-issues cannot
    refill its own token bucket (tokens are only earned by genuine first
    attempts).  Default [false]. *)

val write :
  t ->
  ?retry:bool ->
  key:int ->
  ?ts:Timestamp.t ->
  value:string ->
  (Timestamp.t option -> unit) ->
  unit
(** On success, the timestamp under which the value was committed.
    [~retry:true] as in {!read}.

    A forced [ts] skips the version phase: the value is prepared and
    committed under exactly [ts].  State transfer uses it to re-install
    values without minting new versions; re-installing the same [ts] is
    idempotent at the replicas.  A forced write takes no lock, whatever
    [locks] says: state transfer runs under its caller's fences. *)

(** {2 Batches}

    A batch runs over the caller's slice [\[pos, pos + len)] of a key
    array (and, for writes, of a value array of the same layout); the
    keys and values are copied when the call is made, so the caller may
    reuse its arrays at once.  Its callback gets an {!outcome}: the
    finished operation itself, read position by position. *)

type outcome
(** A finished batch.  Valid only while its callback runs: the record
    behind it is reused by a later operation once the callback returns. *)

val outcome_ok : outcome -> bool
(** Whether every position succeeded.  A batch retries as a whole, so its
    positions succeed or fail together. *)

val outcome_pos : outcome -> int
(** The [pos] of the slice the batch was issued over. *)

val outcome_length : outcome -> int
(** The [len] of that slice. *)

val outcome_version : outcome -> int -> int
(** [outcome_version o i]: the timestamp version at slice position [i]
    ([0 <= i < outcome_length o]) of a successful batch: the newest one
    read, or the one written.  Raises [Invalid_argument] outside the
    slice. *)

val outcome_sid : outcome -> int -> int
(** Likewise, the timestamp's writer site. *)

val outcome_value : outcome -> int -> string
(** The value a successful read batch read at slice position [i]. *)

val read_batch :
  t -> keys:int array -> pos:int -> len:int -> (outcome -> unit) -> unit
(** Batched read: ONE quorum round answers every key.  Each quorum member
    receives a single {!Message.t.Read_batch} envelope (one message, one
    service-queue slot) and answers all keys at once; with whole-batch
    retry a round either answers every key or (after the retry budget)
    fails every key.  An empty slice answers at once, successfully.

    A batch of one key is a {!read}: locks, spans and RNG draws are a
    single-key op's, which is how a harness client with a window of one
    runs one op at a time ({!Harness.batching}).  Larger batches skip the
    per-key lock manager: monotone installs and quorum intersection make
    them safe without it.  Phases and retries are traced on single-key
    spans only; a batch's per-key spans record their outcome.  A batch
    deposits once into the retry budget, whatever its size (it consumes
    one quorum round of capacity).  Raises [Invalid_argument] when the
    slice is out of bounds. *)

val write_batch :
  t ->
  keys:int array ->
  values:string array ->
  pos:int ->
  len:int ->
  (outcome -> unit) ->
  unit
(** Batched write of [values.(i)] to [keys.(i)] over the slice: one
    version-query round (a {!Message.t.Read_batch} over a read quorum)
    obtains every key's newest version, then ONE two-phase-commit
    exchange carries all keys — a single {!Message.t.Prepare_batch}
    envelope per write-quorum member, staged and committed atomically
    under one op id, one [Commit]/[Commit_ack] pair per member.  The
    outcome holds each position's commit timestamp.

    A key written twice in one batch gets strictly increasing versions,
    so its last value wins.  Singleton, locking and budget semantics as
    in {!read_batch}. *)

(** {2 Held prepares}

    The 2PC of a multi-key write, split at its decision point so a caller
    can make one decision across several coordinators (a cross-shard
    transaction).  A held prepare is a {!write_batch} whose operation
    parks after the prepare phase; {!commit_staged} resumes it into the
    commit phase and {!abort_staged} rolls it back. *)

type staged
(** A write staged on every member of a write quorum.  Consumed by one
    {!commit_staged} or {!abort_staged}; a spent handle raises
    [Invalid_argument], also once its pooled record holds another
    prepare. *)

val prepare_batch :
  t ->
  keys:int array ->
  values:string array ->
  pos:int ->
  len:int ->
  ((staged, [ `Version | `Prepare ]) result -> unit) ->
  unit
(** Version phase, then prepare, of the slice's writes (any number >= 1
    of keys, versions as in {!write_batch}); the callback gets the held
    prepare, or the phase the last attempt failed in.  Takes no locks
    whatever [locks] says: the caller owns concurrency control.  Spans,
    counters and the retry budget as in {!write_batch}: a held prepare's
    keys count (and close their spans) when it commits or aborts.  Raises
    [Invalid_argument] on an empty or out-of-bounds slice. *)

val commit_staged : t -> staged -> (bool -> unit) -> unit
(** Commit a held prepare, resending to laggards on timeout; [false] when
    some member never acknowledged or lost its stage to a crash (the
    outcome is in doubt). *)

val abort_staged : t -> staged -> unit
(** Roll a held prepare back: [Abort] to every member, fire and forget.
    Its keys count as failed writes and their spans close failed. *)

val protocol : t -> Quorum.Protocol.t
(** The quorum geometry in force. *)

val set_protocol : t -> Quorum.Protocol.t -> unit
(** Swap the quorum geometry (reconfiguration, §3.3).  Only safe while the
    coordinator has no operation in flight — the reconfiguration engine
    guarantees this by holding every key's exclusive lock.  Raises
    [Invalid_argument] if the replica universe size changes. *)

(** {2 Counters} *)

val counters : t Obs.Metrics.handles
(** The coordinator's counter handles under their [coord.*] names of
    docs/PROTOCOL.md §8: what [obs] registers and what {!count} reads.
    Reads and writes count per key; a batch of one key is a plain
    {!read}/{!write} and not a [coord.batches] round. *)

val count : t -> string -> int
(** The coordinator's count under a §8 name since {!create}.
    @raise Invalid_argument on a name not in {!counters}. *)

val read_latency : t -> Dsutil.Stats.t
val write_latency : t -> Dsutil.Stats.t
