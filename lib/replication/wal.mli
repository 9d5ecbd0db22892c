(** Simulated write-ahead log: the replica's stable storage.

    The paper assumes fail-stop replicas whose memory survives crashes
    (§2.2); this module makes the durability assumption explicit and
    tunable so crash-{e recovery} with amnesia can be simulated honestly.
    A replica appends staged writes, committed installs and aborts; on an
    amnesia crash the log is truncated according to the persistence policy
    in force, and on recovery {!replay} rebuilds the store from whatever
    survived.

    Policies:
    - {!Sync_on_commit}: committed installs are durable the moment they
      are logged; staged (prepared-but-undecided) writes and aborts are
      volatile and lost on a crash.  A recovered replica answers a 2PC
      [Commit] for a lost stage with a nack, which the coordinator turns
      into a retry.  A volatile record is counted, not stored: it takes
      its append index and counts in {!length} until the next {!crash},
      which adds it to {!lost_total}, but no {!replay} ever sees it.
    - {!Sync_on_prepare}: staged writes are durable too — the classic 2PC
      participant contract.  Replay restores both committed state and the
      undecided stage set.
    - {!Async lag}: every record becomes durable only [lag] units of
      virtual time after it was appended (a background flusher with that
      much dirty data in flight).  A crash loses the un-flushed suffix —
      {e including writes the replica already acknowledged}.  This policy
      deliberately violates the stable-storage contract; the consistency
      checker exists to catch exactly the anomalies it introduces.

    {b Async durability boundary (pinned).}  A record appended at time
    [t] under [Async lag] is durable from [t +. lag] {e inclusive}: a
    crash at exactly [t +. lag] keeps the record, a crash any earlier
    loses it.  The flush is modelled as happening {e at} the deadline,
    before any crash processed at the same instant — the tie breaks in
    favour of durability.  This is a contract, not an accident of
    floating-point comparison; tests pin both sides of the boundary. *)

type policy =
  | Sync_on_commit
  | Sync_on_prepare
  | Async of float  (** flush lag in virtual time; must be positive *)

val policy_to_string : policy -> string
(** ["commit"], ["prepare"], ["async(<lag>)"]. *)

type record =
  | Stage of { op : int; key : int; ts : Timestamp.t; value : string }
  | Commit of { op : int; key : int; ts : Timestamp.t; value : string }
      (** a 2PC commit: clears the stage of [op] and installs the write.
          Carries the full write so it is self-contained even when the
          matching {!Stage} record was volatile (Sync_on_commit) *)
  | Install of { key : int; ts : Timestamp.t; value : string }
      (** a committed write learned outside 2PC (read repair, catch-up,
          or a provisioning snapshot chunk) *)
  | Abort of { op : int }
  | Mark of { chunk : int; wal_index : int }
      (** provisioning progress: snapshot chunks [0..chunk] of a transfer
          stamped at donor index [wal_index] have been applied {e and}
          logged — an amnesia crash mid-transfer resumes after the newest
          durable mark instead of from chunk 0.  [chunk = -1] is the
          completion mark: it retires earlier marks so a later rejoin
          starts a fresh transfer.  Durable like {!Install}; no store
          effect on replay. *)

type t

val create : ?policy:policy -> now:(unit -> float) -> unit -> t
(** [now] is the virtual clock (the engine's) used to stamp appends and
    decide durability at crash time; it must never run backwards.  Only
    [Async] reads it on append.  Default policy {!Sync_on_commit}.
    Raises [Invalid_argument] on [Async lag] with [lag <= 0]. *)

val policy : t -> policy

val append : t -> record -> unit
(** Appends one record, stamped durable per the policy.  Counts one
    {!syncs} when the policy forces it to stable storage immediately
    (Sync_on_prepare always; Sync_on_commit for [Commit]/[Install]). *)

val stage :
  t -> op:int -> key:int -> version:int -> sid:int -> value:string -> unit
(** [append] of a [Stage] record, without building the record: the
    per-prepare form, which allocates nothing beyond the log's amortized
    column growth. *)

val commit :
  t -> op:int -> key:int -> version:int -> sid:int -> value:string -> unit
(** [append] of a [Commit] record, allocation-free like {!stage}. *)

val abort : t -> op:int -> unit
(** [append] of an [Abort] record, allocation-free like {!stage}. *)

val install : t -> key:int -> version:int -> sid:int -> value:string -> unit
(** [append] of an [Install] record, allocation-free like {!stage}. *)

val stage_batch : t -> op:int -> group:bool -> Batch.t -> unit
(** A [Stage] record of [op] for every write of the batch, in order,
    allocation-free like {!stage}.  With [group] the records share one
    durability point as in {!append_batch}; without, each is charged as
    {!append} would. *)

val commit_batch : t -> op:int -> group:bool -> len:int -> Batch.t -> unit
(** {!stage_batch} for [Commit] records of the batch's first [len] writes
    (a staged batch, {!Store.slot_batch}, may be longer than its stage). *)

val install_batch : t -> Batch.t -> unit
(** {!stage_batch} for [Install] records, always grouped: the batch is
    charged at most one sync, as {!append_batch} would charge it. *)

val append_batch : t -> record list -> unit
(** Group commit: appends the records in order with the same per-record
    durability stamps {!append} would give them (all at the same virtual
    instant), but charges {e at most one} {!syncs} for the whole batch —
    one durability point amortized over every record the policy would
    otherwise force individually.  Crash truncation and {!replay} see
    the records exactly as if appended one by one. *)

val crash : t -> unit
(** An amnesia crash at the current time: truncates every record that was
    not yet durable under the policy.  The comparison is inclusive — a
    record whose durability deadline is exactly now survives (see the
    Async boundary note above).  Under both sync policies every stored
    record is durable, so only [Async] scans the log; the volatile
    records of [Sync_on_commit] are dropped by count.  Fail-stop crashes
    never call this — the replica's memory survives, so the log is
    irrelevant. *)

val replay : t -> Store.t -> int
(** Rebuild [store] from the stored records in append order: installs are
    applied monotonically, stages re-staged, aborts clear their stage.
    Returns the number of records applied.  Meant for a log that has just
    {!crash}ed; on one that has not, the volatile records of
    [Sync_on_commit] are not replayed (they were never stored), so its
    stages are not re-staged. *)

(** {2 Indices, snapshot cuts and tails}

    Every record carries an absolute append index, assigned at {!append}
    time and monotone for the replica's whole lifetime: a {!crash}
    discards truncated records' indices but never rewinds the counter.
    A snapshot cut is stamped with the donor's {!next_index} at cut
    time; the tail that completes the snapshot is then every committed
    record {e at or after} that stamp.  The boundary is pinned: the
    record appended exactly at the stamp IS in the tail (the stamp names
    the next index to be assigned, so nothing at or above it can predate
    the cut), and the record at [stamp - 1] is NOT. *)

val next_index : t -> int
(** The index the next appended record will receive — equivalently, the
    number of records ever appended.  Monotone across crashes. *)

val replay_from : t -> Store.t -> index:int -> int
(** {!replay} restricted to records with index [>= index] (inclusive);
    returns the number applied.  [replay_from ~index:0] = {!replay}.
    @raise Invalid_argument on a negative index. *)

val committed_since : t -> index:int -> Batch.t
(** The committed-state tail since a cut: (key, version, sid, value) of
    every surviving [Commit]/[Install] record with index [>= index], in
    append order.  Stages, aborts and marks are skipped.  Installing the
    result monotonically on top of a snapshot stamped [index] yields a
    state that covers every commit this replica logged since the cut.
    @raise Invalid_argument on a negative index. *)

val resume_state : t -> (int * int) option
(** Where an interrupted provisioning transfer should resume, from the
    newest surviving {!record.Mark}: [Some (next_chunk, wal_index)] when
    a transfer was cut short after durably applying chunks
    [0..next_chunk-1] of the cut stamped [wal_index]; [None] when no
    transfer was in flight (no marks, or the newest is a completion
    mark). *)

val length : t -> int
(** Records currently in the log (durable or not): the stored records
    plus the volatile ones appended since the last {!crash}. *)

val lost_total : t -> int
(** Records discarded across all {!crash} calls so far — the measurable
    gap between the stable-storage claim and this policy's reality. *)

val syncs : t -> int
(** Synchronous stable-storage forces charged so far: one per forcing
    {!append}, at most one per {!append_batch}.  The batched-over-unbatched
    ratio of this counter is the group-commit amortization. *)

val counters : t Obs.Metrics.handles
(** The {!syncs} and {!lost_total} handles, as [replica.wal.syncs] and
    [replica.wal.lost]; the replica owning the log registers them. *)

