(** Multi-key transactions (§2.2): "users interact with sites by means of
    transactions which are partially ordered sets of read and write
    operations … if a transaction contains write operations, a
    2-phase-commit protocol at the end of the transaction is executed".

    Concurrency control is strict two-phase locking against the shared
    {!Lock_manager}: reads take shared locks as they execute, writes are
    buffered and take exclusive locks (sorted by key, with
    shared→exclusive upgrades) when {!commit} starts; all locks are held
    to the end.  The quorum work runs on one {!Coordinator} per shard,
    created without [?locks] (the transaction's own locks are the
    concurrency control): a read is {!Coordinator.read}, and commit
    prepares each shard's written keys with {!Coordinator.prepare_batch}
    — version phase and prepare, held — and only once {e every} shard
    holds its prepare commits them all, so the transaction is atomic
    across keys and shards.  Any failure before that point aborts every
    held prepare.

    Deadlocks (cross-key lock cycles) are resolved by a lock-acquisition
    timeout that aborts the transaction; upgrade-upgrade conflicts abort
    immediately. *)

type manager

val create_sharded_manager :
  site:int ->
  engine:Dsim.Engine.t ->
  coords:Coordinator.t array ->
  route:(int -> int) ->
  locks:Lock_manager.t ->
  ?atomic:bool ->
  ?obs:Obs.t ->
  unit ->
  manager
(** A manager at client [site] over one coordinator per shard, with
    [route] mapping a key to its coordinator's index.  The coordinators
    must have been created without [?locks].  With [obs], every
    transaction is traced as a [txn] span whose lock/prepare/commit
    phases mark the commit barriers (their quorum lists carry the
    write-key set), and the counter handles below are registered as
    [txn.committed] and [txn.aborted].

    [atomic:false] is the negative control: commit runs one independent
    {!Coordinator.write_batch} per shard, with no cross-shard barrier, so
    a transaction spanning a failing shard and a healthy one applies
    partially ({!Partial}: phantom increments a conservation checker must
    flag). *)

val create_manager :
  site:int ->
  net:Message.t Dsim.Network.t ->
  proto:Quorum.Protocol.t ->
  locks:Lock_manager.t ->
  unit ->
  manager
(** One shard: a manager over a fresh default {!Coordinator} at [site],
    which takes over the site's message handler. *)

type t
(** An open transaction. *)

type outcome =
  | Committed
  | Aborted of string  (** nothing was applied; the reason *)
  | In_doubt
      (** the decision was commit but not every commit ack arrived (the
          2PC in-doubt window): the effects may or may not be visible *)
  | Partial of { applied : int; legs : int }
      (** negative control only ([atomic:false]): [applied] of the
          transaction's [legs] shard legs committed, the others did not *)

val begin_txn : manager -> t

val read : t -> key:int -> (string option -> unit) -> unit
(** Quorum read under a shared lock.  Reads-your-writes: a key this
    transaction has written returns the buffered value; a key already
    read returns the cached value (repeatable read).  [None] means the
    quorum could not be assembled — the transaction is aborted. *)

val write : t -> key:int -> value:string -> unit
(** Buffers the write; all network work happens at commit. *)

val commit : t -> (outcome -> unit) -> unit
(** Runs 2PL lock acquisition + cross-key two-phase commit; locks are
    released whatever the outcome. *)

val abort : t -> unit
(** Drops buffered writes and releases locks.  No-op if finished. *)

val is_finished : t -> bool

(** {2 Counters} *)

val counters : manager Obs.Metrics.handles
(** [txn.committed], and [txn.aborted]: every finished transaction that
    did not commit (aborted, in doubt or partial). *)

val count : manager -> string -> int
(** @raise Invalid_argument on a name not in {!counters}. *)
