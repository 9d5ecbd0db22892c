(** A replica's versioned key-value store with two-phase-commit staging.

    Committed state maps keys to the newest (timestamp, value) pair seen;
    installs are monotone in timestamp order, so re-delivered or re-ordered
    commits are harmless.  Prepared-but-undecided writes are staged per
    operation id.

    {b Representation.}  Committed state is an insert-only
    open-addressing table keyed by key id: parallel key, [version],
    [sid] and value columns (the middle two unboxed), linear probing, a
    power-of-two size at most half full.  Its memory follows the number
    of keys the replica holds, whatever their ids; [min_int] marks an
    empty slot and is the one key that cannot be installed.  A read
    probes once ({!committed_slot}) and reads the slot's fields without
    boxing a timestamp or a tuple — the replica's serving path goes
    through it.  Staged writes live in an open-addressing table of flat
    columns keyed by op id, one slot per op: a single write's fields, or
    a staged batch's {!Batch} arrays (shared with the envelope that
    brought them) and length.  Both are read by slot ({!staged_slot},
    {!staged_batch_slot}), so a stage and its commit allocate nothing,
    and WAL replay accumulates a batch in amortized O(1) per record.

    The store itself is plain volatile memory.  What survives a crash is
    decided one layer up: under the paper's fail-stop model (§2.2) the
    whole store persists untouched, while under amnesia crashes the replica
    rebuilds it by replaying its {!Wal} — so staged writes survive exactly
    when the WAL policy in force persists them ([Sync_on_prepare]; see
    {!Wal.policy}).  A key whose committed write was lost to amnesia (and
    not recovered by WAL replay or catch-up) reads as a never-written key
    again: [Timestamp.zero] and the empty string — which is precisely the
    stale state the consistency checker hunts for. *)

type t

val create : unit -> t

val read : t -> key:int -> Timestamp.t * string
(** [Timestamp.zero] and the empty string for never-written keys. *)

val committed_slot : t -> key:int -> int
(** The committed slot of [key]: its own slot, or, for a never-written
    key, an empty slot whose fields read as [0], [0] and [""].  One probe;
    allocation-free.  Valid until the next install. *)

val committed_version : t -> int -> int
val committed_sid : t -> int -> int
val committed_value : t -> int -> string
(** Fields of a slot from {!committed_slot}. *)

val version_of : t -> key:int -> int
(** Committed version of [key]; 0 for never-written keys.  Allocation-free. *)

val sid_of : t -> key:int -> int
(** Committed writer sid of [key]; 0 for never-written keys. *)

val value_of : t -> key:int -> string
(** Committed value of [key]; [""] for never-written keys. *)

val install : t -> key:int -> ts:Timestamp.t -> value:string -> bool
(** Applies the write if [ts] is newer than the committed timestamp;
    returns whether the state changed.
    @raise Invalid_argument when [key] is [min_int]. *)

val install_flat :
  t -> key:int -> version:int -> sid:int -> value:string -> bool
(** {!install} without the boxed timestamp. *)

val stage : t -> op:int -> key:int -> ts:Timestamp.t -> value:string -> unit
(** Stages a single write under [op] (last-write-wins per op id); clears
    any staged batch under the same id. *)

val stage_flat :
  t -> op:int -> key:int -> version:int -> sid:int -> value:string -> unit
(** {!stage} without the boxed timestamp. *)

val staged : t -> op:int -> (int * Timestamp.t * string) option
(** The single write staged under [op], boxed for inspection; the commit
    path reads it by slot ({!staged_slot}) instead. *)

val staged_slot : t -> op:int -> int
(** The slot of the single write staged under [op], or [-1]; O(1)
    expected.  Valid until the next stage, commit or abort (a slot
    number, like the ones below, names no op once its stage is gone). *)

val slot_key : t -> int -> int
val slot_version : t -> int -> int
val slot_sid : t -> int -> int
val slot_value : t -> int -> string
(** Fields of the write staged in a slot from {!staged_slot}. *)

val has_staged : t -> op:int -> bool
(** Whether a single write is staged under [op], without allocating the
    option {!staged} returns. *)

val staged_batch_slot : t -> op:int -> int
(** The slot of the batch staged under [op], or [-1]; as {!staged_slot}. *)

val slot_batch : t -> int -> Batch.t
(** The batch staged in a slot from {!staged_batch_slot}: its first
    {!slot_length} writes are the stage, in write order.  Read it, never
    mutate it. *)

val slot_length : t -> int -> int

val stage_many : t -> op:int -> Batch.t -> unit
(** Stages a whole batch of writes under one op id (a batched prepare);
    clears any single stage under the same id.  Committed or aborted
    atomically by {!commit_staged} / {!abort_staged}.  The store shares
    the batch's arrays rather than copying them, and never writes to
    them: {!stage_accum} copies before it appends. *)

val staged_many : t -> op:int -> Batch.t option
(** The batch staged under [op], for inspection; the commit path reads it
    by slot ({!staged_batch_slot}) instead. *)

val staged_batch_size : t -> op:int -> int
(** Number of writes in the batch staged under [op]; 0 when none is. *)

val stage_accum :
  t -> op:int -> key:int -> version:int -> sid:int -> value:string -> unit
(** WAL-replay staging: a second stage under an op id {e accumulates}
    into a batch instead of clobbering, so replaying the per-record
    Stage entries of a batched prepare rebuilds the full staged batch.
    Amortized O(1) per record. *)

val commit_staged : t -> op:int -> bool
(** Installs the staged write or batch (if any) and clears it; returns
    whether anything was staged.  Batch installs apply in write order,
    each monotone per key. *)

val abort_staged : t -> op:int -> unit
(** Clears both the single stage and the staged batch of [op]. *)

val staged_count : t -> int
(** Staged entries: single stages plus staged batches (a batch counts
    once, however many writes it carries). *)

val keys : t -> int list
(** Committed keys, ascending. *)

val snapshot_chunk : t -> lo:int -> hi:int -> Batch.t
(** Snapshot export: the committed entries with [lo <= key < hi], in
    ascending key order (absent keys are skipped).  The simulator mutates
    stores only between events, so a caller inside one event reads a
    consistent cut; provisioning carves the key space into fixed ranges
    so chunk numbers stay meaningful across donors and restarts.
    @raise Invalid_argument when [lo > hi]. *)

val import_chunk : t -> Batch.t -> int
(** Snapshot import: installs every entry {e monotonically} (an entry
    older than local committed state changes nothing — safe on top of
    WAL replay, duplicated chunks, or concurrent repairs).  Returns the
    number of entries that advanced local state. *)
