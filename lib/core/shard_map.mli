(** Deterministic shard map: routes every key in [0, key_space) to one of
    a set of shard ids, each shard backed by an independent quorum-tree
    instance.

    The map is a pure function of [(strategy, shards, key_space, seed)] —
    the same inputs produce the same assignment on every run, every
    machine and every domain count, which is what makes sharded campaigns
    reproducible and lets S=1 runs be byte-identical to the unsharded
    system.

    Resharding is a two-phase protocol mirroring online reconfiguration:
    {!plan_split} / {!plan_merge} allocate a {!change} describing exactly
    which keys move while routing stays untouched (so data migration can
    fence and copy them first), and {!commit} flips the routing table
    atomically in virtual time. *)

type strategy =
  | Hash  (** seeded hash partitioning (default): keys scatter uniformly *)
  | Range  (** contiguous key ranges per shard; splits halve a range *)

val strategy_to_string : strategy -> string

type t

val create : strategy:strategy -> shards:int -> key_space:int -> seed:int -> unit -> t
(** [shards >= 1], [key_space >= 1].  Hash mode assigns each key by a
    seeded SplitMix finalizer; range mode carves [0, key_space) into
    [shards] contiguous blocks (earlier blocks get the remainder). *)

val shards : t -> int
(** Number of shard ids ever allocated (including planned-but-uncommitted
    splits and merged-away sources); ids are [0 .. shards - 1]. *)

val key_space : t -> int

val strategy : t -> strategy

val seed : t -> int

val route : t -> int -> int
(** [route t key] is the owning shard id.  O(1).  Raises [Invalid_argument]
    if [key] is outside [0, key_space). *)

val is_active : t -> int -> bool
(** An active shard participates in routing: it was created active or by a
    committed split, and has not been merged away.  (An active shard may
    still own zero keys when there are more shards than keys.) *)

val active : t -> int list
(** Active shard ids, ascending. *)

val keys_of : t -> int -> int list
(** Keys owned by a shard, ascending. *)

val counts : t -> int array
(** [counts t].(s) = number of keys owned by shard [s]; length {!shards}. *)

val snapshot : t -> int array
(** Copy of the owner table: index = key, value = shard id. *)

type change = {
  action : [ `Split | `Merge ];
  source : int;  (** shard losing the moved keys *)
  target : int;  (** shard gaining them: the fresh id (split) or [into] *)
  moved : int list;  (** keys that change owner at {!commit}, ascending *)
}

val plan_split : t -> shard:int -> change
(** Allocate a fresh shard id and plan to move half of [shard]'s keys to
    it (hash mode: every other key; range mode: the upper half of the
    range).  Routing is unchanged until {!commit}.  Raises on an inactive
    source. *)

val plan_merge : t -> into:int -> from_:int -> change
(** Plan to move every key of [from_] into [into]; at {!commit} [from_]
    becomes inactive.  Range mode requires the two ranges to be adjacent
    so the merged range stays contiguous.  Raises on inactive shards or
    [into = from_]. *)

val commit : t -> change -> unit
(** Atomically apply a planned change to the routing table.  Raises if the
    moved keys are no longer owned by [change.source] (two interleaved
    plans touching the same keys). *)

val well_formed : t -> bool
(** Every key is owned by exactly one active shard, and in range mode
    every active shard's key set is contiguous (no gaps). *)
