(** Centralized concurrency control (§2.2: "each client uses a centralized
    concurrency control scheme to synchronize accesses").

    Per-key shared/exclusive locks with FIFO queuing: reads take shared
    locks, writes exclusive ones.  Grant callbacks fire as simulation
    events so lock handoff costs a scheduling step, never reentrancy. *)

type t

type mode = Shared | Exclusive

val create : engine:Dsim.Engine.t -> t

val fresh_owner : t -> int
(** An owner id this manager has never handed out before.  Every process
    that shares the manager (client coordinators, transactions, migration
    and promotion fences) draws its owners here, so no two of them can
    collide on one key. *)

val acquire : t -> key:int -> mode:mode -> owner:int -> (unit -> unit) -> unit
(** Queues the request; the callback runs when the lock is granted.  An
    owner must not request a lock it already holds or waits for (checked,
    raises [Invalid_argument]). *)

val release : t -> key:int -> owner:int -> unit
(** Releases the owner's hold; grants to waiters as compatibility allows.
    Releasing a lock not held raises [Invalid_argument]. *)

val try_upgrade : t -> key:int -> owner:int -> (unit -> unit) -> bool
(** Shared→exclusive upgrade.  Returns [false] immediately when another
    upgrade is already pending on the key (the classic upgrade deadlock —
    the caller should abort).  Otherwise returns [true] and the callback
    fires once the owner is the sole holder; upgrades take priority over
    queued waiters.  Raises [Invalid_argument] if the owner does not hold
    the lock in shared mode. *)

val cancel : t -> key:int -> owner:int -> bool
(** Withdraws the owner's {e queued} request (a waiter or a pending
    upgrade) without granting it; [true] if something was cancelled.
    Granted locks are unaffected — use {!release}. *)

val holders : t -> key:int -> (mode * int list) option
(** Current mode and holders, [None] when the key is unlocked. *)

val waiting : t -> key:int -> int
(** Queue length behind the key. *)
