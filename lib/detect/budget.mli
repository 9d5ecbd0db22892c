(** Global retry budget: a token bucket capping the ratio of retries to
    first attempts.

    Per-operation retry limits bound how often {e one} client hammers a
    struggling quorum; they do nothing about the {e aggregate}.  When every
    client of a saturated system retries, the offered load multiplies by
    the retry factor exactly when capacity is scarcest — the positive
    feedback loop behind metastable failure: the overload sustains itself
    long after the triggering burst has passed.

    The budget breaks the loop globally.  Every first attempt deposits
    [ratio] tokens (capped at [burst]); every retry must withdraw a whole
    token or be suppressed.  In steady state retries can add at most
    [ratio] × first-attempt load; during a storm the bucket drains and
    further retries fail fast instead of feeding the queue.  The bucket
    starts full, so isolated failures retry exactly as before — only
    sustained storms are quashed.

    Share one instance across every coordinator of a process: the budget
    is only meaningful for the aggregate.  Purely arithmetic — no clock,
    no randomness — so seeded simulations stay deterministic. *)

type config = {
  ratio : float;  (** tokens deposited per first attempt — the steady-state
                      retry/attempt ceiling (e.g. 0.2 = 20% retries) *)
  burst : float;  (** bucket capacity: retries a quiet period banks for the
                      next incident *)
}

val default_config : config
(** [{ ratio = 0.2; burst = 10.0 }]. *)

type t

val create : ?config:config -> unit -> t
(** A fresh, full bucket.
    @raise Invalid_argument on a negative ratio or a burst below 1. *)

val on_attempt : t -> unit
(** Record a first attempt: deposits [ratio] tokens.  The deposit happens
    on {e every} call, so callers must never route retries through it —
    a retry that deposits refills the very bucket meant to throttle it.
    The coordinator exposes [?retry:true] on its entry points for
    caller-level re-issues, which skip this call; its internal retry
    loop only ever goes through {!try_retry}. *)

val try_retry : t -> bool
(** Ask to retry: [true] withdraws one token; [false] means the budget is
    exhausted and the retry must be suppressed (fail the operation fast). *)

val tokens : t -> float

val attempts : t -> int
(** First attempts recorded. *)

val granted : t -> int
(** Retries the budget paid for. *)

val suppressed : t -> int
(** Retries refused — each one is a quorum fan-out that never hit the
    network. *)
