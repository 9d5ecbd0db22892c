(** Adaptive per-phase timeout from observed round-trip times.

    A fixed timeout is either too tight on slow links (spurious retries)
    or too loose on fast ones (dead replicas stall every operation for the
    full window).  This estimator tracks the RTT distribution of answered
    requests and derives the timeout from a high quantile times a safety
    multiplier, clamped to a configured band — the classic RTO idea
    (Jacobson), quantile-based like production quorum stores tune it.

    The quantile is exact nearest-rank over every sample observed, the
    same rank as {!Dsutil.Stats.percentile}, maintained incrementally in
    two heaps split at that rank: [observe] is O(log n) and allocates
    nothing beyond amortised array growth, [timeout] is O(1), and memory
    is one float per sample.  Coordinators create one only when adaptive
    timeouts are on, so a fixed-timeout run feeds and retains nothing. *)

type config = {
  initial : float;  (** timeout before enough samples exist *)
  min_timeout : float;
  max_timeout : float;
  quantile : float;  (** RTT quantile the timeout is derived from *)
  multiplier : float;  (** safety factor over the quantile *)
  min_samples : int;
      (** keep [initial] until this many RTTs (at least one) observed *)
}

val default_config : config
(** [{ initial = 25.0; min_timeout = 5.0; max_timeout = 200.0;
      quantile = 0.95; multiplier = 3.0; min_samples = 8 }] *)

type t

val create : ?config:config -> unit -> t
(** Raises [Invalid_argument] if [config.quantile] is outside [\[0, 1\]]. *)

val observe : t -> float -> unit
(** Record the RTT of an answered request.  Non-positive samples are
    ignored.  O(log n). *)

val timeout : t -> float
(** Current per-phase timeout: [multiplier] times the nearest-rank
    [quantile] of the samples, clamped to [\[min_timeout, max_timeout\]].
    O(1). *)

val samples : t -> int
