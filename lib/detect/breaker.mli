(** Per-site circuit breaker: trip on consecutive overload evidence, steer
    quorum assembly away, probe back in.

    A {!Detect.View} answers "is this site {e up}?"; the breaker answers a
    different question — "is sending this site more work currently {e
    useful}?".  A site drowning in queued messages is alive (heartbeats
    keep flowing, so accrual detection never suspects it) yet every
    request sent to it times out or bounces with [Busy], and each retry
    against it feeds the overload further.  The breaker accumulates that
    evidence per site and, once [threshold] consecutive failures are seen,
    {e trips}: the site is excluded from quorum assembly (callers
    {!filter} their detector view through the breaker) for a cooldown
    window.  After the cooldown it {e half-opens}: the site re-enters the
    view so ordinary traffic acts as probe load; the first success closes
    the breaker, the first failure re-opens it with a geometrically longer
    cooldown (capped), so a persistently sick site is poked ever more
    rarely.

    All transitions are driven by the caller-supplied clock and explicit
    {!record_ok} / {!record_failure} evidence; the breaker draws no
    randomness, so seeded simulations stay deterministic. *)

type config = {
  threshold : int;  (** consecutive failures that trip a Closed breaker *)
  cooldown : float;  (** Open duration before the first half-open probe *)
  cooldown_factor : float;
      (** cooldown growth per failed probe (geometric, like retry
          backoff) *)
  max_cooldown : float;  (** cap on the grown cooldown *)
}

val default_config : config
(** [{ threshold = 5; cooldown = 150.0; cooldown_factor = 2.0;
    max_cooldown = 1200.0 }] — threshold above a single quorum fan-out so
    one unlucky phase never trips a healthy site; cooldown spans several
    phase timeouts so a trip actually sheds load. *)

type state = Closed | Open | Half_open

type t

val create : ?config:config -> n:int -> now:(unit -> float) -> unit -> t
(** One breaker per site in [0..n-1], all Closed.  [now] is typically the
    simulation engine's clock.

    @raise Invalid_argument on a non-positive threshold or cooldown. *)

val state : t -> int -> state
(** Current {e effective} state, evaluating the cooldown clock: an Open
    site whose cooldown has elapsed is reported as Half_open.  Pure —
    inspection never commits the transition or touches {!probes}, so a
    metrics scrape or [replica-ctl] dump cannot perturb breaker behavior.
    The transition is committed (and the probe counted) by the traffic
    path: {!allowed}, {!record_failure}, {!record_ok}, {!filter}. *)

val allowed : t -> int -> bool
(** The site may receive traffic (Half_open counts — that traffic is the
    probe).  This is the traffic path: an Open site past its cooldown is
    committed to Half_open here and one probe is counted. *)

val record_failure : t -> int -> bool
(** Negative evidence: a [Busy] nack or a phase timeout charged to this
    site.  Returns [true] exactly when this call tripped the breaker
    (threshold reached, or a half-open probe failed). *)

val record_ok : t -> int -> unit
(** Positive evidence: an expected reply.  Closes a Half_open breaker and
    resets the failure streak and cooldown; ignored while Open (a late
    reply from before the trip must not un-trip it). *)

val filter : t -> Dsutil.Bitset.t -> Dsutil.Bitset.t
(** Remove every Open site from [view], in place, and return it.  Apply to
    the believed-alive set just before quorum assembly. *)

val trips : t -> int
(** Total Closed/Half_open → Open transitions. *)

val attach_obs : t -> Obs.t -> unit
(** Register the trip count as [breaker.trips] (summed over breakers).
    Attach a breaker to a registry once, however many coordinators share
    it. *)

val probes : t -> int
(** Total Open → Half_open transitions. *)

val open_sites : t -> int list
(** Sites whose effective state is Open (diagnostics).  Pure, like
    {!state}: repeated calls never advance breaker state or the probe
    counter. *)
