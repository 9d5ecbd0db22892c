(** φ-accrual failure estimation (Hayashibara et al., SRDS 2004).

    Instead of a binary alive/dead verdict, the detector outputs a
    continuous suspicion level per monitored site:

    {v φ(site, now) = −log₁₀ P(a heartbeat still arrives after now) v}

    computed from the site's observed heartbeat inter-arrival distribution
    (normal approximation over {!Dsutil.Stats}).  φ grows without bound
    while a site stays silent, so any threshold yields a complete detector;
    higher thresholds trade detection latency for fewer false suspicions.
    A single heartbeat resets φ to ~0 — rehabilitation is automatic and
    instant.

    All times are the simulation's virtual clock; the estimator itself
    never reads a clock, callers pass [now]. *)

type t

val create : n:int -> unit -> t
(** Monitor sites [0..n-1].  A site is suspected when φ exceeds 8 (φ = 1
    tolerates a silence that happens 10% of the time, φ = 3 one in 10³,
    …), never before 3 inter-arrival samples (bootstrap grace).  The
    inter-arrival stddev is floored at 0.5, so a perfectly regular
    heartbeat stream does not make the detector hair-triggered, and once
    past bootstrap recorded inter-arrivals are clamped at 4× the current
    mean: the first heartbeat after an outage would otherwise record the
    whole outage as one sample and blind the detector. *)

val heartbeat : t -> site:int -> now:float -> unit
(** Record proof of life from [site] at time [now]. *)

val phi : t -> site:int -> now:float -> float
(** Current suspicion level; 0.0 while the site is in bootstrap grace. *)

val suspected : t -> site:int -> now:float -> bool
(** [phi > 8]. *)

val samples : t -> site:int -> int
(** Inter-arrival samples recorded for [site]. *)

val mean_interval : t -> site:int -> float
(** Mean observed inter-arrival; 0.0 with no samples. *)
