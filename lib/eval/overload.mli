(** Overload and metastable-failure campaign.

    Three scenario families, each run {e naive} (aggressive retries, no
    defenses) and {e protected} (bounded queues + load shedding + retry
    budget + circuit breaker, same aggressive client policy):

    - {b flash-crowd}: a moderate burst of extra clients joins mid-run;
    - {b slow-replica}: no burst, but one replica's service time is
      pathological — the breaker must steer quorums around it;
    - {b retry-storm}: a violent burst sized so that, without defenses,
      the timeout→retry feedback loop keeps replica queues full long
      after the burst's offered work is done — the metastable negative
      control.

    Every cell runs with the trace-driven consistency checker on: overload
    may cost goodput, never regularity.

    Goodput is measured over two fixed windows of the shared timeline —
    before the burst arrives and well after it ended — from the
    harness's {!Replication.Harness.report.completions} stream.  The
    {!gate} encodes the acceptance criteria: the naive storm must show
    sustained collapse (post-burst goodput at least 50% below baseline)
    while the protected storm and flash crowd must recover to at least
    90% of baseline. *)

type mode = Naive | Protected

val mode_to_string : mode -> string

type kind = Flash_crowd | Slow_replica | Retry_storm

val kind_to_string : kind -> string

val line : kind -> mode -> Scenario_line.t
(** The cell on ARBITRARY n=9, seed 42: 30 steady clients over 64 keys,
    80% reads, an aggressive retry policy, per-message service time 4,
    the kind's burst or slow replica, and the mode's defenses. *)

val mode : Campaign.cell -> mode
(** [Protected] when the cell's overload model has a retry budget. *)

val goodput : float array -> window:float * float -> float
(** Completions per unit time inside [\[t0, t1)]. *)

val pre_goodput : Campaign.cell -> float
(** Ops per unit time in the steady window before the burst. *)

val post_goodput : Campaign.cell -> float
(** Ops per unit time well after the burst ended. *)

val recovery : Campaign.cell -> float
(** post/pre — 1.0 means full recovery (0 when nothing completed before
    the burst). *)

val run : ?domains:int -> unit -> Campaign.cell list
(** All six cells, each kind naive then protected, labelled with the
    kind (deterministic; [domains] only fans the independent cells out
    over cores). *)

val find : Campaign.cell list -> kind -> mode -> Campaign.cell

val gate : Campaign.cell list -> Gate.verdict
(** The acceptance predicate described above, plus: the protections must
    actually engage in the storm cell (nonzero sheds and suppressed
    retries), the protected slow-replica cell must complete at least as
    many operations as the naive one, and every cell must be free of
    {!Campaign.violations}. *)

val table : Campaign.cell list -> string
(** Per-cell goodput windows, recovery ratios and defense counters. *)
