(** Trace-driven regularity checker.

    Consumes the span stream of a finished run (e.g.
    [Harness.report.spans], collected with [check_consistency]) and
    verifies per-key {e regularity}: every completed read must return a
    timestamp at least as new as the newest write to the same key that
    {e completed successfully before the read began}.  Writes still in
    flight while the read ran may or may not be visible — either is
    legal — so only [started >= write.ended] pairs constrain the read.

    This is the offline, evidence-carrying counterpart of the harness's
    online safety counter: it works purely from the observability stream
    (the same JSONL a real deployment would emit), and each violation
    names the offending operation ids so a failure is debuggable rather
    than a bare counter. *)

type violation = {
  read_id : int;  (** span id of the stale read *)
  write_id : int;  (** span id of the newest prior committed write *)
  key : int;
  observed : Replication.Timestamp.t;  (** what the read returned *)
  required : Replication.Timestamp.t;  (** what it had to be at least *)
  read_started : float;
  write_ended : float;
}

type report = {
  reads_checked : int;
  writes_indexed : int;
  unstamped : int;
      (** completed reads/writes lacking a [result_ts] (not produced by an
          instrumented coordinator) — skipped, not counted as violations *)
  violations : violation list;  (** in read-completion order *)
}

val check : Obs.Span.t list -> report
(** [check spans] examines the ["read"] and ["write"] spans; only spans
    that finished with outcome [Ok] and carry a [result_ts] take part. *)

val ok : report -> bool
(** No violations. *)

val pp : Format.formatter -> report -> unit

(** {2 Increment conservation}

    Transaction clients ({!Replication.Harness.txn}) run increment
    transactions whose committed effects are exactly countable, giving
    the atomicity invariant

    {v committed ≤ observed ≤ committed + uncertain v}

    where [uncertain] bounds the 2PC in-doubt window.  {e Phantom}
    increments (observed above the upper bound) are the signature of a
    partially-applied cross-shard transaction — a broken atomicity
    barrier; {e lost} increments (observed below the floor) would mean a
    committed write vanished. *)

type conservation = {
  committed_increments : int;
  uncertain_increments : int;
  observed_increments : int;
  phantom_increments : int;  (** max 0 (observed - committed - uncertain) *)
  lost_increments : int;  (** max 0 (committed - observed) *)
}

val check_conservation :
  committed:int -> uncertain:int -> observed:int -> conservation

val conserved : conservation -> bool
(** No phantoms, nothing lost. *)
