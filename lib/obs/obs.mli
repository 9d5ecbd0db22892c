(** Operation-level metrics and span tracing.

    [Obs] is the runtime handle instrumented components hold.  It owns a
    {!Metrics} registry, a span id allocator, and a list of {!Sink}s that
    receive each span as it closes.  Components take an [Obs.t option]
    for spans; [None] makes every span site a single pattern match with no
    allocation.  Their counters are {!Metrics.counter} handles they own and
    always increment; an attached [Obs.t] registers those handles.

    Times are stamped from a pluggable clock.  In simulations the harness
    calls {!set_clock} with the engine's [now] after building the engine;
    until then the clock reads 0.

    The span lifecycle maintains automatic metrics under a fixed naming
    convention:

    - [ops.<op>.started], [ops.<op>.ok], [ops.<op>.failed] (counters)
    - [ops.<op>.latency] (histogram, whole-span durations)
    - [ops.<op>.retries] (counter, one per retry)
    - [phase.<kind>.latency] (histogram), [phase.<kind>.timeout] (counter)
    - [backoff.wait] (histogram of individual backoff pauses)

    Components register their own counters on top (e.g. [net.sent],
    [coord.deadline_exceeded]); see docs/PROTOCOL.md §8 for the full
    catalogue. *)

module Metrics : module type of struct
  include Metrics
end

module Span : module type of struct
  include Span
end

module Sink : module type of struct
  include Sink
end

type t

val create : ?clock:(unit -> float) -> unit -> t
val set_clock : t -> (unit -> float) -> unit
val metrics : t -> Metrics.t
val add_sink : t -> Sink.t -> unit

val flush : t -> unit
(** Flush every attached sink. *)

(** {2 Span lifecycle} *)

val span : t -> op:string -> site:int -> ?key:int -> unit -> Span.t
(** Open a span.  Increments [ops.<op>.started]; the span starts with
    [attempts = 1] and no phases. *)

val phase : t -> Span.t -> kind:Span.phase_kind -> ?quorum:int list -> unit -> unit
(** Begin a phase.  A still-open previous phase is closed first (not
    timed out) so a span never has two open phases. *)

val set_result_ts : t -> Span.t -> version:int -> sid:int -> unit
(** Record the timestamp the operation returned (read: newest observed;
    write: committed).  The consistency checker matches reads against
    writes through this field. *)

val set_quorum : t -> Span.t -> int list -> unit
(** Record the quorum membership on the current open phase (no-op when no
    phase is open).  Useful when membership is only known after the phase
    started. *)

val end_phase : t -> Span.t -> ?timed_out:bool -> unit -> unit
(** Close the current phase.  No-op when no phase is open.  Observes
    [phase.<kind>.latency] and increments [phase.<kind>.timeout] when
    [timed_out]. *)

val retry : t -> Span.t -> ?backoff:float -> unit -> unit
(** Record a retry: closes any open phase as timed out, bumps [attempts],
    accumulates [backoff] into the span's [backoff_total], increments
    [ops.<op>.retries], and observes [backoff.wait]. *)

val finish : t -> Span.t -> outcome:Span.outcome -> unit
(** Close the span.  Idempotent — a second [finish] is a no-op.  Closes
    any open phase, stamps [ended], increments [ops.<op>.ok] or
    [ops.<op>.failed], observes [ops.<op>.latency], and emits the span to
    every sink. *)

(** {2 Accounting} *)

val spans_started : t -> int
val spans_open : t -> int
val spans_closed : t -> int
