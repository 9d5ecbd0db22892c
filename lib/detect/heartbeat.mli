(** Heartbeat-driven failure detector over a simulated network.

    One monitor runs at each observing site (a coordinator).  It pings
    every replica on a fixed period through a caller-supplied send
    closure; {e any} message received from a replica — pong or protocol
    traffic — counts as a heartbeat and feeds the per-site φ-accrual
    estimator ({!Accrual}).  The exported {!View.t} believes a replica
    dead when either

    - its φ exceeds the accrual threshold (it has been silent for
      abnormally long given its observed inter-arrival history), or
    - the protocol layer reported it via [suspect] (it missed a phase
      deadline) and it has not spoken since — explicit suspicion is sticky
      until the next message from that site rehabilitates it.

    Unlike the oracle view this never consults the network's ground
    truth: partitions, crashes and pure message loss all look the same —
    silence — which is exactly the realistic failure knowledge the chaos
    campaign exercises. *)

type config = { period : float  (** ping cadence per monitored site *) }

type t

val create :
  engine:Dsim.Engine.t ->
  n:int ->
  config:config ->
  send_ping:(int -> unit) ->
  unit ->
  t
(** Starts the periodic ping loop on [engine] immediately, monitoring
    sites [0..n-1].  [send_ping dst] must emit a message that [dst]
    answers (the replication layer maps it to [Message.Ping]). *)

val observe : t -> site:int -> unit
(** Feed proof of life: call on every message received from [site]. *)

val suspect : t -> site:int -> unit
(** Negative evidence from the protocol layer: [site] missed a response
    deadline.  Sticky until the next [observe] of that site. *)

val view : t -> View.t
(** The believed-alive view backed by this monitor, with [observe] and
    [suspect] wired to the functions above. *)

val suspected : t -> site:int -> bool

val pings_sent : t -> int

val stop : t -> unit
(** Stop the ping loop (idempotent).  Already-scheduled ticks become
    no-ops, so a finished simulation drains instead of ticking to the
    horizon. *)
