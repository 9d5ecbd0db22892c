(** Simulated message-passing network over a set of sites.

    Sites are numbered 0 .. n−1.  A crashed site silently drops incoming
    messages and does not emit any.  What happens to a site's {e state}
    across a crash is governed by the network's {!crash_mode}: [Fail_stop]
    (§2.2 of the paper — memory survives intact) or [Amnesia] (volatile
    state is lost; only what the site persisted survives).  The network
    itself only reports the mode through per-site {!set_crash_hooks};
    attached processes implement the semantics.
    Links may lose messages and the network can be split into partitions;
    only sites in the same partition communicate. *)

type 'msg t

type crash_mode =
  | Fail_stop  (** a crashed site keeps its full in-memory state (default) *)
  | Amnesia  (** a crash wipes volatile state; only stable storage survives *)

val create :
  engine:Engine.t ->
  n:int ->
  ?latency:Latency.t ->
  ?loss_rate:float ->
  ?fifo:bool ->
  unit ->
  'msg t
(** Defaults: [latency = Exponential 1.0], [loss_rate = 0.0],
    [fifo = false].  With [fifo], messages between the same (src, dst)
    pair are delivered in send order (required by protocols that assume
    FIFO channels, e.g. Maekawa's mutual exclusion). *)

val engine : 'msg t -> Engine.t
val size : 'msg t -> int

val attach_obs : 'msg t -> Obs.t -> unit
(** Register the network's counter handles in [obs]'s registry: [net.sent],
    [net.delivered], [net.dropped.loss] / [.crash] / [.partition] /
    [.no_handler] / [.overload], [net.coalesced], and per-site
    [net.site.<i>.sent] / [.delivered]; and start the [net.queue.depth]
    histogram.  The handles are the network's only counters, so the
    registry reads every message since {!create}, however late the
    attach; networks attached to one registry sum under each name.  Attach
    a network to a registry once.  Per-site names are formatted here, so
    an unattached network builds none. *)

val set_handler : 'msg t -> site:int -> (src:int -> 'msg -> unit) -> unit
(** Installs the message handler for a site.  A site without a handler
    drops messages. *)

val handler : 'msg t -> site:int -> (src:int -> 'msg -> unit) option
(** The handler installed for a site, if any.  Re-installing it wrapped
    ([set_handler]) observes every message delivered to the site. *)

val send : 'msg t -> ?units:int -> src:int -> dst:int -> 'msg -> unit
(** Queues delivery after a sampled latency.  The message is dropped when
    the source is down at send time, the destination is down at delivery
    time, the pair is separated by a partition at delivery time, or the
    link loses it.

    [?units] (default 1) declares how many logical operations the message
    carries.  A coalesced envelope with [units = k] is still ONE message —
    one send, one loss/latency draw, one service-queue slot at the
    destination — which is exactly the amortization batching buys; the
    [units - 1] per-op messages it saved are tallied in {!coalesced}
    (metric [net.coalesced]).  Passing [units = 1]
    is byte-identical to omitting it. *)

(** {2 Overload model}

    By default a site processes arrivals instantly and admits any load —
    the pre-overload behaviour, bit-for-bit.  [set_service] opts a site
    into a single-server bounded FIFO ingress queue: each arrival waits
    for the messages ahead of it, each costs [service_time] simulated
    time to process, and arrivals beyond [capacity] are dropped at the
    door (counted in {!dropped_overload}).
    This is what makes overload {e possible} in the simulation: without a
    service cost, no burst can outrun a replica.

    [set_priority] exempts a class of messages from the capacity bound —
    the lane for recovery and commit-phase traffic that must never be
    shed.  [set_overflow] observes each overload drop so the attached
    process can answer with an explicit busy-nack instead of a silent
    drop-and-timeout.  A crash wipes the site's queue (the wiped messages
    count as crash drops, not overload drops). *)

val set_service :
  'msg t -> site:int -> ?capacity:int -> ?service_time:float -> unit -> unit
(** Configures the site's ingress queue.  [capacity = 0] (default) means
    unbounded; [service_time = 0.0] (default) processes instantly but
    still serializes through the queue.
    @raise Invalid_argument on a negative capacity or service time. *)

val set_priority : 'msg t -> site:int -> (src:int -> 'msg -> bool) -> unit
(** Messages matching the predicate bypass the capacity bound (they are
    still served in FIFO order).  Installing a priority lane implies a
    service model for the site. *)

val set_overflow : 'msg t -> site:int -> (src:int -> 'msg -> unit) -> unit
(** Called for every message turned away by a full queue, after the drop
    is counted.  Runs at delivery time on behalf of the destination, so
    replying through {!send} originates from an up site. *)

val queue_depth : 'msg t -> int -> int
(** Messages currently queued at the site (head included); 0 for sites
    without a service model. *)

val queue_peak : 'msg t -> int -> int
(** High-water mark of the site's queue depth over the whole run. *)

(** {2 Failure injection} *)

val set_crash_mode : 'msg t -> crash_mode -> unit
(** Selects what {!crash} means for every site's state.  Default
    [Fail_stop].  The mode is passed to each site's [on_crash] hook so the
    attached process can discard (or keep) its volatile state. *)

val crash_mode : 'msg t -> crash_mode

val set_crash_hooks :
  'msg t ->
  site:int ->
  ?on_crash:(crash_mode -> unit) ->
  ?on_recover:(unit -> unit) ->
  unit ->
  unit
(** Installs failure-lifecycle callbacks for a site, invoked synchronously
    by {!crash} / {!recover} — only on an actual up→down / down→up
    transition, never on redundant calls.  [on_crash] runs after the site
    is marked down (it can no longer send); [on_recover] runs after the
    site is marked up again. *)

val crash : 'msg t -> int -> unit
(** Marks the site down and fires its [on_crash] hook.  Idempotent: calling
    it on an already-down site changes nothing — no hook, and the alive
    set is untouched. *)

val recover : 'msg t -> int -> unit
(** Marks the site up and fires its [on_recover] hook.  Idempotent on an
    already-up site (no hook). *)

val is_up : 'msg t -> int -> bool
val alive_view : 'msg t -> Dsutil.Bitset.t
(** Ground-truth up/down snapshot (the oracle view used to seed failure
    detectors).  The set is maintained incrementally by {!crash} /
    {!recover}; each call returns a fresh copy the caller may keep or
    mutate freely. *)

val partition : 'msg t -> int list list -> unit
(** Splits the sites into the given groups; unlisted sites form one extra
    implicit group.  Messages across groups are dropped. *)

val heal : 'msg t -> unit
(** Removes any partition. *)

val set_loss_rate : 'msg t -> float -> unit
(** Replaces the message-loss probability for all subsequent sends (e.g.
    to stop dropping messages before an end-of-run state audit). *)

val reachable : 'msg t -> int -> int -> bool
(** Same partition group (irrespective of up/down state). *)

(** {2 Metrics} *)

(** Every message since {!create}: the values of the handles
    {!attach_obs} registers. *)

val sent : 'msg t -> int
val delivered : 'msg t -> int
val dropped_loss : 'msg t -> int
val dropped_crash : 'msg t -> int
val dropped_partition : 'msg t -> int

val dropped_no_handler : 'msg t -> int
(** Delivered to an up, reachable site that never installed a handler — a
    wiring bug, counted apart from crash drops. *)

val dropped_overload : 'msg t -> int
(** Turned away by a full ingress queue ({!set_service}) — load shedding,
    not loss, so it gets its own bucket. *)

val coalesced : 'msg t -> int
(** Per-op messages saved by multi-op envelopes: the sum over all sends of
    [units - 1] (see {!send}). *)

val per_site_delivered : 'msg t -> int array
(** Messages delivered {e to} each site — the measured per-replica load. *)
