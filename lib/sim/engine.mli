(** Deterministic discrete-event simulation engine.

    Virtual time is a float (think milliseconds).  Events are closures
    executed in timestamp order, FIFO among equal timestamps.  All
    randomness flows from the engine's seeded {!Dsutil.Rng}, so a run is a
    pure function of its seed. *)

type t

val create : ?seed:int -> unit -> t
(** Default seed 42. *)

val now : t -> float
(** Current virtual time. *)

val clock : t -> Float.Array.t
(** The clock itself: [(clock t).(0)] is {!now}.  Callers on per-message
    paths read it there, because a float returned across a module
    boundary is boxed (the library is compiled with [-opaque]).  Never
    write it. *)

val rng : t -> Dsutil.Rng.t
(** The engine's root random stream; [split] it per component. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run the closure [delay] time units from now.  Negative delays raise
    [Invalid_argument]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant; times in the past raise [Invalid_argument]. *)

type handler
(** A preallocated event handler: [run meta payload] receives the int and
    payload passed to {!schedule_packed}.  Hot callers (message delivery,
    per-operation timeouts) build ONE handler up front and thread
    per-event arguments through the two slots, so scheduling allocates
    nothing — unlike {!schedule}, whose closure costs several words per
    event. *)

val handler : (int -> Obj.t -> unit) -> handler

val schedule_packed : t -> delay:float -> handler -> meta:int -> payload:Obj.t -> unit
(** Run [handler] with [meta] and [payload] after [delay].  Ordering is
    identical to {!schedule} (timestamp order, FIFO among equals — both
    share one queue).  Negative delays raise [Invalid_argument]. *)

val delay_slot : t -> Float.Array.t
(** Scratch slot for {!schedule_slot}: write the delay at index 0. *)

val schedule_slot : t -> handler -> meta:int -> payload:Obj.t -> unit
(** {!schedule_packed} with the delay read from [(delay_slot t).(0)]
    instead of passed as a float, which would be boxed at the call.
    Every scheduling entry point shares this one path, so ordering is
    identical.  Negative delays raise [Invalid_argument]; the slot's
    contents are clobbered. *)

val run : ?until:float -> t -> unit
(** Process events until the queue drains or virtual time would pass
    [until].  Events at exactly [until] are processed. *)

val step : t -> bool
(** Process one event; [false] when the queue is empty. *)

val pending : t -> int
(** Number of queued events. *)
