(** Named-metric registry: counters and latency histograms.

    A counter is a handle its owner allocates once, as [{ value = 0 }],
    and increments directly.  The field is exposed so that an increment
    is a field store even across the [-opaque] library boundary: no call,
    no lookup.  The registry maps names to handles.  An owner {!register}s
    its handles when an {!Obs.t} is attached, so counting never depends on
    the registry and attaching late misses nothing.  Several handles may
    share a name (one per shard network, replica or coordinator); the
    name then reads their sum.

    Histograms are get-or-create by name and keep an exact
    {!Dsutil.Stats} summary. *)

type t

type counter = { mutable value : int }

type histogram

val create : unit -> t

(** {2 Counters} *)

val register : t -> string -> counter -> unit
(** Add the handle under the name; the name reads the sum of its
    handles.  Register a handle once per registry: a second registration
    counts it twice. *)

val counter : t -> string -> counter
(** Get-or-create: a handle registered under the name, or a fresh one
    registered there. *)

val counter_of : t -> string -> int
(** Current value of the named counter (the sum of its handles); 0 when
    nothing is registered under the name. *)

(** {2 Histograms} *)

val histogram : t -> string -> histogram
(** Get-or-create. *)

val observe : histogram -> float -> unit

val summary : histogram -> Dsutil.Stats.t
(** Exact running summary of every observation (mean, percentiles). *)

(** {2 Enumeration (sorted by name)} *)

val counters : t -> (string * int) list
val histograms : t -> (string * histogram) list
