(** Deterministic splittable pseudo-random number generator.

    Based on the SplitMix64 mixing function.  Every simulation component
    receives its own split stream so that adding a component never perturbs
    the random draws of another — a requirement for reproducible
    discrete-event simulations. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val split : t -> t
(** [split t] derives an independent stream; [t] itself advances. *)

val copy : t -> t
(** [copy t] duplicates the current state (both streams then evolve
    identically). *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bits53 : t -> int
(** The next 53 uniform bits, in [\[0, 2{^53})]; the draw {!float} is
    made of: [float t b = float_of_int (bits53 t) /. 2{^53} *. b].  Callers
    outside this module rebuild a float draw from it locally, because a
    float returned across a module boundary is boxed. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from Exp with the given mean. *)

val uniform_in : t -> float -> float -> float
(** [uniform_in t lo hi] is uniform in [\[lo, hi)]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
