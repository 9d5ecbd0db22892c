(** Message latency models. *)

type t =
  | Constant of float
  | Uniform of float * float  (** [Uniform (lo, hi)] *)
  | Exponential of float  (** mean; a minimum propagation delay of a tenth
                              of the mean is always added so causality
                              never collapses to zero *)

val sample_into : t -> Dsutil.Rng.t -> Float.Array.t -> unit
(** [sample_into t rng slot] draws one latency and writes it to
    [slot.(0)].  The result goes through a slot because a float returned
    across a module boundary is boxed, and this runs once per message. *)

val mean : t -> float
val pp : Format.formatter -> t -> unit
