(** Availability estimation for quorum systems.

    The availability of an operation at per-replica up-probability [p] is
    the probability that at least one quorum consists entirely of up
    replicas (Peleg–Wool).  Small systems are computed exactly by
    enumerating all up/down patterns; larger systems by Monte-Carlo. *)

val random_alive : Dsutil.Rng.t -> n:int -> p:float -> Dsutil.Bitset.t
(** Each of the [n] sites is up independently with probability [p]. *)

val exact_hetero :
  n:int -> p:(int -> float) -> (alive:Dsutil.Bitset.t -> bool) -> float
(** Exact availability with per-site probabilities (n ≤ 22). *)

val monte_carlo :
  trials:int ->
  rng:Dsutil.Rng.t ->
  n:int ->
  p:float ->
  (alive:Dsutil.Bitset.t -> bool) ->
  float
(** Fraction of sampled alive patterns in which the predicate holds. *)

val exact :
  n:int -> p:float -> (alive:Dsutil.Bitset.t -> bool) -> float
(** Sum of pattern probabilities over all 2^n patterns satisfying the
    predicate.  Raises [Invalid_argument] when [n > 22]. *)

val read_availability_mc :
  trials:int -> rng:Dsutil.Rng.t -> p:float -> Protocol.t -> float
(** Monte-Carlo read availability of a protocol instance, using the
    protocol's own quorum-assembly routine as the existence oracle. *)

val write_availability_mc :
  trials:int -> rng:Dsutil.Rng.t -> p:float -> Protocol.t -> float

val read_availability_hits :
  trials:int -> rng:Dsutil.Rng.t -> p:float -> Protocol.t -> int
(** Hit-count variants of the two estimators above, for chunked
    (possibly parallel) trial batches. *)

val write_availability_hits :
  trials:int -> rng:Dsutil.Rng.t -> p:float -> Protocol.t -> int
