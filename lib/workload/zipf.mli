(** Zipf-distributed key sampler (popularity skew for realistic
    workloads). *)

type t

val create : n:int -> theta:float -> t
(** Keys 0 .. n−1; [theta = 0] is uniform, [theta ≈ 1] is classic Zipf.
    [theta] must be in [\[0, 2\]] (NaN is refused) and [n ≥ 1].  The
    table is one flat float array; building it allocates nothing else. *)

val sample : t -> Dsutil.Rng.t -> int
(** One uniform draw from the RNG (the same draw as [Rng.float rng 1.0]);
    allocation-free. *)

val pmf : t -> int -> float
(** Probability of the given key. *)

val cdf : t -> int -> float
(** Probability of a key at most the given one: the table {!sample}
    searches. *)
