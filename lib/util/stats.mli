(** Summary statistics for simulation measurements. *)

type t
(** A running accumulator (Welford's algorithm: numerically stable mean and
    variance in one pass, plus retained samples for percentiles). *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val total : t -> float
val mean : t -> float
val variance : t -> float
(** Unbiased sample variance; 0 for fewer than two samples. *)

val stddev : t -> float

val min_value : t -> float
(** Smallest sample seen.  Raises [Invalid_argument] on an empty
    accumulator (it would otherwise report [infinity]). *)

val max_value : t -> float
(** Largest sample seen.  Raises [Invalid_argument] on an empty
    accumulator (it would otherwise report [neg_infinity]). *)

val percentile : t -> float -> float
(** [percentile t q] with [q] in [\[0,1\]]; nearest-rank on the retained
    samples ([q = 0.0] is the minimum, [q = 1.0] the maximum).  Raises
    [Invalid_argument] on an empty accumulator. *)

val ci95 : t -> float
(** Half-width of the normal-approximation 95% confidence interval of the
    mean. *)

val merge : t -> t -> t

val merge_all : t list -> t
(** [merge_all [a; b; c]] equals [merge (merge (merge (create ()) a) b) c],
    samples and float state alike, in one pass: the fold copies every
    earlier sample again at each step. *)

val mean_of : float list -> float
val stddev_of : float list -> float
