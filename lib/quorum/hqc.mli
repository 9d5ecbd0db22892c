(** Hierarchical Quorum Consensus (Kumar) — the paper's "HQC"
    configuration.

    The n = s^L replicas are the {e leaves} of a complete s-ary tree of
    depth [L] (internal nodes are logical).  A read quorum recursively
    takes subquorums from [r] of the [s] children at every level and a
    write quorum from [w] of [s], subject to Kumar's conditions
    r + w > s and 2·w > s.  Read quorums then intersect write quorums and
    write quorums intersect each other.

    The paper's instance is s = 3 with r = w = 2: quorum size
    2^L = n^0.63, optimal load (2/3)^L = n^−0.37 (Naor–Wool §6.4). *)

type t

val create : depth:int -> t
(** The paper's ternary majority instance (s = 3, r = w = 2). *)

val create_general : depth:int -> s:int -> r:int -> w:int -> t
(** Any branching factor and thresholds; raises [Invalid_argument] unless
    1 ≤ r,w ≤ s, r + w > s and 2w > s. *)

val of_n : n:int -> t
(** Largest ternary-majority instance with 3^depth ≤ n. *)

val protocol : t -> Protocol.t
val depth : t -> int
val n_of_depth : int -> int
(** Ternary: 3^depth (for {!create}/{!of_n} instances). *)

val universe : t -> int
(** s^depth replicas. *)

val read_quorum_size : t -> int
(** r^depth. *)

val write_quorum_size : t -> int
(** w^depth. *)

val quorum_size : t -> int
(** = {!read_quorum_size}; kept for the symmetric default where both
    coincide (2^depth = n^0.63). *)

val cost : t -> float
(** {!quorum_size} as a float. *)

val read_load : t -> float
(** (r/s)^depth under the uniform strategy. *)

val write_load : t -> float
(** (w/s)^depth. *)

val optimal_load : t -> float
(** = {!read_load}; (2/3)^depth = n^−0.37 for the default instance. *)

val read_availability : t -> p:float -> float
(** Exact recurrence: A(0) = p, A(l) = P[Binomial(s, A(l−1)) ≥ r]. *)

val write_availability : t -> p:float -> float

val availability : t -> p:float -> float
(** = {!read_availability}; for the symmetric default both coincide. *)

include Protocol.S with type t := t
