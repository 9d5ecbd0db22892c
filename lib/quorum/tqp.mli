(** The original tree quorum protocol of Agrawal and El Abbadi (VLDB 1990)
    — reference [1] of the paper, which §1 uses to motivate the arbitrary
    protocol's design.

    Replicas form a complete tree of height [h] in which every node has
    2d+1 children.  A {e read} quorum for a subtree is its root if it is
    up, otherwise read quorums of any d+1 (a majority) of its children; a
    {e write} quorum is the root {e plus} write quorums of d+1 children,
    recursively to the leaves.

    Consequences reproduced here (all stated in §1 of the ICDCS paper):
    read cost ranges from 1 (just the root) to (d+1)^h; write cost is
    ((d+1)^{h+1} − 1)/d; a best-case read strategy loads the root with 1;
    the root belongs to every write quorum, so write load is 1 and a root
    crash blocks all writes. *)

type t

val create : d:int -> height:int -> t
(** Every node has 2d+1 children ([d ≥ 1]); [height ≥ 0]. *)

val protocol : t -> Protocol.t
val fanout : t -> int
(** 2d+1. *)

val n : t -> int
(** ((2d+1)^{h+1} − 1) / (2d). *)

val min_read_cost : t -> int
(** 1: the root alone. *)

val max_read_cost : t -> int
(** (d+1)^h: one leaf under every majority path. *)

val write_cost : t -> int
(** ((d+1)^{h+1} − 1)/d — the unique write-quorum size. *)

val read_availability : t -> p:float -> float
(** R(0) = p, R(l) = p + (1−p)·B(R(l−1)) with B the probability that at
    least d+1 of 2d+1 independent children succeed. *)

val write_availability : t -> p:float -> float
(** W(0) = p, W(l) = p·B(W(l−1)): always at most [p], §1's point. *)

val write_load : t -> float
(** 1: the root is in every write quorum. *)

include Protocol.S with type t := t
