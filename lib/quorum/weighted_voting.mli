(** Weighted voting (Gifford), with vote assignment in the spirit of
    Garcia-Molina & Barbara's "How to assign votes in a distributed
    system".

    Each replica holds an integral number of votes; a read quorum is any
    set gathering at least [r] votes and a write quorum any set with at
    least [w] votes, where r + w > total and 2·w > total.  Majority and
    ROWA are the two classic corner cases. *)

type t

val create : votes:int array -> r:int -> w:int -> t
(** Raises [Invalid_argument] unless votes are non-negative, some vote is
    positive, r + w > total votes and 2·w > total votes (the one-copy
    intersection conditions). *)

val uniform : n:int -> r:int -> w:int -> t
(** One vote per replica. *)

val majority : n:int -> t
(** Uniform votes with r = w = ⌊total/2⌋ + 1. *)

val rowa : n:int -> t
(** Uniform votes with r = 1, w = n. *)

val protocol : t -> Protocol.t

val min_read_quorum_size : t -> int
(** Fewest replicas that can gather [r] votes (heaviest voters first). *)

val min_write_quorum_size : t -> int

include Protocol.S with type t := t
