(** The Grid protocol (Cheung–Ammar–Ahamad).

    Replicas are arranged in a [rows × cols] rectangle.  A read quorum holds
    one replica from every column; a write quorum holds one full column plus
    one replica from every other column.  With a square grid both costs are
    O(√n) and the optimal load is O(1/√n). *)

type t

val create : rows:int -> cols:int -> t
val square : n:int -> t
(** Largest square grid with at most [n] sites; raises if [n < 1]. *)

val protocol : t -> Protocol.t
val read_cost : t -> int
val write_cost : t -> int
val read_load : t -> float
val write_load : t -> float

include Protocol.S with type t := t
