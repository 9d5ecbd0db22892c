(** Fixed-capacity mutable bitset over [0 .. capacity-1].

    Quorum systems manipulate many small site sets; a flat int-array bitset
    keeps membership, intersection and cardinality cheap and allocation-free
    on the hot paths. *)

type t

val create : int -> t
(** All-zeros set of the given capacity. *)

val capacity : t -> int
val copy : t -> t
val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool
val cardinal : t -> int
val is_empty : t -> bool
val clear : t -> unit

val intersects : t -> t -> bool
(** True iff the sets share at least one element.  Capacities must match. *)

val subset : t -> t -> bool
(** [subset a b] — every element of [a] is in [b]. *)

val equal : t -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list

val fill_elements : t -> int array -> int
(** [fill_elements t buf] writes the members in ascending order into
    [buf] and returns how many there are — {!elements} without the list.
    [buf] must hold at least [cardinal t] entries (capacity-sized buffers
    always fit); @raise Invalid_argument otherwise. *)

val of_list : int -> int list -> t
val pp : Format.formatter -> t -> unit
