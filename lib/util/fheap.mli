(** Float-keyed binary min-heap with FIFO tie-breaking and flat (unboxed
    key) storage — the simulator's event queue.  A push allocates nothing
    beyond amortized array growth; pop order is that of a generic
    FIFO-stable binary heap over float keys (ties resolve in insertion
    order; the test suite checks it against one).

    Each entry carries a handler ['h], an int [meta] and a payload ['p]:
    callers that schedule millions of events keep one preallocated
    handler and thread per-event arguments through [meta]/[payload]
    instead of allocating a closure per event. *)

type ('h, 'p) t

val create : dummy_h:'h -> dummy_p:'p -> ('h, 'p) t
(** The dummies fill vacated slots so popped handlers/payloads are not
    retained by the backing arrays. *)

val length : ('h, 'p) t -> int
val is_empty : ('h, 'p) t -> bool

(** Keys travel through caller-owned [Float.Array] slots rather than as
    float arguments or results: the library is built with [-opaque], so a
    float crossing a module boundary would be boxed on every event. *)

val push : ('h, 'p) t -> Float.Array.t -> 'h -> int -> 'p -> unit
(** [push t key h meta p] queues an entry whose time is [key.(0)]. *)

val min_key : ('h, 'p) t -> float
(** Smallest key without popping.  Raises [Invalid_argument] when empty. *)

val min_le : ('h, 'p) t -> float -> bool
(** [min_le t limit]: the heap is non-empty and its smallest key is
    [<= limit] — the bounded run loop's test, with no float returned. *)

val pop_apply : ('h, 'p) t -> Float.Array.t -> ('h -> int -> 'p -> unit) -> bool
(** [pop_apply t clock f] pops the minimum entry, writes its time into
    [clock.(0)] and applies [f handler meta payload]; [false] on an empty
    heap.  Allocates nothing. *)

val clear : ('h, 'p) t -> unit
