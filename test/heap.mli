(** Generic binary min-heap priority queue: the reference model that
    [test_heap] checks {!Dsutil.Fheap}, the simulator's event queue,
    against.

    Every insertion is tagged with a monotonically increasing sequence
    number and ties are broken FIFO, the order the event queue needs. *)

type ('k, 'v) t

val create : compare:('k -> 'k -> int) -> ('k, 'v) t

val length : ('k, 'v) t -> int
val is_empty : ('k, 'v) t -> bool

val push : ('k, 'v) t -> 'k -> 'v -> unit

val pop : ('k, 'v) t -> ('k * 'v) option
(** Removes and returns the minimum-key entry (FIFO among equal keys). *)

val pop_apply : ('k, 'v) t -> ('k -> 'v -> unit) -> bool
(** [pop_apply t f] removes the minimum entry and calls [f key value] on
    it; [false] (and no call) when the heap is empty.  Equivalent to
    {!pop} but allocates neither the option nor the pair — the simulation
    engine pops millions of events per run through this. *)

val peek : ('k, 'v) t -> ('k * 'v) option

val min_key : ('k, 'v) t -> 'k
(** Key of the minimum entry, without allocating an option or a pair —
    meant for hot loops that only need to compare the head key (the
    simulator's bounded run loop).  @raise Invalid_argument on an empty
    heap. *)

val clear : ('k, 'v) t -> unit
(** Empties the heap.  Released slots are cleared, so popped or cleared
    entries are not retained by the backing array ({!pop} likewise). *)

val to_sorted_list : ('k, 'v) t -> ('k * 'v) list
(** Non-destructive: returns all entries in pop order. *)
