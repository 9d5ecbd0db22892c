(** Linear probing over an int key column: the probe order and the
    backward-shift deletion shared by the store's committed and staged
    tables and the coordinator's pending table.  The caller owns the
    column (a power-of-two size, at most half full, so every probe run
    ends at an empty slot) and keeps its values in parallel columns. *)

val empty : int
(** [min_int], the key of an empty slot; it cannot be a key itself. *)

val slot : int array -> int -> int
(** [slot keys key]: the slot holding [key], or the empty slot that ends
    its probe run (where an insert of [key] goes).  Allocation-free. *)

val next_shift : int array -> int -> int
(** Backward-shift deletion, one step.  [next_shift keys hole] is the
    first slot after [hole] in its probe run whose entry must move into
    [hole] to stay reachable, or [-1] when none must.  After moving that
    entry (every column of it), the slot it left is the new hole; when
    the answer is [-1], mark the hole [empty]. *)
