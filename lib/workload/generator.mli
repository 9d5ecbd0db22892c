(** Operation stream generation: read/write mixes over a skewed key
    space. *)

type op = Read of int | Write of int * string  (** key, payload *)

type t

val create : rng:Dsutil.Rng.t -> read_fraction:float -> keys:Zipf.t -> t
(** A stream drawing its keys from [keys] and every random choice from
    [rng].  One [keys] table may serve any number of generators: it is
    never mutated, so clients of one run share a single key distribution
    while each draws from its own RNG stream.  [read_fraction] must be in
    [\[0, 1\]] (NaN is refused). *)

val next : t -> op
(** Draws the next operation; write payloads are unique, so a committed
    value identifies its originating operation in safety checks. *)

val think_time : t -> mean:float -> float
(** Exponential think-time draw for closed-loop clients. *)
