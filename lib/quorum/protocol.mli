(** The common interface every replica control protocol implements.

    A protocol, given the set of currently reachable ("alive") replicas,
    either assembles a read/write quorum from alive replicas or reports that
    none exists.  Implementations must be {e complete}: they return [Some]
    whenever any quorum is contained in the alive set, so that availability
    can be measured by sampling alive patterns. *)

type level_plan = {
  n_levels : int;
  level_site : alive:Dsutil.Bitset.t -> rng:Dsutil.Rng.t -> level:int -> int;
}
(** Per-level read-quorum assembly, for protocols whose read quorums are
    built one member per structural level (the tree protocol's §3.2
    physical levels).  [level_site ~alive ~rng ~level] returns the member
    chosen for [level], or -1 when that level has no alive candidate;
    walking levels in ascending order and stopping at the first -1 must
    consume the RNG exactly as one [read_quorum] call would, so a
    level-pipelined read sees the same quorum a level-barrier read
    would.  Coordinators use this to issue level k+1's request as soon as
    level k's member resolves instead of materializing the whole quorum
    first. *)

module type S = sig
  type t

  val name : t -> string

  val universe_size : t -> int
  (** Number of replicas [n]. *)

  val read_quorum :
    t -> alive:Dsutil.Bitset.t -> rng:Dsutil.Rng.t -> Dsutil.Bitset.t option
  (** A read quorum drawn according to the protocol's strategy, restricted
      to alive replicas; [None] if no read quorum survives.

      The result may be owned by the instance, so that assembling it
      allocates nothing: it is valid until the next [read_quorum] call on
      the same instance, must not be mutated, and must be copied to be
      kept longer. *)

  val write_quorum :
    t -> alive:Dsutil.Bitset.t -> rng:Dsutil.Rng.t -> Dsutil.Bitset.t option
  (** A write quorum, as {!read_quorum} draws a read quorum, with the same
      ownership: valid until the next [write_quorum] call on the same
      instance, not to be mutated, copied to be kept. *)

  val read_levels : t -> level_plan option
  (** The per-level assembly hook, for protocols that support it; [None]
      (the common case) makes level-pipelined reads fall back to whole-
      quorum assembly. *)

  val enumerate_read_quorums : t -> Dsutil.Bitset.t Seq.t
  (** All (minimal) read quorums.  Only call on small instances: the count
      can be exponential. *)

  val enumerate_write_quorums : t -> Dsutil.Bitset.t Seq.t

  val fork : t -> t
  (** A functionally identical instance that shares no mutable state with
      the original.  Protocol instances may carry internal caches and
      scratch buffers for the quorum-assembly hot path (e.g. the arbitrary
      protocol's precomputed quorum plans); those make an instance unsafe
      to share across domains.  Stateless protocols return [t] itself.
      [fork] must not consume randomness and must not change the quorum
      distribution. *)
end

type t = Dyn : (module S with type t = 'a) * 'a -> t
(** A protocol instance packaged with its operations, so heterogeneous
    protocols can be compared by the evaluation harness. *)

val pack : (module S with type t = 'a) -> 'a -> t

val name : t -> string
val universe_size : t -> int

val read_quorum :
  t -> alive:Dsutil.Bitset.t -> rng:Dsutil.Rng.t -> Dsutil.Bitset.t option

val write_quorum :
  t -> alive:Dsutil.Bitset.t -> rng:Dsutil.Rng.t -> Dsutil.Bitset.t option

val read_levels : t -> level_plan option
(** See {!S.read_levels}. *)

val fork : t -> t
(** A private copy for use in another domain; see {!S.fork}.  The parallel
    evaluation driver forks the protocol once per work item so concurrent
    simulation cells never share quorum-plan scratch state. *)

val read_quorum_set : t -> Quorum_set.t
(** Materializes [enumerate_read_quorums] into an explicit system. *)

val write_quorum_set : t -> Quorum_set.t

val all_alive : t -> Dsutil.Bitset.t
(** Convenience: the full universe as an alive view. *)
