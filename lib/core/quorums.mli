(** Quorum construction for the arbitrary protocol (§3.2).

    Read quorum: one physical node of {e every} physical level.
    Write quorum: {e all} physical nodes of one physical level.

    The pair forms a bicoterie (proved by induction in §3.2.3 and verified
    by property tests here). *)

type policy = Plan_cache.policy =
  | Uniform  (** the paper's strategy: quorums drawn uniformly *)
  | First_alive
      (** deterministic: lowest-numbered alive replica per level / shallowest
          fully-alive level.  Used by the ablation benchmarks. *)

val read_quorum :
  ?policy:policy ->
  Tree.t ->
  alive:Dsutil.Bitset.t ->
  rng:Dsutil.Rng.t ->
  Dsutil.Bitset.t option
(** One alive replica from every physical level, or [None] when some level
    has no alive replica. *)

val write_quorum :
  ?policy:policy ->
  Tree.t ->
  alive:Dsutil.Bitset.t ->
  rng:Dsutil.Rng.t ->
  Dsutil.Bitset.t option
(** All replicas of a fully-alive physical level, or [None] when every
    level has at least one dead replica. *)

val write_quorum_of_level : Tree.t -> level:int -> Dsutil.Bitset.t
(** The write quorum consisting of the given physical level.  Raises
    [Invalid_argument] for a logical level. *)

val enumerate_read_quorums : Tree.t -> Dsutil.Bitset.t Seq.t
(** All m(R) = ∏ m_phy k read quorums; only for small trees. *)

val enumerate_write_quorums : Tree.t -> Dsutil.Bitset.t Seq.t
(** The m(W) = |K_phy| write quorums. *)

val protocol : Tree.t -> Quorum.Protocol.t
(** Packages a tree as a generic protocol instance (uniform policy).
    Quorum assembly goes through a precomputed {!Plan_cache} — same quorums
    and same RNG draw sequence as the reference functions above, without
    the per-operation list round trips.  Reconfiguration swaps in a new
    protocol value, which carries a freshly built plan. *)
