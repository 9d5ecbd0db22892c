(** Precomputed quorum plans for the arbitrary protocol (hot path).

    The per-operation quorum shapes of §3.2 are structural properties of the
    tree: the candidate replicas of every physical level and the write
    quorum of every level never change between operations.  The reference
    implementation in {!Quorums} nevertheless rebuilds them on every call
    (array → list → filter → array round trips); this module computes them
    once at tree-build time and assembles quorums against the cached plan.

    {b RNG compatibility.}  Quorum selection consumes the random stream in
    exactly the same way as the reference implementation: one bounded
    [Rng.int] draw per physical level for reads (bound = number of alive
    candidates) and one draw for writes (bound = number of fully-alive
    levels), with the same early-exit order.  A seeded run therefore
    produces {e byte-identical} simulation results whether quorums come
    from the cache or from {!Quorums.read_quorum} — property-tested in
    [test/test_plan_cache.ml] over random trees and alive masks.

    {b Fast path.}  When the alive view equals the full universe (the
    failure-free common case), candidate filtering is skipped entirely and
    selection indexes the precomputed per-level replica arrays.  When sites
    are down, candidates are gathered into reusable scratch buffers.
    Either way an assembly allocates nothing: see {b Results}.

    {b Results.}  A returned quorum belongs to the plan.  {!read_quorum}
    refills one bitset and {!write_quorum} returns a level's precomputed
    mask, each in a preallocated [Some].  A result is valid until the
    next call of the same function on the same plan, must not be mutated,
    and must be copied ([Dsutil.Bitset.copy]) to be kept longer.

    {b Invalidation.}  A plan is immutable and tied to the tree it was
    built from.  Reconfiguration installs a new protocol value (see
    {!Quorums.protocol} / [Reconfig.migrate]), which carries a freshly
    built plan — there is no in-place mutation to invalidate.

    {b Concurrency.}  The scratch buffers and the read result make a plan
    unsafe to share across domains; use {!fork} to obtain a private
    instance (cheap: only those buffers are new). *)

type t

val create : Tree.t -> t
(** Precomputes per-level replica arrays, per-level write-quorum bitsets
    and the full-universe alive view.  O(n) time and space. *)

val tree : t -> Tree.t

val fork : t -> t
(** A plan over the same tree with private scratch buffers and read
    result, safe to use from another domain.  It shares the original's
    per-level arrays and write masks, which no call writes. *)

val read_quorum : t -> alive:Dsutil.Bitset.t -> rng:Dsutil.Rng.t -> Dsutil.Bitset.t option
(** Same quorum (and same RNG draws) as {!Quorums.read_quorum}, owned by
    the plan until the next [read_quorum] call (see {b Results}). *)

val n_levels : t -> int
(** Number of physical levels (the per-level quorum groups of §3.2). *)

val read_site : t -> alive:Dsutil.Bitset.t -> rng:Dsutil.Rng.t -> level:int -> int
(** The read-quorum member for one physical level (index in
    [0, n_levels)), or -1 when the level has no alive candidate.  Walking
    the levels in ascending order and stopping at the first -1 draws the
    RNG exactly like one {!read_quorum} call — this is the per-level hook
    behind tree-level pipelined reads. *)

val write_quorum : t -> alive:Dsutil.Bitset.t -> rng:Dsutil.Rng.t -> Dsutil.Bitset.t option
(** Same quorum (and same RNG draws) as {!Quorums.write_quorum}, owned by
    the plan until the next [write_quorum] call (see {b Results}). *)
