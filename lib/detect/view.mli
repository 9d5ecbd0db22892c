(** Pluggable failure-detector view.

    The replication layer assembles quorums from a {e believed-alive} set of
    replicas.  Where that belief comes from is a policy decision — the
    simulator's ground-truth oracle (the paper's §2.2 "failures are
    detectable" assumption), a heartbeat-driven accrual detector
    ({!Heartbeat}), or anything a test wants to script — so it is passed
    around as a first-class record of closures rather than baked into the
    protocol code.

    Contract expected by consumers:
    - [alive ()] returns the current believed-up replica set; it may be
      stale or wrong — the protocol only loses liveness, never safety, on a
      bad view.  Consumers use it before the next call and may mutate
      it; an implementation may hand out the same set each call.
    - [observe src] is called on {e every} message received from [src];
      implementations must treat it as proof of life and rehabilitate any
      suspicion of [src].
    - [suspect site] is called when [site] failed to answer before a phase
      deadline; implementations may use it as negative evidence. *)

type t = {
  alive : unit -> Dsutil.Bitset.t;  (** current believed-up replica set *)
  observe : int -> unit;  (** a message from this site was received *)
  suspect : int -> unit;  (** this site missed a response deadline *)
}

val oracle : net:'msg Dsim.Network.t -> self:int -> n:int -> t
(** Ground truth from the simulator over the replica universe [0..n-1]
    (sites ≥ n are clients): up sites reachable from [self] (§2.2's
    detectable-failures assumption).  Ignores evidence.  [alive ()]
    refills one bitset per view in place, so its result is valid until
    the next call. *)
