(** Closed-form metrics of the six §4 configurations at a given system
    size, shared by every figure. *)

type t = {
  config : Arbitrary.Config.name;
  n : int;  (** the feasible size actually used (e.g. 2^(h+1)−1 for
                BINARY); the nearest one at or below the request *)
  rd_cost : float;
  wr_cost : float;  (** average write cost under the uniform strategy *)
  rd_load : float;
  wr_load : float;
  rd_avail : float;
  wr_avail : float;
  e_rd_load : float;  (** expected read load, Equation 3.2 *)
  e_wr_load : float;
}

val feasible_n : Arbitrary.Config.name -> int -> int
(** Largest size ≤ the request at which the configuration is defined
    (odd for MOSTLY-WRITE, 2^(h+1)−1 for BINARY, 3^L for HQC, …). *)

val compute : Arbitrary.Config.name -> n:int -> p:float -> t
(** Metrics at [feasible_n name n].  BINARY uses the Tree-Quorum formulas
    (its quorums serve both operations), HQC Kumar's, and the remaining
    four the arbitrary protocol's closed forms on their §4 trees. *)

val protocol_of : Arbitrary.Config.name -> n:int -> Quorum.Protocol.t
(** An executable protocol instance for the configuration at
    [feasible_n name n] — used by the simulation-vs-analytic ablation. *)

val scenario :
  Arbitrary.Config.name -> n:int -> int * Replication.Harness.scenario
(** [feasible_n name n] and the harness's default scenario on
    [protocol_of name ~n]: the base every campaign cell overrides. *)
