(** The closed-form model of §3.2: communication costs, availability,
    optimal system loads and expected loads of the arbitrary protocol on a
    given tree. *)

val read_cost : Tree.t -> int
(** RD_cost = 1 + h − |K_log| = |K_phy| — one replica per physical
    level. *)

val write_cost_min : Tree.t -> int
(** d: size of the smallest physical level. *)

val write_cost_max : Tree.t -> int
(** e: size of the largest physical level. *)

val write_cost_avg : Tree.t -> float
(** n / |K_phy| under the uniform write strategy. *)

val num_read_quorums : Tree.t -> float
(** m(R) = ∏ m_phy k (Fact 3.2.1); float because the product explodes. *)

val num_write_quorums : Tree.t -> int
(** m(W) = |K_phy| (Fact 3.2.2). *)

val read_availability : Tree.t -> p:float -> float
(** ∏ₖ (1 − (1 − p)^{m_phy k}): every physical level must keep at least one
    replica up. *)

val write_fail : Tree.t -> p:float -> float
(** ∏ₖ (1 − p^{m_phy k}): no physical level is fully up. *)

val write_availability : Tree.t -> p:float -> float

val write_operation_availability : Tree.t -> p:float -> float
(** Availability of a {e complete} write operation, which per §3.2.2 first
    obtains the highest version number (a read quorum) and then updates a
    write quorum: the probability that both quorums exist under the same
    up/down pattern.  The paper's WR_availability counts only the write
    quorum; this combined form is what an execution actually observes. *)

val read_load : Tree.t -> float
(** Optimal system load of reads, 1/d (proved in the paper's appendix). *)

val write_load : Tree.t -> float
(** Optimal system load of writes, 1/|K_phy|. *)

val expected_read_load : Tree.t -> p:float -> float
(** Equation 3.2: E L_RD = RD_avail·(L_RD − 1) + 1. *)

val expected_write_load : Tree.t -> p:float -> float
(** Equation 3.2: E L_WR = WR_avail·L_WR + WR_fail·1. *)

val read_availability_per_site : Tree.t -> p:(int -> float) -> float
(** Heterogeneous generalization of {!read_availability}: [p i] is the
    availability of replica (site id) [i].  The paper assumes a uniform
    [p] (§2.2); the per-site form supports placing reliable replicas on
    the small levels, which dominate both availabilities. *)

val write_availability_per_site : Tree.t -> p:(int -> float) -> float

val read_resilience : Tree.t -> int
(** Smallest number of replica crashes that can block every read quorum:
    all of the smallest physical level must die, so this is d
    (write availability of that level is what protects reads). *)

val write_resilience : Tree.t -> int
(** Smallest number of crashes that can block every write quorum: one
    replica per physical level, i.e. |K_phy|. *)

val limit_read_availability : p:float -> float
(** n→∞ read availability of Algorithm-1 trees: (1 − (1−p)⁴)⁷. *)

val limit_write_availability : p:float -> float
(** n→∞ write availability of Algorithm-1 trees: 1 − (1 − p⁴)⁷. *)

type summary = {
  n : int;
  spec : string;
  rd_cost : int;
  wr_cost_min : int;
  wr_cost_max : int;
  wr_cost_avg : float;
  rd_availability : float;
  wr_availability : float;
  rd_load : float;
  wr_load : float;
  expected_rd_load : float;
  expected_wr_load : float;
}

val summarize : Tree.t -> p:float -> summary
val pp_summary : Format.formatter -> summary -> unit
