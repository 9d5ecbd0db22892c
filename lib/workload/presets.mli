(** Canned workload mixes (YCSB-inspired), so scenarios across the
    examples, CLI and benchmarks agree on what "read-heavy" means. *)

type t = {
  name : string;
  description : string;
  read_fraction : float;
  zipf_theta : float;
}

val read_only : t
(** 100% reads (YCSB-C). *)

val all : t list

val by_name : string -> t option
(** Case-insensitive lookup. *)
