(** Scenario lines: a whole harness run written as one line of
    [key=value] words, printable and parseable.

    {v  config=arbitrary n=8 n_clients=2 ops_per_client=20 seed=3  v}

    A line starts from the default scenario of its [config=<name>
    n=<n>] ({!Config_metrics.scenario} as a single tree) and sets every
    other key it names.  A protocol cannot be printed, so the line names
    it: parsing builds it with {!Config_metrics.protocol_of}.  Keys are the
    record field names of {!Replication.Harness.scenario} (dotted through
    nested records: [coordinator.timeout], [overload.burst.burst_ops],
    [batching.batch_size], [churn.spares], ...) plus the
    {!Replication.Harness.sharded} fields [shards], [strategy],
    [service_time], [shard_failures] and [reconfig].  Setting any key of
    an absent option record starts from that record's default
    ([Harness.overload_defaults], [batching_defaults], [txn_defaults],
    [churn_defaults], [Detect.Budget.default_config],
    [Detect.Breaker.default_config], and an empty burst with think
    time 1).  Lists print as concrete entries, so a line replays without
    the generator that drew them.  The grammar of every value is in
    docs/PROTOCOL.md, "Scenario lines". *)

type t = {
  config : Arbitrary.Config.name;
  n : int;  (** the snapped size ({!Config_metrics.feasible_n}) *)
  sharded : Replication.Harness.sharded;
      (** its [base.proto] is [Config_metrics.protocol_of config ~n] *)
}

val one_tree : Arbitrary.Config.name -> int * Replication.Harness.scenario -> t
(** [one_tree config (n, s)]: [s] at the snapped [n] as a single tree
    ({!Replication.Harness.one_tree}); [s.proto] must be
    [Config_metrics.protocol_of config ~n]. *)

val keys : string list
(** The field table's keys, in table order ([config] and [n] excluded). *)

val set : t -> string -> string -> t
(** [set t key value] parses [value] into [key]'s field.
    @raise Invalid_argument naming the key on an unknown key or a
    malformed value. *)

val to_string : t -> string
(** [config=… n=…] followed by every key whose value differs from that
    pair's default scenario, in table order.  A key of a present option
    record always differs from the absent record.  Floats round-trip
    bit-exactly ([inf] included). *)

val of_string : string -> t
(** The inverse of {!to_string}: words separated by blanks, [config] and
    [n] required, the other keys in any order.
    @raise Invalid_argument naming the key on an unknown, repeated or
    missing key or a malformed value. *)
