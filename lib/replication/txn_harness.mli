(** Scenario runner for the transaction layer: closed-loop clients execute
    read-modify-write {e increment transactions} over a small key space,
    with crash/recovery and message-loss injection.

    Every transaction reads [keys_per_txn] distinct counters and writes
    each back incremented by one.  Strict 2PL makes a committed increment
    add exactly one, so the scenario carries a checkable invariant:

    {v  Σ committed increments ≤ Σ final counter values
                                ≤ Σ committed + Σ uncertain increments  v}

    where {e uncertain} counts transactions whose commit acks never all
    arrived (the classic 2PC in-doubt window: their effects may or may not
    be visible).  The run evaluates the invariant by reading every counter
    through a read quorum after healing every replica and turning message
    loss off.

    One transaction loop ({!run_with}) serves both entry points: {!run}
    draws keys from the whole key space, {!Shard_txn_harness.run} spreads
    each transaction's keys over as many shards as it can.  Each passes
    its own key picker, so its seeded draws are its own. *)

type scenario = {
  proto : Quorum.Protocol.t;  (** per-shard tree *)
  shards : int;
  strategy : Arbitrary.Shard_map.strategy;
  atomic : bool;
      (** [false] disables the cross-shard prepare barrier (negative
          control) *)
  n_clients : int;
  txns_per_client : int;
  keys_per_txn : int;
  key_space : int;
  latency : Dsim.Latency.t;
  loss_rate : float;
  think_time : float;
  shard_failures : (int * Dsim.Failure.entry list) list;
  shard_loss : (int * float) list;
      (** per-shard message-loss override (negative-control fuel: a lossy
          shard's legs fail while its reads sometimes still succeed) *)
  seed : int;
  config : Txn.config;
  horizon : float;
}
(** Transactions over S shard instances, each with its own forked
    protocol, network and replicas, driven through a sharded {!Txn}
    manager (one quorum-RPC endpoint per shard, one global lock
    manager). *)

val default_scenario : proto:Quorum.Protocol.t -> scenario
(** One shard, 3 clients × 30 transactions, 2 keys/txn over 6 keys, no
    failures. *)

type report = {
  committed : int;
  aborted : int;
  uncertain : int;  (** aborted with in-doubt commit acks *)
  partial_commits : int;
      (** non-atomic aborts where ≥1 shard leg applied and ≥1 did not —
          always 0 when [atomic] *)
  committed_increments : int;
  uncertain_increments : int;
  observed_total : int;  (** Σ final counter values across all shards *)
  conservation_ok : bool;
  cross_shard_txns : int;  (** transactions whose keys spanned ≥2 shards *)
  duration : float;
}

val run : ?obs:Obs.t -> scenario -> report
(** {!run_with} picking each transaction's [keys_per_txn] keys from a
    fresh shuffle of the key space.  With [obs], the harness points its
    clock at the engine, registers the network and endpoint counters, and
    traces every transaction ([txn] spans) and the RPC operations
    underneath ([rpc.read] / [rpc.write]).  The final tallying quorum reads run on an
    uninstrumented endpoint so span accounting covers exactly the
    workload's operations.  Raises [Invalid_argument] unless
    [1 <= keys_per_txn <= key_space]. *)

val run_with :
  ?obs:Obs.t ->
  pick:(Dsutil.Rng.t -> Arbitrary.Shard_map.t -> int list) ->
  scenario ->
  report
(** The transaction loop.  Before each transaction a client draws its
    distinct keys with [pick] from its own RNG stream. *)

val pp_report : Format.formatter -> report -> unit
