(** Cross-shard transaction scenarios: increment transactions whose keys
    deliberately span several shard instances.  The scenario and report
    are {!Txn_harness}'s sharded ones and the run is its transaction loop;
    this module adds the key picker.

    The conservation invariant of {!Txn_harness} carries over unchanged —

    {v  Σ committed increments ≤ Σ final counter values
                                ≤ Σ committed + Σ uncertain increments  v}

    — but now it is an {e atomicity} check: with 2PC's cross-shard
    all-prepared barrier intact ([atomic = true]) the invariant holds
    through per-shard crash schedules, while the negative control
    ([atomic = false]: every shard's leg commits independently) leaves
    partially-applied transactions whose phantom increments push the
    observed total above the bound. *)

type scenario = Txn_harness.scenario = {
  proto : Quorum.Protocol.t;
  shards : int;
  strategy : Arbitrary.Shard_map.strategy;
  atomic : bool;
  n_clients : int;
  txns_per_client : int;
  keys_per_txn : int;
      (** keys per transaction, drawn from distinct shards round-robin *)
  key_space : int;
  latency : Dsim.Latency.t;
  loss_rate : float;
  think_time : float;
  shard_failures : (int * Dsim.Failure.entry list) list;
  shard_loss : (int * float) list;
  seed : int;
  config : Txn.config;
  horizon : float;
}

val default_scenario : proto:Quorum.Protocol.t -> shards:int -> scenario
(** 3 clients × 30 transactions, 2 keys/txn over 16 keys, hash
    partitioning, atomic, no failures. *)

type report = Txn_harness.report = {
  committed : int;
  aborted : int;
  uncertain : int;
  partial_commits : int;
  committed_increments : int;
  uncertain_increments : int;
  observed_total : int;
  conservation_ok : bool;
  cross_shard_txns : int;
  duration : float;
}

val run : ?obs:Obs.t -> scenario -> report
(** Raises [Invalid_argument] unless [1 <= keys_per_txn <= key_space]. *)

val pp_report : Format.formatter -> report -> unit
