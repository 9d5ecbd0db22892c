(* The four benchmark workloads, each a closed loop: a simulated client
   waits for its reply, then an exponential think time, before its next
   operation.  A workload builds its scenario from a seed, a per-client op
   count and a protocol instance, and runs through the public harness entry
   points.  Every workload is sized and configured so that no operation
   fails: the benchmark checks it. *)

module H = Replication.Harness
module SH = Replication.Shard_harness
module Config = Arbitrary.Config

type scenario = Plain of H.scenario | Sharded of SH.scenario

type t = {
  name : string;
  why : string;
  config : Config.name;
  n : int;  (** replicas per tree *)
  ops_per_client : int;  (** size of one timed run *)
  scenario : proto:Quorum.Protocol.t -> seed:int -> ops:int -> scenario;
}

let tree w = Config.build w.config ~n:w.n

(* Tree and plan-cache construction happen here, so they count as set-up. *)
let build w ~seed ~ops =
  w.scenario ~proto:(Arbitrary.Quorums.protocol (tree w)) ~seed ~ops

let base = function Plain b -> b | Sharded s -> s.SH.base
let issued s = (base s).H.n_clients * (base s).H.ops_per_client
let shards = function Plain _ -> 1 | Sharded s -> s.SH.shards

let service_time = function
  | Plain { H.overload = Some o; _ } -> o.H.service_time
  | Plain _ -> 0.0
  | Sharded s -> s.SH.service_time

(* The aggregate report plus the shard skew ratio (1.0 unsharded). *)
let run ?obs = function
  | Plain b -> (H.run ?obs b, 1.0)
  | Sharded sc ->
    let r = SH.run ?obs sc in
    (r.SH.agg, SH.imbalance_ratio r)

let read_hot =
  {
    name = "read-hot";
    why =
      "95% reads of hot Zipf keys behind per-replica service queues: the read \
       path, quorum assembly, store lookups and queueing";
    config = Config.Arbitrary;
    n = 33;
    ops_per_client = 1000;
    scenario =
      (fun ~proto ~seed ~ops ->
        Plain
          {
            (H.default_scenario ~proto) with
            H.n_clients = 64;
            ops_per_client = ops;
            read_fraction = 0.95;
            key_space = 4096;
            zipf_theta = 0.99;
            think_time = 0.1;
            seed;
            horizon = Float.infinity;
            overload = Some { H.overload_defaults with H.service_time = 0.25 };
          });
  }

let write_wide =
  {
    name = "write-wide";
    why =
      "95% writes where every write quorum is all 33 replicas: 2PC fan-out, \
       staging, commits and WAL appends, the heaviest allocation path";
    config = Config.Mostly_read;
    n = 33;
    ops_per_client = 1500;
    scenario =
      (fun ~proto ~seed ~ops ->
        Plain
          {
            (H.default_scenario ~proto) with
            H.n_clients = 8;
            ops_per_client = ops;
            read_fraction = 0.05;
            key_space = 1024;
            think_time = 0.1;
            seed;
            horizon = Float.infinity;
            crash_mode = Dsim.Network.Amnesia;
            wal = Replication.Wal.Sync_on_commit;
          });
  }

let batch_sharded =
  {
    name = "batch-sharded";
    why =
      "16 hash shards, batched pipelined group-committed clients, skewed keys: \
       envelopes, coalescing and shard routing, no per-op locks";
    config = Config.Arbitrary;
    n = 9;
    ops_per_client = 512;
    scenario =
      (fun ~proto ~seed ~ops ->
        let b = H.default_scenario ~proto in
        Sharded
          {
            SH.base =
              {
                b with
                H.n_clients = 64;
                ops_per_client = ops;
                read_fraction = 0.5;
                key_space = 16384;
                zipf_theta = 0.99;
                think_time = 0.1;
                seed;
                (* Batched pipelined clients trip a lock-manager defect, so
                   locks stay off (README.md has the reproducer). *)
                use_locks = false;
                coordinator =
                  { b.H.coordinator with Replication.Coordinator.timeout = 10000.0 };
                horizon = Float.infinity;
                crash_mode = Dsim.Network.Amnesia;
                wal = Replication.Wal.Sync_on_commit;
                batching =
                  Some { H.batch_size = 32; group_commit = true; pipeline = 4 };
              };
            shards = 16;
            strategy = Arbitrary.Shard_map.Hash;
            service_time = 0.5;
            shard_failures = [];
            reconfig = [];
          });
  }

(* Rolling crashes: every [period] units one seeded random replica goes
   down for [down] units, [cycles] times.  The schedule is bounded so it
   ends while clients still run and the tail drains without faults; an
   open-ended one keeps crashing replicas after the last client is done,
   all of it charged to the timed run. *)
let rolling_crashes ~seed ~n ~cycles ~period ~down =
  let rng = Dsutil.Rng.create (seed lxor 0x5eed) in
  List.concat_map
    (fun c ->
      let at = period *. float_of_int (c + 1) in
      let site = Dsutil.Rng.int rng n in
      Dsim.Failure.
        [ { time = at; event = Crash site }; { time = at +. down; event = Recover site } ])
    (List.init cycles Fun.id)

(* Fail-stop crashes: under amnesia a replica that crashes between a
   write's prepare and its commit makes the outcome uncertain and the write
   fails, so no seed would be failure-free.  No deadline and 32 retries let
   every operation ride out the loss and the crashes.  At 1% loss the write
   p99 sits where the share of writes needing one more retry crosses 1%,
   and jumps by a third from seed to seed; at 0.5% it is steady. *)
let faults =
  {
    name = "faults";
    why =
      "rolling crashes and 0.5% loss: retries, adaptive timeouts, backoff and \
       degraded quorum assembly; the only workload with long stalls";
    config = Config.Arbitrary;
    n = 33;
    ops_per_client = 150;
    scenario =
      (fun ~proto ~seed ~ops ->
        Plain
          {
            (H.default_scenario ~proto) with
            H.n_clients = 16;
            ops_per_client = ops;
            read_fraction = 0.5;
            key_space = 64;
            think_time = 1.0;
            loss_rate = 0.005;
            seed;
            coordinator =
              {
                Eval.Chaos.chaos_coordinator with
                Replication.Coordinator.max_retries = 32;
                deadline = Float.infinity;
              };
            horizon = Float.infinity;
            warmup = 1.0;
            failures =
              rolling_crashes ~seed ~n:33 ~cycles:(ops / 4) ~period:50.0 ~down:25.0;
          });
  }

let all = [ read_hot; write_wide; batch_sharded; faults ]
let find name = List.find_opt (fun w -> w.name = name) all
