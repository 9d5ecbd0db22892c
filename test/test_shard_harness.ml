(* The sharded multi-tree control plane: S=1 byte-identity with the
   unsharded harness, per-shard routing and accounting, determinism per
   seed, crash recovery per shard, and online split/merge with fenced
   state-transfer migration. *)

module Harness = Replication.Harness
module Shard_harness = Replication.Shard_harness
module Shard_map = Arbitrary.Shard_map
module Batching = Eval.Batching
module Consistency = Eval.Consistency
module Failure = Dsim.Failure
module Network = Dsim.Network
module Rng = Dsutil.Rng

let proto_of_spec spec =
  Arbitrary.Quorums.protocol (Arbitrary.Tree.of_spec spec)

let base_scenario ?(seed = 42) ?(clients = 3) ?(ops = 40) ?(key_space = 32)
    ?(zipf = 0.0) () =
  let proto = proto_of_spec "1-3-5" in
  {
    (Harness.default_scenario ~proto) with
    n_clients = clients;
    ops_per_client = ops;
    key_space;
    zipf_theta = zipf;
    seed;
    check_consistency = true;
  }

let sharded ?(shards = 4) ?(strategy = Shard_map.Hash) base =
  { (Shard_harness.default ~proto:base.Harness.proto ~shards) with base; strategy }

(* --- S=1 byte-identity --------------------------------------------------- *)

let test_s1_identity () =
  let base = base_scenario () in
  let unsharded = Harness.run base in
  let r = Shard_harness.run (sharded ~shards:1 base) in
  Alcotest.(check string)
    "S=1 fingerprint == unsharded fingerprint"
    (Batching.fingerprint unsharded)
    (Batching.fingerprint r.Shard_harness.agg)

let test_s1_identity_batched () =
  let batching =
    Some { Harness.batch_size = 8; group_commit = true; pipeline = 2 }
  in
  let base = { (base_scenario ~seed:7 ()) with batching } in
  let unsharded = Harness.run base in
  let r = Shard_harness.run (sharded ~shards:1 base) in
  Alcotest.(check string)
    "S=1 batched fingerprint == unsharded"
    (Batching.fingerprint unsharded)
    (Batching.fingerprint r.Shard_harness.agg);
  Alcotest.(check bool) "batches engaged" true
    (Harness.count r.Shard_harness.agg "coord.batches" > 0)

let test_s1_identity_amnesia_failures () =
  let entries seed =
    Failure.random_crash_recovery ~rng:(Rng.create seed) ~n:8 ~horizon:300.0
      ~mtbf:80.0 ~mttr:15.0
  in
  let base =
    {
      (base_scenario ~seed:11 ()) with
      crash_mode = Network.Amnesia;
      failures = entries 1234;
    }
  in
  let unsharded = Harness.run base in
  let shard_scenario =
    {
      (sharded ~shards:1 { base with failures = [] }) with
      shard_failures = [ (0, entries 1234) ];
    }
  in
  let r = Shard_harness.run shard_scenario in
  Alcotest.(check string)
    "S=1 amnesia+crashes fingerprint == unsharded"
    (Batching.fingerprint unsharded)
    (Batching.fingerprint r.Shard_harness.agg)

(* --- sharded runs -------------------------------------------------------- *)

let test_sharded_completes_and_routes () =
  let base = base_scenario ~clients:4 ~ops:30 ~key_space:64 () in
  let r = Shard_harness.run (sharded ~shards:4 base) in
  let total = 4 * 30 in
  Alcotest.(check int) "all ops complete" total (Harness.completed r.Shard_harness.agg);
  Alcotest.(check int) "no safety violations" 0
    r.Shard_harness.agg.Harness.safety_violations;
  Alcotest.(check int) "per-shard ops sum to total" total
    (Array.fold_left ( + ) 0 r.Shard_harness.per_shard_ops);
  Alcotest.(check int) "4 shards" 4 r.Shard_harness.shards;
  Alcotest.(check bool) "well formed" true r.Shard_harness.map_well_formed;
  (* Every shard of a 64-key hash map should see some traffic. *)
  Array.iter
    (fun ops -> Alcotest.(check bool) "every shard served ops" true (ops > 0))
    r.Shard_harness.per_shard_ops;
  let violations = Consistency.check r.Shard_harness.agg.Harness.spans in
  Alcotest.(check int) "trace checker clean" 0
    (List.length violations.Consistency.violations)

let test_sharded_deterministic () =
  let run () =
    Batching.fingerprint
      (Shard_harness.run (sharded ~shards:4 (base_scenario ~seed:5 ())))
        .Shard_harness.agg
  in
  Alcotest.(check string) "same seed, same sharded run" (run ()) (run ())

let test_sharded_range_strategy () =
  let base = base_scenario ~clients:3 ~ops:25 ~key_space:40 () in
  let r = Shard_harness.run (sharded ~shards:4 ~strategy:Shard_map.Range base) in
  Alcotest.(check int) "all ops complete" (3 * 25)
    (Harness.completed r.Shard_harness.agg);
  Alcotest.(check bool) "well formed" true r.Shard_harness.map_well_formed;
  Alcotest.(check int) "10 keys per shard" 10 r.Shard_harness.per_shard_keys.(0)

let test_sharded_crash_one_shard () =
  (* Blackout one shard's replicas mid-run: its ops fail or retry, other
     shards are untouched; no freshness violation anywhere. *)
  let base =
    { (base_scenario ~clients:4 ~ops:30 ~key_space:64 ()) with
      crash_mode = Network.Amnesia }
  in
  let down = [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  let entries =
    List.map (fun s -> { Failure.time = 20.0; event = Failure.Crash s }) down
    @ List.map (fun s -> { Failure.time = 80.0; event = Failure.Recover s }) down
  in
  let sc =
    { (sharded ~shards:4 base) with shard_failures = [ (2, entries) ] }
  in
  let r = Shard_harness.run sc in
  Alcotest.(check int) "no safety violations" 0
    r.Shard_harness.agg.Harness.safety_violations;
  let violations = Consistency.check r.Shard_harness.agg.Harness.spans in
  Alcotest.(check int) "trace checker clean" 0
    (List.length violations.Consistency.violations);
  Alcotest.(check bool) "some ops completed" true
    (Harness.completed r.Shard_harness.agg > 0)

(* --- online split/merge -------------------------------------------------- *)

let test_online_split_and_merge () =
  let base = base_scenario ~clients:4 ~ops:60 ~key_space:48 () in
  let sc =
    {
      (sharded ~shards:4 base) with
      reconfig =
        [
          { Shard_harness.at = 30.0; action = Shard_harness.Split 1 };
          {
            Shard_harness.at = 90.0;
            action = Shard_harness.Merge { into = 0; from_ = 3 };
          };
        ];
    }
  in
  let r = Shard_harness.run sc in
  Alcotest.(check int) "split happened" 1 r.Shard_harness.splits;
  Alcotest.(check int) "merge happened" 1 r.Shard_harness.merges;
  Alcotest.(check int) "5 shard ids allocated" 5 r.Shard_harness.shards;
  Alcotest.(check (list int)) "active shards: 3 merged away, 4 split in"
    [ 0; 1; 2; 4 ] r.Shard_harness.active_shards;
  Alcotest.(check bool) "map stays well-formed" true r.Shard_harness.map_well_formed;
  Alcotest.(check bool) "keys migrated" true (r.Shard_harness.migrated_keys > 0);
  Alcotest.(check int) "no migration failures" 0 r.Shard_harness.migration_failures;
  Alcotest.(check int) "all ops complete" (4 * 60)
    (Harness.completed r.Shard_harness.agg);
  Alcotest.(check int) "no safety violations" 0
    r.Shard_harness.agg.Harness.safety_violations;
  let violations = Consistency.check r.Shard_harness.agg.Harness.spans in
  Alcotest.(check int) "trace checker clean across resharding" 0
    (List.length violations.Consistency.violations);
  (* The split target must end up owning keys and serving traffic. *)
  Alcotest.(check bool) "split target owns keys" true
    (r.Shard_harness.per_shard_keys.(4) > 0);
  Alcotest.(check int) "merged-away shard owns nothing" 0
    r.Shard_harness.per_shard_keys.(3)

let test_reconfig_requires_locks () =
  let base = { (base_scenario ()) with use_locks = false } in
  let sc =
    {
      (sharded ~shards:2 base) with
      reconfig = [ { Shard_harness.at = 10.0; action = Shard_harness.Split 0 } ];
    }
  in
  Alcotest.check_raises "reconfig without locks rejected"
    (Invalid_argument "Harness.run: reconfiguration requires use_locks")
    (fun () -> ignore (Shard_harness.run sc))

(* --- combinations every shard count supports ------------------------------ *)

(* Service queues with a bounded capacity and one slow replica, a shed
   watermark, a shared retry budget, per-shard breakers and a flash crowd. *)
let overload =
  {
    Harness.queue_capacity = 6;
    service_time = 2.0;
    slow_sites = [ (0, 6.0) ];
    shed_watermark = 3;
    retry_budget = Some { Detect.Budget.ratio = 0.2; burst = 10.0 };
    breaker =
      Some
        {
          Detect.Breaker.threshold = 3;
          cooldown = 40.0;
          cooldown_factor = 2.0;
          max_cooldown = 160.0;
        };
    burst =
      Some
        {
          Harness.burst_at = 10.0;
          burst_clients = 16;
          burst_ops = 10;
          burst_think = 0.05;
        };
  }

let overloaded_base () =
  {
    (base_scenario ~clients:4 ~ops:30 ~key_space:64 ()) with
    overload = Some overload;
    coordinator = { Eval.Chaos.chaos_coordinator with max_retries = 12 };
  }

let check_clean what r =
  Alcotest.(check int) (what ^ ": no safety violations") 0
    r.Shard_harness.agg.Harness.safety_violations;
  let c = Consistency.check r.Shard_harness.agg.Harness.spans in
  Alcotest.(check int) (what ^ ": trace checker clean") 0
    (List.length c.Consistency.violations)

let test_sharded_overload () =
  let r = Shard_harness.run (sharded ~shards:4 (overloaded_base ())) in
  check_clean "S=4 overload" r;
  let a = r.Shard_harness.agg in
  Alcotest.(check bool) "burst clients ran" true (Harness.completed a > 4 * 30);
  Alcotest.(check bool) "queues filled to capacity" true (a.Harness.queue_peak > 6);
  Alcotest.(check bool) "watermark shed" true (Harness.count a "replica.shed" > 0);
  Alcotest.(check bool) "busy nacks acted on" true
    (Harness.count a "coord.busy_received" > 0);
  Alcotest.(check bool) "a breaker tripped" true (Harness.count a "breaker.trips" > 0);
  Array.iter
    (fun ops -> Alcotest.(check bool) "every shard served ops" true (ops > 0))
    r.Shard_harness.per_shard_ops

let test_sharded_base_failures () =
  (* The base schedule hits every shard: sites 0..2 of each tree crash
     under amnesia and come back. *)
  let failures =
    List.concat_map
      (fun s ->
        [
          { Failure.time = 15.0 +. float_of_int s; event = Failure.Crash s };
          { Failure.time = 45.0 +. float_of_int s; event = Failure.Recover s };
        ])
      [ 0; 1; 2 ]
  in
  let base =
    {
      (base_scenario ~clients:4 ~ops:30 ~key_space:64 ()) with
      crash_mode = Network.Amnesia;
      failures;
    }
  in
  let r = Shard_harness.run (sharded ~shards:4 base) in
  check_clean "S=4 base failures" r;
  let n = Array.length r.Shard_harness.agg.Harness.replica_incarnations / 4 in
  for shard = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "shard %d: three replicas crashed and rejoined" shard)
      3
      (Array.fold_left ( + ) 0
         (Array.sub r.Shard_harness.agg.Harness.replica_incarnations (shard * n) n))
  done;
  Alcotest.(check bool) "ops completed" true (Harness.completed r.Shard_harness.agg > 0)

let test_s1_identity_overload () =
  let base = overloaded_base () in
  let unsharded = Harness.run base in
  let r = Shard_harness.run (sharded ~shards:1 base) in
  Alcotest.(check string)
    "S=1 overload+burst fingerprint == unsharded"
    (Batching.fingerprint unsharded)
    (Batching.fingerprint r.Shard_harness.agg);
  Alcotest.(check bool) "the crowd overloaded the tree" true
    (Harness.count unsharded "replica.shed" > 0)

(* One client's per-shard coordinators share a site, a network size and
   the lock manager: their lock owners must still be distinct, or two
   writes to one key trip the manager's duplicate-owner check. *)
let test_shared_site_lock_owners () =
  let proto = proto_of_spec "1-3-5" in
  let n = Quorum.Protocol.universe_size proto in
  let engine = Dsim.Engine.create ~seed:3 () in
  let locks = Replication.Lock_manager.create ~engine in
  let coordinator () =
    let net = Network.create ~engine ~n:(n + 1) () in
    for site = 0 to n - 1 do
      ignore (Replication.Replica.create ~site ~net ())
    done;
    Replication.Coordinator.create ~site:n ~net ~proto:(Quorum.Protocol.fork proto)
      ~locks ()
  in
  let c1 = coordinator () and c2 = coordinator () in
  let ok = ref 0 in
  let count = function Some _ -> incr ok | None -> () in
  Replication.Coordinator.write c1 ~key:0 ~value:"a" count;
  Replication.Coordinator.write c2 ~key:0 ~value:"b" count;
  Dsim.Engine.run engine;
  Alcotest.(check int) "both locked writes commit" 2 !ok

let suite =
  [
    Alcotest.test_case "S=1 byte-identical to unsharded" `Quick test_s1_identity;
    Alcotest.test_case "S=1 batched byte-identical" `Quick test_s1_identity_batched;
    Alcotest.test_case "S=1 amnesia+crashes byte-identical" `Quick
      test_s1_identity_amnesia_failures;
    Alcotest.test_case "sharded run completes and routes" `Quick
      test_sharded_completes_and_routes;
    Alcotest.test_case "sharded runs deterministic" `Quick test_sharded_deterministic;
    Alcotest.test_case "range strategy" `Quick test_sharded_range_strategy;
    Alcotest.test_case "one shard crashes, others unaffected" `Quick
      test_sharded_crash_one_shard;
    Alcotest.test_case "online split and merge" `Quick test_online_split_and_merge;
    Alcotest.test_case "reconfig requires locks" `Quick test_reconfig_requires_locks;
    Alcotest.test_case "S=4 with overload and burst" `Quick test_sharded_overload;
    Alcotest.test_case "S=4 with base failures" `Quick test_sharded_base_failures;
    Alcotest.test_case "S=1 overload+burst byte-identical" `Quick
      test_s1_identity_overload;
    Alcotest.test_case "per-shard coordinators draw distinct lock owners" `Quick
      test_shared_site_lock_owners;
  ]
