(* Integration tests: coordinator + replicas + simulated network. *)

module Engine = Dsim.Engine
module Network = Dsim.Network
module Failure = Dsim.Failure
module Coordinator = Replication.Coordinator
module Replica = Replication.Replica
module Harness = Replication.Harness
module Timestamp = Replication.Timestamp
module Protocol = Quorum.Protocol

let fig1_proto () = Arbitrary.Quorums.protocol (Arbitrary.Tree.figure1 ())

type ctx = {
  engine : Engine.t;
  net : Replication.Message.t Network.t;
  replicas : Replica.t array;
  coord : Coordinator.t;
}

let setup ?(proto = fig1_proto ()) ?(seed = 42) ?config () =
  let n = Protocol.universe_size proto in
  let engine = Engine.create ~seed () in
  let net = Network.create ~engine ~n:(n + 1) () in
  let replicas = Array.init n (fun site -> Replica.create ~site ~net ()) in
  let coord = Coordinator.create ~site:n ~net ~proto ?config () in
  { engine; net; replicas; coord }

let do_read ctx key =
  let result = ref `Pending in
  Coordinator.read ctx.coord ~key (fun r -> result := `Done r);
  Engine.run ctx.engine;
  match !result with
  | `Done r -> r
  | `Pending -> Alcotest.fail "read did not complete"

let do_write ctx key value =
  let result = ref `Pending in
  Coordinator.write ctx.coord ~key ~value (fun r -> result := `Done r);
  Engine.run ctx.engine;
  match !result with
  | `Done r -> r
  | `Pending -> Alcotest.fail "write did not complete"

let test_read_fresh () =
  let ctx = setup () in
  match do_read ctx 1 with
  | Some { Coordinator.value; ts; _ } ->
    Alcotest.(check string) "empty value" "" value;
    Alcotest.(check bool) "zero ts" true (Timestamp.equal ts Timestamp.zero)
  | None -> Alcotest.fail "read must succeed failure-free"

let test_write_then_read () =
  let ctx = setup () in
  (match do_write ctx 1 "hello" with
  | Some ts -> Alcotest.(check int) "version 1" 1 ts.Timestamp.version
  | None -> Alcotest.fail "write must succeed failure-free");
  match do_read ctx 1 with
  | Some { Coordinator.value; ts; _ } ->
    Alcotest.(check string) "reads the write" "hello" value;
    Alcotest.(check int) "version 1" 1 ts.Timestamp.version
  | None -> Alcotest.fail "read must succeed"

let test_versions_increment () =
  let ctx = setup () in
  ignore (do_write ctx 1 "v1");
  ignore (do_write ctx 1 "v2");
  (match do_write ctx 1 "v3" with
  | Some ts -> Alcotest.(check int) "version 3" 3 ts.Timestamp.version
  | None -> Alcotest.fail "write must succeed");
  match do_read ctx 1 with
  | Some { Coordinator.value; _ } -> Alcotest.(check string) "latest" "v3" value
  | None -> Alcotest.fail "read must succeed"

let test_keys_independent () =
  let ctx = setup () in
  ignore (do_write ctx 1 "one");
  ignore (do_write ctx 2 "two");
  (match do_read ctx 1 with
  | Some { Coordinator.value; _ } -> Alcotest.(check string) "key 1" "one" value
  | None -> Alcotest.fail "read 1 failed");
  match do_read ctx 2 with
  | Some { Coordinator.value; _ } -> Alcotest.(check string) "key 2" "two" value
  | None -> Alcotest.fail "read 2 failed"

let test_write_survives_levelwise_crash () =
  (* Crash one replica of level 2: writes go via level 1, reads still work. *)
  let ctx = setup () in
  Network.crash ctx.net 7;
  (match do_write ctx 1 "resilient" with
  | Some _ -> ()
  | None -> Alcotest.fail "write must route to the intact level");
  match do_read ctx 1 with
  | Some { Coordinator.value; _ } -> Alcotest.(check string) "value" "resilient" value
  | None -> Alcotest.fail "read must succeed"

let test_read_blocked_by_dead_level () =
  (* Level 1 = sites 0,1,2 all dead: no read quorum exists. *)
  let ctx = setup () in
  List.iter (Network.crash ctx.net) [ 0; 1; 2 ];
  (match do_read ctx 1 with
  | None -> ()
  | Some _ -> Alcotest.fail "read should fail without level 1");
  (* Writes still possible on level 2... but the version phase needs a read
     quorum, so the whole write operation must fail too. *)
  match do_write ctx 1 "nope" with
  | None -> ()
  | Some _ -> Alcotest.fail "write needs the version-phase read quorum"

let test_crash_recovery_mid_run () =
  let ctx = setup () in
  ignore (do_write ctx 1 "before");
  List.iter (Network.crash ctx.net) [ 0; 1; 2 ];
  (match do_read ctx 1 with None -> () | Some _ -> Alcotest.fail "blocked");
  List.iter (Network.recover ctx.net) [ 0; 1; 2 ];
  match do_read ctx 1 with
  | Some { Coordinator.value; _ } ->
    Alcotest.(check string) "value survives crash+recovery" "before" value
  | None -> Alcotest.fail "read after recovery must succeed"

let test_rowa_write_blocked_by_single_crash () =
  let proto = Quorum.Rowa.protocol (Quorum.Rowa.create ~n:4) in
  let ctx = setup ~proto () in
  Network.crash ctx.net 2;
  (match do_write ctx 1 "x" with
  | None -> ()
  | Some _ -> Alcotest.fail "ROWA write must block on any crash");
  match do_read ctx 1 with
  | Some _ -> ()
  | None -> Alcotest.fail "ROWA read survives"

let test_majority_partition () =
  let proto = Quorum.Majority.protocol (Quorum.Majority.create ~n:5) in
  let ctx = setup ~proto () in
  (* Coordinator (site 5) with replicas 0,1 vs majority side 2,3,4. *)
  Network.partition ctx.net [ [ 0; 1; 5 ]; [ 2; 3; 4 ] ];
  (match do_write ctx 1 "minority" with
  | None -> ()
  | Some _ -> Alcotest.fail "minority side cannot write");
  Network.heal ctx.net;
  match do_write ctx 1 "healed" with
  | Some _ -> ()
  | None -> Alcotest.fail "healed network must accept writes"

let test_metrics_counted () =
  let ctx = setup () in
  ignore (do_write ctx 1 "a");
  ignore (do_read ctx 1);
  (match do_read ctx 9 with _ -> ());
  Alcotest.(check int) "writes ok" 1 (Coordinator.writes_ok ctx.coord);
  Alcotest.(check int) "reads ok" 2 (Coordinator.reads_ok ctx.coord);
  Alcotest.(check int) "no failures" 0
    (Coordinator.reads_failed ctx.coord + Coordinator.writes_failed ctx.coord)

let test_replica_counters () =
  let ctx = setup () in
  ignore (do_write ctx 1 "a");
  let applied =
    Array.fold_left (fun acc r -> acc + Replica.writes_applied r) 0 ctx.replicas
  in
  let prepares =
    Array.fold_left (fun acc r -> acc + Replica.prepares_seen r) 0 ctx.replicas
  in
  (* One write = prepares at one full level (3 or 5) and as many applies. *)
  Alcotest.(check bool) "prepares at a full level" true
    (prepares = 3 || prepares = 5);
  Alcotest.(check int) "applies = prepares" prepares applied

(* --- harness-level runs ------------------------------------------------- *)

let run_scenario ?(n_clients = 4) ?(ops = 60) ?(loss = 0.0) ?(failures = [])
    ?(seed = 7) proto =
  let s = Harness.default_scenario ~proto in
  Harness.run
    {
      s with
      Harness.n_clients;
      ops_per_client = ops;
      loss_rate = loss;
      failures;
      seed;
    }

let test_harness_happy_path () =
  let r = run_scenario (fig1_proto ()) in
  Alcotest.(check int) "no safety violations" 0 r.Harness.safety_violations;
  Alcotest.(check int) "no failures" 0 (r.Harness.reads_failed + r.Harness.writes_failed);
  Alcotest.(check int) "all ops completed" 240 (r.Harness.reads_ok + r.Harness.writes_ok)

let test_harness_determinism () =
  let r1 = run_scenario (fig1_proto ()) in
  let r2 = run_scenario (fig1_proto ()) in
  Alcotest.(check int) "same reads" r1.Harness.reads_ok r2.Harness.reads_ok;
  Alcotest.(check int) "same messages" r1.Harness.messages_sent r2.Harness.messages_sent;
  Alcotest.(check (float 1e-9)) "same duration" r1.Harness.duration r2.Harness.duration

let test_harness_message_loss () =
  let r = run_scenario ~loss:0.05 (fig1_proto ()) in
  Alcotest.(check int) "no safety violations" 0 r.Harness.safety_violations;
  Alcotest.(check bool) "some drops happened" true (r.Harness.messages_dropped > 0)

let safety_under_failures proto =
  let rng = Dsutil.Rng.create 101 in
  let failures =
    Failure.random_crash_recovery ~rng
      ~n:(Protocol.universe_size proto)
      ~horizon:400.0 ~mtbf:120.0 ~mttr:30.0
  in
  let r = run_scenario ~failures ~loss:0.02 proto in
  Alcotest.(check int)
    (Protocol.name proto ^ ": no safety violations under churn")
    0 r.Harness.safety_violations;
  Alcotest.(check bool)
    (Protocol.name proto ^ ": made progress")
    true
    (r.Harness.reads_ok + r.Harness.writes_ok > 0)

let test_safety_matrix () =
  List.iter safety_under_failures
    [
      fig1_proto ();
      Arbitrary.Quorums.protocol (Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n:36);
      Quorum.Majority.protocol (Quorum.Majority.create ~n:7);
      Quorum.Tree_quorum.protocol (Quorum.Tree_quorum.create ~height:3);
      Quorum.Hqc.protocol (Quorum.Hqc.create ~depth:2);
      Quorum.Grid.protocol (Quorum.Grid.create ~rows:3 ~cols:3);
      Quorum.Maekawa.protocol (Quorum.Maekawa.create ~k:3);
      Quorum.Tqp.protocol (Quorum.Tqp.create ~d:1 ~height:1);
    ]

let test_zipf_workload_safe () =
  let proto = fig1_proto () in
  let s = Harness.default_scenario ~proto in
  let r =
    Harness.run
      { s with Harness.n_clients = 4; ops_per_client = 60; zipf_theta = 0.99 }
  in
  Alcotest.(check int) "no violations with skewed keys" 0
    r.Harness.safety_violations;
  Alcotest.(check int) "all complete" 240 (r.Harness.reads_ok + r.Harness.writes_ok)

let test_no_locks_still_safe_single_client () =
  (* A single closed-loop client is serialized by construction, so even
     lock-free runs must stay safe. *)
  let proto = fig1_proto () in
  let s = Harness.default_scenario ~proto in
  let r =
    Harness.run { s with Harness.n_clients = 1; ops_per_client = 100; use_locks = false }
  in
  Alcotest.(check int) "no violations" 0 r.Harness.safety_violations

let test_read_repair_heals_stale_replica () =
  let proto = fig1_proto () in
  let config = { Coordinator.default_config with Coordinator.read_repair = true } in
  let ctx = setup ~proto ~config () in
  (* Replica 7 misses a write while crashed... *)
  Network.crash ctx.net 7;
  ignore (do_write ctx 1 "fresh");
  Network.recover ctx.net 7;
  let stale_ts, _ = Replication.Store.read (Replica.store ctx.replicas.(7)) ~key:1 in
  Alcotest.(check bool) "stale before repair" true
    (Timestamp.equal stale_ts Timestamp.zero);
  (* ...then catches up as soon as a read quorum includes it.  Force its
     inclusion by killing the rest of its level. *)
  List.iter (Network.crash ctx.net) [ 3; 4; 5; 6 ];
  (match do_read ctx 1 with
  | Some { Coordinator.value; _ } -> Alcotest.(check string) "read ok" "fresh" value
  | None -> Alcotest.fail "read should succeed");
  Engine.run ctx.engine;
  let healed_ts, healed_v =
    Replication.Store.read (Replica.store ctx.replicas.(7)) ~key:1
  in
  Alcotest.(check string) "repaired value" "fresh" healed_v;
  Alcotest.(check bool) "repaired ts" true
    (not (Timestamp.equal healed_ts Timestamp.zero));
  Alcotest.(check bool) "replica counted the repair" true
    (Replica.repairs_applied ctx.replicas.(7) = 1);
  Alcotest.(check bool) "coordinator counted the repair" true
    (Coordinator.repairs_sent ctx.coord >= 1)

let test_read_repair_off_by_default () =
  let ctx = setup () in
  Network.crash ctx.net 7;
  ignore (do_write ctx 1 "x");
  Network.recover ctx.net 7;
  List.iter (Network.crash ctx.net) [ 3; 4; 5; 6 ];
  ignore (do_read ctx 1);
  Engine.run ctx.engine;
  Alcotest.(check int) "no repairs sent" 0
    (Coordinator.repairs_sent ctx.coord)

let test_harness_with_read_repair_under_churn () =
  let proto = fig1_proto () in
  let rng = Dsutil.Rng.create 77 in
  let failures =
    Failure.random_crash_recovery ~rng ~n:8 ~horizon:300.0 ~mtbf:80.0 ~mttr:25.0
  in
  let s = Harness.default_scenario ~proto in
  let r =
    Harness.run
      {
        s with
        Harness.n_clients = 3;
        ops_per_client = 60;
        failures;
        coordinator =
          { Coordinator.default_config with Coordinator.read_repair = true };
      }
  in
  Alcotest.(check int) "still zero violations" 0 r.Harness.safety_violations

(* A read reply handed back to its replica's pool is refilled by the
   next send; a second hand-back raises; a reply nobody hands back is
   never touched again, however many reads the replica serves. *)
let test_read_reply_reuse () =
  let module Message = Replication.Message in
  let pool = Message.pool () in
  let first = Message.read_reply pool ~op:1 ~key:2 ~version:3 ~sid:4 ~value:"x" ~inc:0 in
  Message.recycle first;
  let again = Message.read_reply pool ~op:5 ~key:2 ~version:6 ~sid:7 ~value:"y" ~inc:1 in
  Alcotest.(check bool) "the handed-back record is reissued" true (again == first);
  (match again with
  | Message.Read_reply { op; version; sid; value; inc; _ } ->
    Alcotest.(check (list int)) "new op, timestamp and incarnation" [ 5; 6; 7; 1 ]
      [ op; version; sid; inc ];
    Alcotest.(check string) "new value" "y" value
  | _ -> Alcotest.fail "expected a read reply");
  Message.recycle again;
  Alcotest.check_raises "second hand-back"
    (Invalid_argument "Message.recycle: reply handed back twice") (fun () ->
      Message.recycle again);
  (* Replica 0 serves reads whose replies the coordinator hands back,
     except one that a test handler keeps. *)
  let ctx = setup () in
  let client = Array.length ctx.replicas in
  ignore (do_write ctx 1 "a");
  let coordinator = Option.get (Network.handler ctx.net ~site:client) in
  let read op = Network.send ctx.net ~src:client ~dst:0 (Message.Read_request { op; key = 1 }) in
  for op = 1000 to 1003 do
    read op
  done;
  Engine.run ctx.engine;
  let kept = ref [] in
  Network.set_handler ctx.net ~site:client (fun ~src:_ msg -> kept := msg :: !kept);
  read 2000;
  Engine.run ctx.engine;
  Network.set_handler ctx.net ~site:client coordinator;
  ignore (do_write ctx 1 "b");
  for op = 3000 to 3009 do
    read op
  done;
  Engine.run ctx.engine;
  match !kept with
  | [ Message.Read_reply { op; key; version; value; _ } ] ->
    Alcotest.(check (list int)) "kept reply: op, key, version" [ 2000; 1; 1 ] [ op; key; version ];
    Alcotest.(check string) "kept reply: value" "a" value
  | _ -> Alcotest.fail "expected exactly one kept read reply"

let suite =
  [
    Alcotest.test_case "read on fresh system" `Quick test_read_fresh;
    Alcotest.test_case "write then read" `Quick test_write_then_read;
    Alcotest.test_case "versions increment" `Quick test_versions_increment;
    Alcotest.test_case "keys independent" `Quick test_keys_independent;
    Alcotest.test_case "write survives level-wise crash" `Quick
      test_write_survives_levelwise_crash;
    Alcotest.test_case "dead level blocks operations" `Quick
      test_read_blocked_by_dead_level;
    Alcotest.test_case "crash + recovery" `Quick test_crash_recovery_mid_run;
    Alcotest.test_case "ROWA write blocked by crash" `Quick
      test_rowa_write_blocked_by_single_crash;
    Alcotest.test_case "majority under partition" `Quick test_majority_partition;
    Alcotest.test_case "coordinator metrics" `Quick test_metrics_counted;
    Alcotest.test_case "replica counters" `Quick test_replica_counters;
    Alcotest.test_case "harness happy path" `Quick test_harness_happy_path;
    Alcotest.test_case "harness determinism" `Quick test_harness_determinism;
    Alcotest.test_case "harness with message loss" `Quick test_harness_message_loss;
    Alcotest.test_case "safety matrix under churn" `Slow test_safety_matrix;
    Alcotest.test_case "single client without locks" `Quick
      test_no_locks_still_safe_single_client;
    Alcotest.test_case "read repair heals a stale replica" `Quick
      test_read_repair_heals_stale_replica;
    Alcotest.test_case "read repair off by default" `Quick
      test_read_repair_off_by_default;
    Alcotest.test_case "read repair under churn stays safe" `Quick
      test_harness_with_read_repair_under_churn;
    Alcotest.test_case "zipf workload stays safe" `Quick test_zipf_workload_safe;
    Alcotest.test_case "read replies are reused, kept ones untouched" `Quick
      test_read_reply_reuse;
  ]
