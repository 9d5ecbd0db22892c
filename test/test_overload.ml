(* Overload-protection integration tests: replica admission control,
   coordinator Busy handling, the retry-budget and breaker wired into the
   RPC layer, the deadline-vs-retry boundary, the harness overload
   scenario, and the eval campaign's metastable gate. *)

module Engine = Dsim.Engine
module Network = Dsim.Network
module Latency = Dsim.Latency
module Message = Replication.Message
module Replica = Replication.Replica
module Coordinator = Replication.Coordinator
module Quorum_rpc = Replication.Quorum_rpc
module Harness = Replication.Harness
module Protocol = Quorum.Protocol

let fig1_proto () = Arbitrary.Quorums.protocol (Arbitrary.Tree.figure1 ())

(* -- Replica admission control ------------------------------------------- *)

let test_replica_sheds_above_watermark () =
  let engine = Engine.create ~seed:1 () in
  let n = 2 in
  let client = 2 in
  let net = Network.create ~engine ~n:(n + 1) ~latency:(Latency.Constant 0.0) () in
  Network.set_service net ~site:0 ~service_time:5.0 ();
  let replica =
    Replica.create ~site:0 ~net
      ~admission:(Replica.admission ~shed_watermark:1 ~universe:n ())
      ()
  in
  let busy = ref 0 and replies = ref 0 in
  Network.set_handler net ~site:client (fun ~src:_ msg ->
      match msg with
      | Message.Busy _ -> incr busy
      | Message.Read_reply _ -> incr replies
      | _ -> ());
  for op = 1 to 5 do
    Network.send net ~src:client ~dst:0 (Message.Read_request { op; key = 0 })
  done;
  Engine.run engine;
  (* Service order: each delivery sees the queue behind it.  The early
     deliveries find > 1 message still waiting and shed; the tail is
     served. *)
  Alcotest.(check bool) "some requests shed" true (!busy > 0);
  Alcotest.(check bool) "some requests served" true (!replies > 0);
  Alcotest.(check int) "all accounted" 5 (!busy + !replies);
  Alcotest.(check int) "sheds counter matches" !busy (Replica.sheds replica)

let test_replica_peer_reads_never_shed () =
  (* Same load, but from a peer replica site (src < universe): the
     priority lane must serve every request, shedding nothing. *)
  let engine = Engine.create ~seed:1 () in
  let n = 2 in
  let net = Network.create ~engine ~n:(n + 1) ~latency:(Latency.Constant 0.0) () in
  Network.set_service net ~site:0 ~service_time:5.0 ();
  let replica =
    Replica.create ~site:0 ~net
      ~admission:(Replica.admission ~shed_watermark:1 ~universe:n ())
      ()
  in
  let replies = ref 0 in
  Network.set_handler net ~site:1 (fun ~src:_ msg ->
      match msg with Message.Read_reply _ -> incr replies | _ -> ());
  for op = 1 to 5 do
    Network.send net ~src:1 ~dst:0 (Message.Read_request { op; key = 0 })
  done;
  Engine.run engine;
  Alcotest.(check int) "peer catch-up reads all served" 5 !replies;
  Alcotest.(check int) "nothing shed" 0 (Replica.sheds replica)

let test_admission_rejects_negative_watermark () =
  Alcotest.check_raises "negative watermark"
    (Invalid_argument "Replica.admission: negative shed watermark")
    (fun () -> ignore (Replica.admission ~shed_watermark:(-1) ()))

(* -- Quorum_rpc: deadline-vs-retry boundary ------------------------------ *)

(* Replicas absent (no handlers): phases always time out, so the retry
   cadence is deterministic: phase timeout T, jitter-free backoff B.  The
   first retry would be issued at exactly T + B. *)
let rpc_messages_with_deadline deadline =
  let proto = fig1_proto () in
  let n = Protocol.universe_size proto in
  let engine = Engine.create ~seed:3 () in
  let net = Network.create ~engine ~n:(n + 1) ~latency:(Latency.Constant 0.0) () in
  let config =
    {
      Quorum_rpc.default_config with
      Quorum_rpc.timeout = 10.0;
      max_retries = 1;
      deadline;
      backoff =
        { Detect.Backoff.base = 5.0; factor = 1.0; max_delay = 5.0; jitter = 0.0 };
    }
  in
  let rpc = Quorum_rpc.create ~site:n ~net ~proto ~config () in
  let result = ref `Pending in
  Quorum_rpc.query rpc ~key:0 (fun r -> result := `Done r);
  Engine.run engine;
  (match !result with
  | `Done None -> ()
  | `Done (Some _) -> Alcotest.fail "query cannot succeed without replicas"
  | `Pending -> Alcotest.fail "query never resolved");
  Network.sent net

let test_rpc_deadline_boundary () =
  (* Retry would start at 10 + 5 = op start + deadline exactly: the >=
     comparison must fail the operation without issuing it. *)
  let at_boundary = rpc_messages_with_deadline 15.0 in
  (* A hair more deadline budget and the retry is issued: strictly more
     messages hit the network. *)
  let past_boundary = rpc_messages_with_deadline 15.0001 in
  Alcotest.(check int) "boundary retry suppressed: one fan-out only"
    past_boundary (2 * at_boundary);
  Alcotest.(check bool) "sanity: someone sent something" true (at_boundary > 0)

(* -- Budget and breaker at the RPC layer --------------------------------- *)

let test_rpc_budget_suppresses_retries () =
  let proto = fig1_proto () in
  let n = Protocol.universe_size proto in
  let engine = Engine.create ~seed:3 () in
  let net = Network.create ~engine ~n:(n + 1) ~latency:(Latency.Constant 0.0) () in
  let budget = Detect.Budget.create ~config:{ Detect.Budget.ratio = 0.0; burst = 1.0 } () in
  (* Drain the single banked token so the very first retry is refused. *)
  Alcotest.(check bool) "drain" true (Detect.Budget.try_retry budget);
  let config =
    { Quorum_rpc.default_config with Quorum_rpc.timeout = 10.0; max_retries = 5 }
  in
  let rpc = Quorum_rpc.create ~site:n ~net ~proto ~budget ~config () in
  let result = ref `Pending in
  Quorum_rpc.query rpc ~key:0 (fun r -> result := `Done r);
  Engine.run engine;
  Alcotest.(check bool) "failed fast" true (!result = `Done None);
  Alcotest.(check int) "retry suppressed" 1 (Quorum_rpc.retries_suppressed rpc);
  Alcotest.(check int) "budget counted it" 1 (Detect.Budget.suppressed budget)

let test_rpc_breaker_steers_quorums () =
  (* Trip the breaker for site 0 by hand: quorum assembly must avoid it,
     so a query sends no message to site 0 while still succeeding. *)
  let proto = fig1_proto () in
  let n = Protocol.universe_size proto in
  let engine = Engine.create ~seed:3 () in
  let net = Network.create ~engine ~n:(n + 1) ~latency:(Latency.Constant 0.0) () in
  let replicas = Array.init n (fun site -> Replica.create ~site ~net ()) in
  ignore replicas;
  let breaker =
    Detect.Breaker.create
      ~config:{ Detect.Breaker.default_config with Detect.Breaker.threshold = 1 }
      ~n
      ~now:(fun () -> Engine.now engine)
      ()
  in
  Alcotest.(check bool) "tripped" true (Detect.Breaker.record_failure breaker 0);
  let rpc = Quorum_rpc.create ~site:n ~net ~proto ~breaker () in
  let result = ref `Pending in
  Quorum_rpc.query rpc ~key:0 (fun r -> result := `Done r);
  Engine.run engine;
  (match !result with
  | `Done (Some _) -> ()
  | _ -> Alcotest.fail "query should succeed away from the tripped site");
  Alcotest.(check int) "tripped site got no traffic" 0
    (Network.per_site_delivered net).(0)

let test_coordinator_busy_counts_and_retries () =
  (* One admission-controlled replica under pressure: the coordinator
     must see Busy nacks, count them, and still finish its operation. *)
  let proto = fig1_proto () in
  let n = Protocol.universe_size proto in
  let engine = Engine.create ~seed:7 () in
  let net = Network.create ~engine ~n:(n + 2) () in
  let admission = Replica.admission ~shed_watermark:1 ~universe:n () in
  Array.iteri
    (fun site () ->
      Network.set_service net ~site ~service_time:2.0 ();
      ignore (Replica.create ~site ~net ~admission ()))
    (Array.make n ());
  (* A background client hammers every replica with reads so queues stay
     above the watermark while the coordinator works. *)
  let noise_site = n + 1 in
  let op = ref 10_000 in
  let rec hammer () =
    for dst = 0 to n - 1 do
      incr op;
      Network.send net ~src:noise_site ~dst
        (Message.Read_request { op = !op; key = 1 })
    done;
    if Engine.now engine < 200.0 then Engine.schedule engine ~delay:1.0 hammer
  in
  Engine.schedule engine ~delay:0.0 hammer;
  let coord =
    Coordinator.create ~site:n ~net ~proto
      ~config:{ Coordinator.default_config with Coordinator.timeout = 30.0 }
      ()
  in
  let result = ref `Pending in
  Engine.schedule engine ~delay:5.0 (fun () ->
      Coordinator.read coord ~key:0 (fun r -> result := `Done r));
  Engine.run engine;
  Alcotest.(check bool) "operation resolved" true (!result <> `Pending);
  Alcotest.(check bool) "coordinator saw Busy nacks" true
    (Coordinator.busy_received coord > 0)

(* -- Harness overload scenario ------------------------------------------- *)

let overload_scenario () =
  let proto = fig1_proto () in
  {
    (Harness.default_scenario ~proto) with
    Harness.n_clients = 3;
    ops_per_client = 30;
    think_time = 5.0;
    horizon = 3000.0;
    seed = 11;
    coordinator =
      {
        Coordinator.default_config with
        Coordinator.timeout = 20.0;
        max_retries = 6;
      };
    overload =
      Some
        {
          Harness.overload_defaults with
          Harness.queue_capacity = 8;
          service_time = 2.0;
          shed_watermark = 2;
          retry_budget = Some Detect.Budget.default_config;
          breaker = Some Detect.Breaker.default_config;
          burst =
            Some
              {
                Harness.burst_at = 50.0;
                burst_clients = 8;
                burst_ops = 10;
                burst_think = 0.5;
              };
        };
  }

let test_harness_overload_smoke () =
  let report = Harness.run (overload_scenario ()) in
  Alcotest.(check bool) "some operations completed" true
    (report.Harness.reads_ok + report.Harness.writes_ok > 0);
  Alcotest.(check bool) "queues actually filled" true
    (report.Harness.queue_peak > 0);
  Alcotest.(check bool) "admission control engaged" true
    (report.Harness.replica_sheds > 0);
  Alcotest.(check bool) "coordinators saw the sheds" true
    (report.Harness.busy_received > 0);
  Alcotest.(check int) "overload cost no safety" 0
    report.Harness.safety_violations;
  Alcotest.(check int) "completions counted once per success"
    (report.Harness.reads_ok + report.Harness.writes_ok)
    (Array.length report.Harness.completions)

let test_harness_overload_deterministic () =
  let r1 = Harness.run (overload_scenario ()) in
  let r2 = Harness.run (overload_scenario ()) in
  Alcotest.(check bool) "same seed, same overload run" true
    (r1.Harness.reads_ok = r2.Harness.reads_ok
    && r1.Harness.writes_ok = r2.Harness.writes_ok
    && r1.Harness.replica_sheds = r2.Harness.replica_sheds
    && r1.Harness.busy_received = r2.Harness.busy_received
    && r1.Harness.retries_suppressed = r2.Harness.retries_suppressed
    && r1.Harness.overload_drops = r2.Harness.overload_drops
    && r1.Harness.breaker_trips = r2.Harness.breaker_trips
    && r1.Harness.completions = r2.Harness.completions)

let test_harness_no_overload_unchanged () =
  (* overload = None keeps the report of a plain scenario byte-identical:
     the overload counters exist but stay zero and no service queues are
     installed. *)
  let proto = fig1_proto () in
  let scenario =
    { (Harness.default_scenario ~proto) with Harness.n_clients = 2; seed = 5 }
  in
  let report = Harness.run scenario in
  Alcotest.(check int) "no sheds" 0 report.Harness.replica_sheds;
  Alcotest.(check int) "no busy" 0 report.Harness.busy_received;
  Alcotest.(check int) "no suppressed retries" 0
    report.Harness.retries_suppressed;
  Alcotest.(check int) "no overload drops" 0 report.Harness.overload_drops;
  Alcotest.(check int) "no breaker" 0 report.Harness.breaker_trips;
  Alcotest.(check int) "no queues" 0 report.Harness.queue_peak

(* -- Eval campaign gate --------------------------------------------------- *)

let test_campaign_gate () =
  let campaign = Eval.Overload.run () in
  let verdict = Eval.Overload.gate campaign in
  if not verdict.Eval.Overload.pass then
    Alcotest.failf "overload gate failed:\n%s"
      (String.concat "\n" verdict.Eval.Overload.failures);
  let naive =
    Eval.Overload.find campaign Eval.Overload.Retry_storm Eval.Overload.Naive
  in
  let prot =
    Eval.Overload.find campaign Eval.Overload.Retry_storm
      Eval.Overload.Protected
  in
  Alcotest.(check bool) "naive storm is metastable" true
    (naive.Eval.Overload.recovery <= 0.5);
  Alcotest.(check bool) "protected storm recovers" true
    (prot.Eval.Overload.recovery >= 0.9)

let suite =
  [
    Alcotest.test_case "replica: sheds above watermark" `Quick
      test_replica_sheds_above_watermark;
    Alcotest.test_case "replica: peer reads never shed" `Quick
      test_replica_peer_reads_never_shed;
    Alcotest.test_case "replica: admission validates" `Quick
      test_admission_rejects_negative_watermark;
    Alcotest.test_case "rpc: retry at deadline boundary fails" `Quick
      test_rpc_deadline_boundary;
    Alcotest.test_case "rpc: budget suppresses retries" `Quick
      test_rpc_budget_suppresses_retries;
    Alcotest.test_case "rpc: breaker steers quorums" `Quick
      test_rpc_breaker_steers_quorums;
    Alcotest.test_case "coordinator: Busy counted, op survives" `Quick
      test_coordinator_busy_counts_and_retries;
    Alcotest.test_case "harness: overload scenario smoke" `Quick
      test_harness_overload_smoke;
    Alcotest.test_case "harness: overload run deterministic" `Quick
      test_harness_overload_deterministic;
    Alcotest.test_case "harness: no overload, no counters" `Quick
      test_harness_no_overload_unchanged;
    Alcotest.test_case "eval: metastable gate holds" `Quick test_campaign_gate;
  ]
