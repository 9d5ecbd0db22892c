(* Fault-injection tests over the chaos campaign: safety must hold under
   every schedule × configuration × detector, and the heartbeat detector
   must stay close to the oracle on crash-only schedules.  All runs are
   seeded and deterministic. *)

module Chaos = Eval.Chaos
module Campaign = Eval.Campaign
module Harness = Replication.Harness

let small ?(schedules = [ Chaos.combined_schedule ]) ?(seed = 42) () =
  Chaos.run ~clients:2 ~ops:10 ~seed ~horizon:1500.0 ~schedules ()

let cell_label (c : Campaign.cell) =
  Printf.sprintf "%s/%s/%s"
    (Arbitrary.Config.name_to_string c.line.config)
    c.label (Chaos.detector c)

let test_combined_safety () =
  (* Crash churn + recurring partitions + message loss at once, all four
     paper configurations, both detectors. *)
  let campaign = small () in
  Alcotest.(check int) "8 cells" 8 (List.length campaign);
  List.iter
    (fun (c : Campaign.cell) ->
      Alcotest.(check int)
        (cell_label c ^ ": no stale reads")
        0 c.report.agg.safety_violations;
      Alcotest.(check bool)
        (cell_label c ^ ": made progress")
        true
        (c.report.agg.reads_ok + c.report.agg.writes_ok > 0))
    campaign;
  Alcotest.(check int) "campaign total" 0 (Campaign.violations campaign)

let test_safety_across_seeds () =
  List.iter
    (fun seed ->
      let campaign = small ~seed () in
      Alcotest.(check int)
        (Printf.sprintf "seed %d" seed)
        0 (Campaign.violations campaign))
    [ 7; 1234 ]

let test_crash_parity () =
  let campaign = small ~schedules:[ Chaos.crashes_schedule ] () in
  Alcotest.(check int) "no violations" 0 (Campaign.violations campaign);
  let gap = Chaos.crash_parity_gap campaign in
  if gap > 0.10 then
    Alcotest.failf
      "heartbeat detection loses %.3f success-rate points to the oracle \
       under crash churn (budget 0.10)"
      gap

let test_detector_bookkeeping () =
  let campaign = small ~schedules:[ Chaos.crashes_schedule ] () in
  List.iter
    (fun (c : Campaign.cell) ->
      match c.line.sharded.base.detector with
      | Harness.Oracle ->
        Alcotest.(check int)
          (cell_label c ^ ": oracle sends no probes")
          0
          (Harness.count c.report.agg "heartbeat.pings")
      | Harness.Heartbeat _ ->
        Alcotest.(check bool)
          (cell_label c ^ ": monitor probed")
          true
          (Harness.count c.report.agg "heartbeat.pings" > 0))
    campaign

let test_deterministic () =
  let summary campaign =
    List.map
      (fun (c : Campaign.cell) ->
        ( cell_label c,
          c.report.agg.reads_ok,
          c.report.agg.writes_ok,
          Harness.count c.report.agg "coord.retries",
          c.report.agg.messages_delivered ))
      campaign
  in
  let campaign = small () in
  let a = summary campaign and b = summary (small ()) in
  Alcotest.(check bool) "same seed, same campaign" true (a = b);
  (* Digests of the rendered campaigns, recorded before the chaos cell got
     its single builder: a change to any cell field moves them. *)
  let digest s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "pinned table + parity"
    "ce47df3f2be2f6b156def761c64d0a88"
    (digest (Chaos.table campaign ^ Chaos.parity_table campaign));
  Alcotest.(check string) "pinned amnesia table"
    "6e3fa04271ccbc1c684ef26989399636"
    (digest
       (Chaos.amnesia_table
          (Chaos.run_amnesia ~n:9 ~clients:2 ~ops:10 ~seed:42 ~horizon:1500.0
             ())))

(* The amnesia acceptance gates at test size: durable WAL + catch-up keeps
   every configuration consistent; the negative control (async WAL, no
   catch-up, total blackout) must be caught by the checker on every
   configuration — a gate that cannot fail proves nothing. *)
let test_amnesia_gate_all_configs () =
  let cells =
    Chaos.run_amnesia ~n:21 ~clients:2 ~ops:10 ~seed:42 ~horizon:2000.0 ()
  in
  Alcotest.(check int) "four cells" 4 (List.length cells);
  List.iter
    (fun (c : Campaign.cell) ->
      let label = Arbitrary.Config.name_to_string c.line.config in
      Alcotest.(check int)
        (label ^ ": online safety") 0
        c.report.agg.safety_violations;
      Alcotest.(check int)
        (label ^ ": offline consistency") 0
        (List.length c.consistency.violations))
    cells;
  Alcotest.(check int) "campaign total" 0 (Campaign.violations cells)

let test_amnesia_negative_control () =
  (* Campaign size: smaller trees leave too few overlapping ops for every
     configuration to witness a lost write. *)
  let cells = Chaos.run_amnesia_negative ~seed:42 () in
  List.iter
    (fun (c : Campaign.cell) ->
      Alcotest.(check bool)
        (Arbitrary.Config.name_to_string c.line.config
        ^ ": checker catches lost writes")
        true
        (c.consistency.violations <> []))
    cells

(* Golden guard for long adaptive-timeout runs: 2,048 ops on ARBITRARY
   n=33 under 0.5% loss and rolling fail-stop crashes, enough RTT samples
   per coordinator to exercise the estimator's rank arithmetic at large n.
   The fingerprint was recorded with the sort-based estimator; any drift
   in a phase timeout moves retries, messages or latencies. *)
let test_adaptive_faults_golden () =
  let n = 33 and clients = 16 and ops = 128 in
  let proto =
    Arbitrary.Quorums.protocol
      (Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n)
  in
  (* Every 50 units one random replica goes down for 25. *)
  let rng = Dsutil.Rng.create 3 in
  let failures =
    List.concat_map
      (fun c ->
        let at = 50.0 *. float_of_int (c + 1) and site = Dsutil.Rng.int rng n in
        Dsim.Failure.
          [
            { time = at; event = Crash site };
            { time = at +. 25.0; event = Recover site };
          ])
      (List.init (ops / 4) Fun.id)
  in
  let r =
    Harness.run
      {
        (Harness.default_scenario ~proto) with
        Harness.n_clients = clients;
        ops_per_client = ops;
        read_fraction = 0.5;
        key_space = 64;
        think_time = 1.0;
        loss_rate = 0.005;
        seed = 3;
        coordinator =
          {
            Chaos.chaos_coordinator with
            Replication.Coordinator.max_retries = 32;
            deadline = Float.infinity;
          };
        horizon = Float.infinity;
        warmup = 1.0;
        failures;
      }
  in
  let pct s q = Dsutil.Stats.percentile s q in
  let fingerprint =
    Printf.sprintf
      "reads %d/%d writes %d/%d retries %d msgs %d/%d/%d read p50 %.17g p99 \
       %.17g sum %.17g write p50 %.17g p99 %.17g sum %.17g"
      r.Harness.reads_ok r.Harness.reads_failed r.Harness.writes_ok
      r.Harness.writes_failed (Harness.count r "coord.retries") r.Harness.messages_sent
      r.Harness.messages_delivered (Harness.messages_dropped r)
      (pct r.Harness.read_latency 0.5)
      (pct r.Harness.read_latency 0.99)
      (Dsutil.Stats.total r.Harness.read_latency)
      (pct r.Harness.write_latency 0.5)
      (pct r.Harness.write_latency 0.99)
      (Dsutil.Stats.total r.Harness.write_latency)
  in
  Alcotest.(check string) "seeded faults-shaped run"
    "reads 1002/0 writes 1046/0 retries 302 msgs 54527/54209/318 read p50 \
     4.3949771080039 p99 36.838483370766653 sum 7305.7209379549358 write p50 \
     12.444587141320881 p99 82.576180701513863 sum 18073.151554637872"
    fingerprint

let suite =
  [
    Alcotest.test_case "combined chaos keeps safety" `Quick
      test_combined_safety;
    Alcotest.test_case "safety holds across seeds" `Quick
      test_safety_across_seeds;
    Alcotest.test_case "heartbeat parity under crash churn" `Quick
      test_crash_parity;
    Alcotest.test_case "detector bookkeeping" `Quick test_detector_bookkeeping;
    Alcotest.test_case "campaign is deterministic" `Quick test_deterministic;
    Alcotest.test_case "amnesia gate holds on every configuration" `Quick
      test_amnesia_gate_all_configs;
    Alcotest.test_case "amnesia negative control fires" `Quick
      test_amnesia_negative_control;
    Alcotest.test_case "adaptive timeouts: faults-shaped golden run" `Quick
      test_adaptive_faults_golden;
  ]
