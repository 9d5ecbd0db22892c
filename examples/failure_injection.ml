(* Failure injection: replicas crash and recover while clients keep
   operating.  Shows (a) zero safety violations throughout, (b) the
   measured operation success rate tracking the analytic availability as
   the steady-state replica availability p varies, and (c) how much of
   that availability survives when the ground-truth failure oracle is
   replaced by a realistic heartbeat/φ-accrual detector.

   dune exec examples/failure_injection.exe *)

module Harness = Replication.Harness
module Coordinator = Replication.Coordinator
module Failure = Dsim.Failure

let run_with_availability ?coordinator ~p ~seed ~detector () =
  let tree = Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n:48 in
  let proto = Arbitrary.Quorums.protocol tree in
  (* Pick mtbf/mttr with mtbf/(mtbf+mttr) = p so sites are up a fraction p
     of the time in steady state. *)
  let mtbf = 100.0 in
  let mttr = mtbf *. (1.0 -. p) /. p in
  let rng = Dsutil.Rng.create seed in
  (* The schedule must outlive the slowest client: entry generation stops
     at its horizon and a site that is down then stays down, which would
     turn the tail of a slow run into a permanent mass outage. *)
  let failures =
    Failure.random_crash_recovery ~rng ~n:48 ~horizon:20_000.0 ~mtbf ~mttr
  in
  let s = Harness.default_scenario ~proto in
  let report =
    Harness.run
      {
        s with
        Harness.n_clients = 4;
        ops_per_client = 150;
        read_fraction = 0.5;
        failures;
        seed;
        think_time = 5.0;
        detector;
        coordinator =
          Option.value coordinator ~default:s.Harness.coordinator;
      }
  in
  (tree, report)

let rate ok failed =
  let total = ok + failed in
  if total = 0 then 1.0 else float_of_int ok /. float_of_int total

let ps = [ 0.95; 0.9; 0.85; 0.8; 0.7; 0.6 ]

let () =
  Format.printf
    "48 replicas under continuous crash/recovery churn (with retries):@.@.";
  Format.printf "%-6s %-12s %-12s %-12s %-12s %s@." "p" "rd measured"
    "rd analytic" "wr measured" "wr analytic" "safety violations";
  List.iter
    (fun p ->
      let tree, r =
        run_with_availability ~p ~seed:11 ~detector:Harness.Oracle ()
      in
      Format.printf "%-6.2f %-12.3f %-12.3f %-12.3f %-12.3f %d@." p
        (rate r.Harness.reads_ok r.Harness.reads_failed)
        (Arbitrary.Analysis.read_availability tree ~p)
        (rate r.Harness.writes_ok r.Harness.writes_failed)
        (Arbitrary.Analysis.write_operation_availability tree ~p)
        r.Harness.safety_violations)
    ps;
  Format.printf
    "@.Writes track the combined (version-read + write-quorum) availability;@.\
     reads track the product over physical levels.  Safety violations stay 0:@.\
     every read still sees the newest committed write despite the churn.@.";

  (* Same churn, but the coordinator no longer gets ground-truth failure
     knowledge: quorums are assembled from a per-client heartbeat monitor
     (φ-accrual, explicit suspicion on missed phase deadlines).  The delta
     against the oracle is the price of realistic detection. *)
  let hb = Harness.Heartbeat { Detect.Heartbeat.period = 2.5 } in
  (* Both columns get the degradation-tolerant retry policy: per-phase
     timeouts from observed RTT quantiles, jittered exponential backoff,
     and a hard per-operation deadline so an op abandons a dead quorum
     instead of hammering it with its locks held. *)
  let coordinator =
    {
      Coordinator.default_config with
      Coordinator.max_retries = 8;
      adaptive_timeout = true;
      deadline = 600.0;
    }
  in
  Format.printf
    "@.Oracle vs heartbeat failure detection (same churn, same seeds):@.@.";
  Format.printf "%-6s %-10s %-10s %-10s %-10s %-10s %-10s %s@." "p"
    "rd oracle" "rd hb" "rd delta" "wr oracle" "wr hb" "wr delta"
    "safety violations";
  List.iter
    (fun p ->
      let _, o =
        run_with_availability ~coordinator ~p ~seed:11
          ~detector:Harness.Oracle ()
      in
      let _, h = run_with_availability ~coordinator ~p ~seed:11 ~detector:hb () in
      let rd_o = rate o.Harness.reads_ok o.Harness.reads_failed
      and rd_h = rate h.Harness.reads_ok h.Harness.reads_failed
      and wr_o = rate o.Harness.writes_ok o.Harness.writes_failed
      and wr_h = rate h.Harness.writes_ok h.Harness.writes_failed in
      Format.printf "%-6.2f %-10.3f %-10.3f %-+10.3f %-10.3f %-10.3f %-+10.3f %d@."
        p rd_o rd_h (rd_h -. rd_o) wr_o wr_h (wr_h -. wr_o)
        (o.Harness.safety_violations + h.Harness.safety_violations))
    ps;
  Format.printf
    "@.The heartbeat detector pays a detection-latency tax on each fresh@.\
     crash (one phase timeout before the site is suspected): a few points@.\
     at moderate churn, growing as outages dominate.  Safety never depends@.\
     on detection quality — violations are 0 in both columns.@."
