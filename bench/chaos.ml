(* Chaos-campaign runner: crash/partition/loss schedules × the four paper
   tree configurations × oracle vs heartbeat failure detection, plus the
   amnesia crash-recovery campaign (WAL + rejoin catch-up) with its
   negative control, plus the overload / metastable-failure campaign
   (bounded queues, load shedding, retry budget, circuit breaker).

     dune exec bench/chaos.exe               # full campaign (32 cells)
     dune exec bench/chaos.exe -- --smoke    # CI budget (8 cells, seeded)
     dune exec bench/chaos.exe -- --overload # overload campaign only
     dune exec bench/chaos.exe -- --churn    # membership-churn gate only

   Exit status is non-zero when any cell records a safety violation, when
   the heartbeat detector's success rate falls more than 10 points behind
   the oracle's on the crash-only schedule, when the amnesia campaign
   (durable WAL + catch-up) shows any consistency violation, when the
   negative control (async WAL, no catch-up, total blackout) fails to
   produce one, or when the overload gate fails (naive retry storm must
   collapse, budget+breaker+shedding must recover ≥90%, zero consistency
   violations) — the campaign is a gate, not just a report. *)

let overload_path = "BENCH_overload.json"
let churn_path = "BENCH_churn.json"

let overload_cell_json (c : Eval.Overload.cell) =
  let r = c.Eval.Overload.report in
  Printf.sprintf
    "{\"scenario\":\"%s\",\"mode\":\"%s\",\"pre_goodput\":%.6f,\"post_goodput\":%.6f,\"recovery\":%.4f,\"ops_ok\":%d,\"sheds\":%d,\"overload_drops\":%d,\"retries_suppressed\":%d,\"breaker_trips\":%d,\"queue_peak\":%d,\"consistency_violations\":%d}"
    (Eval.Overload.kind_to_string c.Eval.Overload.kind)
    (Eval.Overload.mode_to_string c.Eval.Overload.mode)
    c.Eval.Overload.pre_goodput c.Eval.Overload.post_goodput
    c.Eval.Overload.recovery
    (Replication.Harness.completed r)
    r.Replication.Harness.replica_sheds r.Replication.Harness.overload_drops
    r.Replication.Harness.retries_suppressed
    r.Replication.Harness.breaker_trips r.Replication.Harness.queue_peak
    c.Eval.Overload.consistency_violations

let run_overload () =
  Printf.printf "\n== Overload / metastable-failure campaign ==\n\n";
  let campaign = Eval.Overload.run () in
  print_string (Eval.Overload.table campaign);
  let verdict = Eval.Overload.gate campaign in
  let json =
    Printf.sprintf "{\"schema\":\"bench-overload/1\",\"cells\":[%s],\"gate\":%s}"
      (String.concat ","
         (List.map overload_cell_json campaign.Eval.Overload.cells))
      (Artifact.verdict_json verdict)
  in
  print_newline ();
  Artifact.publish ~name:"overload" ~path:overload_path ~keys:[] verdict json;
  Printf.printf "overload gate OK\n"

let churn_cell_json (c : Eval.Churn.cell) =
  let r = c.Eval.Churn.c_report in
  let a = r.Replication.Churn_harness.agg in
  Printf.sprintf
    "{\"config\":\"%s\",\"n\":%d,\"scenario\":\"%s\",\"reads_ok\":%d,\"writes_ok\":%d,\"promotions_done\":%d,\"decommissions_done\":%d,\"provision_runs\":%d,\"provision_chunks\":%d,\"provision_resumes\":%d,\"provision_donor_failovers\":%d,\"failed_rejoins\":%d,\"violations\":%d}"
    (Arbitrary.Config.name_to_string c.Eval.Churn.c_config)
    c.Eval.Churn.c_n
    (Artifact.json_escape c.Eval.Churn.c_kind)
    a.Replication.Harness.reads_ok a.Replication.Harness.writes_ok
    r.Replication.Churn_harness.promotions_done
    r.Replication.Churn_harness.decommissions_done
    a.Replication.Harness.provision_runs
    a.Replication.Harness.provision_chunks
    a.Replication.Harness.provision_resumes
    a.Replication.Harness.provision_donor_failovers
    a.Replication.Harness.failed_rejoins
    a.Replication.Harness.safety_violations

(* Membership-churn smoke gate: the fenced campaign (four configs × four
   scenarios, plus the sharded run) must be violation-free, the unfenced
   blackout control must leak, and snapshot provisioning must beat per-key
   catch-up by at least 5× in protocol rounds on a cold 10k-key rejoin. *)
let run_churn () =
  Printf.printf "\n== Membership churn campaign ==\n\n";
  let fenced = Eval.Churn.run ~n:13 () in
  print_string (Eval.Churn.table fenced);
  Printf.printf "\n== Sharded churn (independent trees per shard) ==\n\n";
  let sharded = Eval.Churn.run_sharded ~n:13 () in
  print_string (Eval.Churn.table sharded);
  Printf.printf "\n== Negative control (blackout, unfenced, async WAL) ==\n\n";
  let negative = Eval.Churn.run_negative ~n:13 () in
  print_string (Eval.Churn.table negative);
  let rj = Eval.Churn.cold_rejoin_comparison () in
  Printf.printf
    "\ncold rejoin (%d keys, n=%d): catch-up %d rounds vs provisioning %d \
     rounds (%.1fx)\n"
    rj.Eval.Churn.rj_keys rj.Eval.Churn.rj_n rj.Eval.Churn.rj_catchup_rounds
    rj.Eval.Churn.rj_provision_rounds rj.Eval.Churn.rj_speedup;
  let fenced_violations =
    Eval.Churn.violations fenced + Eval.Churn.violations sharded
  in
  let negative_violations = Eval.Churn.violations negative in
  let g = Eval.Gate.create () in
  let check cond = Eval.Gate.check g cond in
  check (fenced_violations = 0) "%d violations in the fenced campaign (expected 0)"
    fenced_violations;
  check (negative_violations > 0)
    "negative control leaked nothing — the churn oracle is not catching \
     stale reads";
  check
    (rj.Eval.Churn.rj_catchup_serving && rj.Eval.Churn.rj_provision_serving)
    "a cold rejoin failed to reach serving";
  check (rj.Eval.Churn.rj_speedup >= 5.0) "cold-rejoin speedup %.1fx below the 5x gate"
    rj.Eval.Churn.rj_speedup;
  let verdict = Eval.Gate.verdict g in
  let json =
    Printf.sprintf
      "{\"schema\":\"bench-churn/1\",\"cells\":[%s],\"cold_rejoin\":{\"keys\":%d,\"catchup_rounds\":%d,\"provision_rounds\":%d,\"speedup\":%.4f},\"negative_violations\":%d,\"gate\":%s}"
      (String.concat ","
         (List.map churn_cell_json (fenced @ sharded @ negative)))
      rj.Eval.Churn.rj_keys rj.Eval.Churn.rj_catchup_rounds
      rj.Eval.Churn.rj_provision_rounds rj.Eval.Churn.rj_speedup
      negative_violations
      (Artifact.verdict_json verdict)
  in
  Artifact.publish ~name:"churn" ~path:churn_path ~keys:[] verdict json;
  Printf.printf "churn gate OK\n"

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  if Array.exists (( = ) "--churn") Sys.argv then begin
    run_churn ();
    exit 0
  end;
  if Array.exists (( = ) "--overload") Sys.argv then begin
    run_overload ();
    exit 0
  end;
  let campaign =
    if smoke then
      Eval.Chaos.run ~n:45 ~clients:3 ~ops:20 ~horizon:3000.0
        ~schedules:[ Eval.Chaos.crashes_schedule; Eval.Chaos.combined_schedule ]
        ()
    else Eval.Chaos.run ()
  in
  let label = if smoke then "smoke" else "full" in
  Printf.printf "== Chaos campaign (%s): %d cells ==\n\n" label
    (List.length campaign.Eval.Chaos.cells);
  print_string (Eval.Chaos.table campaign);
  Printf.printf "\n== Oracle vs heartbeat detection parity ==\n\n";
  print_string (Eval.Chaos.parity_table campaign);
  let gap = Eval.Chaos.crash_parity_gap campaign in
  Printf.printf
    "\ntotal safety violations: %d\nmax crash-schedule success-rate gap \
     (oracle vs heartbeat): %.4f\n"
    campaign.Eval.Chaos.safety_violations gap;
  Printf.printf "\n== Amnesia crash-recovery campaign ==\n\n";
  let amnesia = Eval.Chaos.run_amnesia () in
  print_string (Eval.Chaos.amnesia_table amnesia);
  let amnesia_violations = Eval.Chaos.amnesia_violations amnesia in
  Printf.printf "\namnesia (durable WAL + catch-up) violations: %d\n"
    amnesia_violations;
  Printf.printf "\n== Negative control (async WAL, no catch-up) ==\n\n";
  let negative = Eval.Chaos.run_amnesia_negative () in
  print_string (Eval.Chaos.amnesia_table negative);
  let negative_violations = Eval.Chaos.amnesia_violations negative in
  Printf.printf "\nnegative-control violations: %d (must be >= 1)\n"
    negative_violations;
  let g = Eval.Gate.create () in
  let check cond = Eval.Gate.check g cond in
  check (campaign.Eval.Chaos.safety_violations = 0) "safety violated under chaos";
  check (gap <= 0.10)
    "heartbeat detection degrades availability by more than 10 points on \
     crash-only schedules";
  check (amnesia_violations = 0)
    "consistency violated under amnesia crashes despite durable WAL and \
     quorum catch-up";
  check (negative_violations > 0)
    "negative control detected no violations — the consistency checker is \
     not catching lost writes";
  Artifact.enforce ~name:"chaos" (Eval.Gate.verdict g);
  run_overload ();
  print_endline "chaos campaign OK"
