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

module Campaign = Eval.Campaign

let overload_cell_json (c : Campaign.cell) =
  let r = c.report.agg in
  let count = Replication.Harness.count r in
  Printf.sprintf
    "{\"scenario\":\"%s\",\"mode\":\"%s\",\"pre_goodput\":%.6f,\"post_goodput\":%.6f,\"recovery\":%.4f,\"ops_ok\":%d,\"sheds\":%d,\"overload_drops\":%d,\"retries_suppressed\":%d,\"breaker_trips\":%d,\"queue_peak\":%d,\"consistency_violations\":%d}"
    c.label
    (Eval.Overload.mode_to_string (Eval.Overload.mode c))
    (Eval.Overload.pre_goodput c) (Eval.Overload.post_goodput c) (Eval.Overload.recovery c)
    (Replication.Harness.completed r)
    (count "replica.shed") (count "net.dropped.overload")
    (count "coord.retries_suppressed") (count "breaker.trips") r.queue_peak
    (Campaign.violations [ c ])

let run_overload () =
  Printf.printf "\n== Overload / metastable-failure campaign ==\n\n";
  let cells = Eval.Overload.run () in
  print_string (Eval.Overload.table cells);
  let verdict = Eval.Overload.gate cells in
  let json =
    Printf.sprintf "{\"schema\":\"bench-overload/1\",\"cells\":[%s],\"gate\":%s}"
      (String.concat "," (List.map overload_cell_json cells))
      (Artifact.verdict_json verdict)
  in
  print_newline ();
  Artifact.enforce [ ("overload", Artifact.publish ~path:overload_path ~keys:[] verdict json) ];
  Printf.printf "overload gate OK\n"

let churn_cell_json (c : Campaign.cell) =
  let a = c.report.agg in
  let count = Replication.Harness.count a in
  Printf.sprintf
    "{\"config\":\"%s\",\"n\":%d,\"scenario\":\"%s\",\"reads_ok\":%d,\"writes_ok\":%d,\"promotions_done\":%d,\"decommissions_done\":%d,\"provision_runs\":%d,\"provision_chunks\":%d,\"provision_resumes\":%d,\"provision_donor_failovers\":%d,\"failed_rejoins\":%d,\"violations\":%d}"
    (Arbitrary.Config.name_to_string c.line.config)
    c.line.n (Artifact.json_escape c.label) a.reads_ok a.writes_ok a.promotions_done
    a.decommissions_done (count "provision.runs") (count "provision.chunks")
    (count "provision.resumes") (count "provision.donor_failovers")
    (count "replica.rejoin.failed") (Campaign.violations [ c ])

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
    rj.rj_keys rj.rj_n rj.rj_catchup_rounds rj.rj_provision_rounds rj.rj_speedup;
  let fenced_violations = Campaign.violations (fenced @ sharded) in
  let negative_violations = Campaign.violations negative in
  let g = Eval.Gate.create () in
  let check cond = Eval.Gate.check g cond in
  check (fenced_violations = 0) "%d violations in the fenced campaign (expected 0)%s"
    fenced_violations (Campaign.blame (fenced @ sharded));
  check (negative_violations > 0)
    "negative control leaked nothing — the churn oracle is not catching \
     stale reads";
  check (rj.rj_catchup_serving && rj.rj_provision_serving)
    "a cold rejoin failed to reach serving";
  check (rj.rj_speedup >= 5.0) "cold-rejoin speedup %.1fx below the 5x gate" rj.rj_speedup;
  let verdict = Eval.Gate.verdict g in
  let json =
    Printf.sprintf
      "{\"schema\":\"bench-churn/1\",\"cells\":[%s],\"cold_rejoin\":{\"keys\":%d,\"catchup_rounds\":%d,\"provision_rounds\":%d,\"speedup\":%.4f},\"negative_violations\":%d,\"gate\":%s}"
      (String.concat "," (List.map churn_cell_json (fenced @ sharded @ negative)))
      rj.rj_keys rj.rj_catchup_rounds rj.rj_provision_rounds rj.rj_speedup
      negative_violations
      (Artifact.verdict_json verdict)
  in
  Artifact.enforce [ ("churn", Artifact.publish ~path:churn_path ~keys:[] verdict json) ];
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
  let cells =
    if smoke then
      Eval.Chaos.run ~n:45 ~clients:3 ~ops:20 ~horizon:3000.0
        ~schedules:[ Eval.Chaos.crashes_schedule; Eval.Chaos.combined_schedule ]
        ()
    else Eval.Chaos.run ()
  in
  let label = if smoke then "smoke" else "full" in
  Printf.printf "== Chaos campaign (%s): %d cells ==\n\n" label (List.length cells);
  print_string (Eval.Chaos.table cells);
  Printf.printf "\n== Oracle vs heartbeat detection parity ==\n\n";
  print_string (Eval.Chaos.parity_table cells);
  let gap = Eval.Chaos.crash_parity_gap cells in
  let violations = Campaign.violations cells in
  Printf.printf
    "\ntotal safety violations: %d\nmax crash-schedule success-rate gap \
     (oracle vs heartbeat): %.4f\n"
    violations gap;
  Printf.printf "\n== Amnesia crash-recovery campaign ==\n\n";
  let amnesia = Eval.Chaos.run_amnesia () in
  print_string (Eval.Chaos.amnesia_table amnesia);
  let amnesia_violations = Campaign.violations amnesia in
  Printf.printf "\namnesia (durable WAL + catch-up) violations: %d\n"
    amnesia_violations;
  Printf.printf "\n== Negative control (async WAL, no catch-up) ==\n\n";
  let negative = Eval.Chaos.run_amnesia_negative () in
  print_string (Eval.Chaos.amnesia_table negative);
  let negative_violations = Campaign.violations negative in
  Printf.printf "\nnegative-control violations: %d (must be >= 1)\n"
    negative_violations;
  let g = Eval.Gate.create () in
  let check cond = Eval.Gate.check g cond in
  check (violations = 0) "safety violated under chaos%s" (Campaign.blame cells);
  check (gap <= 0.10)
    "heartbeat detection degrades availability by more than 10 points on \
     crash-only schedules";
  check (amnesia_violations = 0)
    "consistency violated under amnesia crashes despite durable WAL and \
     quorum catch-up%s"
    (Campaign.blame amnesia);
  check (negative_violations > 0)
    "negative control detected no violations — the consistency checker is \
     not catching lost writes";
  Artifact.enforce [ ("chaos", Eval.Gate.verdict g) ];
  run_overload ();
  print_endline "chaos campaign OK"
