(* End-to-end membership churn: promotion, decommission and provisioning
   rejoin under a client workload, plus the campaign's negative control
   and the cold-rejoin cost comparison. *)

module Harness = Replication.Harness
module Failure = Dsim.Failure
module Churn = Eval.Churn

let proto () =
  Eval.Config_metrics.protocol_of Arbitrary.Config.Unmodified ~n:7

(* Plain run, no faults, no membership: behaves like an ordinary
   harness run with two idle spares. *)
let churn ?(spares = 1) ?(chunk_size = 4) membership =
  { (Harness.churn_scenario ~proto:(proto ())) with
    churn = Some { spares; membership; chunk_size; fence = true } }

let test_quiet_run () =
  let r = Harness.run (churn ~spares:2 []) in
  Alcotest.(check int) "no violations" 0 r.Harness.safety_violations;
  Alcotest.(check bool) "work completed" true (Harness.completed r > 0);
  Alcotest.(check int) "no transfers" 0 r.Harness.provision_runs;
  Alcotest.(check bool) "spares idle but serving" true
    (Array.for_all (( = ) "serving") r.Harness.replica_status)

(* A scripted fenced decommission completes and leaves exactly one site
   permanently fenced, with zero violations. *)
let test_decommission_flow () =
  let n = Quorum.Protocol.universe_size (proto ()) in
  let r =
    Harness.run
      (churn ~chunk_size:1
         [ { Harness.at = 100.0; position = 1; spare = n; fence = true } ])
  in
  Alcotest.(check int) "no violations" 0 r.Harness.safety_violations;
  Alcotest.(check int) "promotion completed" 1 r.Harness.promotions_done;
  Alcotest.(check int) "decommission completed" 1 r.Harness.decommissions_done;
  let fenced =
    Array.to_list r.Harness.replica_status
    |> List.filter (( = ) "decommissioned")
    |> List.length
  in
  Alcotest.(check int) "exactly one site fenced" 1 fenced;
  Alcotest.(check string) "the outgoing occupant" "decommissioned"
    r.Harness.replica_status.(1)

(* The churn checks of the harness's validation block: each bad schedule
   is refused before anything runs. *)
let test_churn_validation () =
  let n = Quorum.Protocol.universe_size (proto ()) in
  let refused what msg s =
    Alcotest.check_raises what (Invalid_argument msg) (fun () -> ignore (Harness.run s))
  in
  refused "negative spares" "Harness.run: negative spares" (churn ~spares:(-1) []);
  refused "position past the tree" "Harness.run: membership position out of range"
    (churn [ { Harness.at = 1.0; position = n; spare = n; fence = false } ]);
  refused "negative position" "Harness.run: membership position out of range"
    (churn [ { Harness.at = 1.0; position = -1; spare = n; fence = false } ]);
  refused "spare past the universe" "Harness.run: membership spare out of range"
    (churn [ { Harness.at = 1.0; position = 0; spare = n + 1; fence = false } ]);
  Alcotest.check_raises "churn over two shards"
    (Invalid_argument "Harness.run: churn needs a single shard") (fun () ->
      ignore
        (Replication.Shard_harness.run
           { (Harness.one_tree (churn [])) with Harness.shards = 2 }))

(* The four campaign scenarios on one config: fenced must be clean and
   must actually exercise failover, resume, promotion and decommission
   somewhere across the cells. *)
let test_campaign_single_config () =
  let cells =
    Churn.run ~n:13 ~configs:[ Arbitrary.Config.Arbitrary ] ()
  in
  Alcotest.(check int) "4 scenarios" 4 (List.length cells);
  Alcotest.(check int) "zero violations fenced" 0 (Churn.violations cells);
  let sum f =
    List.fold_left (fun acc c -> acc + f c.Churn.c_report) 0 cells
  in
  Alcotest.(check bool) "donor failover exercised" true
    (sum (fun r -> r.Harness.provision_donor_failovers) >= 1);
  Alcotest.(check bool) "resume exercised" true
    (sum (fun r -> r.Harness.provision_resumes) >= 1);
  Alcotest.(check bool) "promotions completed" true
    (sum (fun r -> r.Harness.promotions_done) >= 4);
  Alcotest.(check bool) "a decommission completed" true
    (sum (fun r -> r.Harness.decommissions_done) >= 1);
  Alcotest.(check int) "nothing stuck" 0
    (sum (fun r -> r.Harness.failed_rejoins));
  (* Recorded before the churn cell got its single builder. *)
  Alcotest.(check string) "pinned table" "d61913be9ee2114d98d6ffad8a16c6a8"
    (Digest.to_hex (Digest.string (Churn.table cells)))

(* The negative control must leak: unfenced provisioning over an async
   WAL under a total blackout produces stale reads the oracle catches.
   A silent negative control would mean the gate tests nothing. *)
let test_negative_control_leaks () =
  let cells =
    Churn.run_negative ~n:13 ~configs:[ Arbitrary.Config.Mostly_read ] ()
  in
  Alcotest.(check bool) "at least one violation" true
    (Churn.violations cells >= 1);
  Alcotest.(check string) "pinned table" "36a7669a0e870b27cb92aa49f625f20b"
    (Digest.to_hex (Digest.string (Churn.table cells)))

(* Provisioning must beat per-key catch-up by a wide margin on a cold
   rejoin; the bench gate requires 5x, the unit test just checks the
   comparison is sane and strongly in provisioning's favor. *)
let test_cold_rejoin_comparison () =
  let rj = Churn.cold_rejoin_comparison ~keys:1000 ~chunk_size:64 () in
  Alcotest.(check bool) "both paths finished" true
    (rj.Churn.rj_catchup_serving && rj.Churn.rj_provision_serving);
  Alcotest.(check int) "catch-up pays one round per key" 1000
    rj.Churn.rj_catchup_rounds;
  Alcotest.(check bool) "provisioning pays per chunk" true
    (rj.Churn.rj_provision_rounds <= (1000 / 64) + 3);
  Alcotest.(check bool) "speedup clears the gate" true
    (rj.Churn.rj_speedup >= 5.0)

let suite =
  [
    Alcotest.test_case "quiet run with spares" `Quick test_quiet_run;
    Alcotest.test_case "fenced decommission flow" `Quick
      test_decommission_flow;
    Alcotest.test_case "churn validation" `Quick test_churn_validation;
    Alcotest.test_case "campaign on one config" `Quick
      test_campaign_single_config;
    Alcotest.test_case "negative control leaks" `Quick
      test_negative_control_leaks;
    Alcotest.test_case "cold rejoin comparison" `Quick
      test_cold_rejoin_comparison;
  ]
