module Txn_harness = Replication.Txn_harness

let proto_of n = Arbitrary.Quorums.protocol (Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n)

let test_happy_path () =
  let s = Txn_harness.default_scenario ~proto:(proto_of 24) in
  let r = Txn_harness.run s in
  Alcotest.(check bool) "conservation" true r.Txn_harness.conservation_ok;
  Alcotest.(check bool) "most transactions commit" true (r.Txn_harness.committed > 0);
  Alcotest.(check int) "every txn accounted" 90
    (r.Txn_harness.committed + r.Txn_harness.aborted);
  (* Failure-free: nothing in doubt and the observed total is exact. *)
  Alcotest.(check int) "no in-doubt" 0 r.Txn_harness.uncertain;
  Alcotest.(check int) "totals exact" r.Txn_harness.committed_increments
    r.Txn_harness.observed_total

let test_determinism () =
  let s = Txn_harness.default_scenario ~proto:(proto_of 24) in
  let r1 = Txn_harness.run s and r2 = Txn_harness.run s in
  Alcotest.(check int) "same commits" r1.Txn_harness.committed r2.Txn_harness.committed;
  Alcotest.(check int) "same observed" r1.Txn_harness.observed_total
    r2.Txn_harness.observed_total

let test_conservation_under_churn () =
  let s = Txn_harness.default_scenario ~proto:(proto_of 24) in
  List.iter
    (fun seed ->
      let rng = Dsutil.Rng.create seed in
      let failures =
        Dsim.Failure.random_crash_recovery ~rng ~n:24 ~horizon:400.0 ~mtbf:150.0
          ~mttr:40.0
      in
      let r =
        Txn_harness.run
          {
            s with
            Txn_harness.shard_failures = [ (0, failures) ];
            loss_rate = 0.02;
            n_clients = 4;
            seed;
          }
      in
      Alcotest.(check bool)
        (Printf.sprintf "conservation under churn (seed %d)" seed)
        true r.Txn_harness.conservation_ok;
      Alcotest.(check int) "all terminate" 120
        (r.Txn_harness.committed + r.Txn_harness.aborted))
    [ 1; 2; 3; 4; 5 ]

let test_single_key_txns () =
  let s = Txn_harness.default_scenario ~proto:(proto_of 24) in
  let r = Txn_harness.run { s with Txn_harness.keys_per_txn = 1 } in
  Alcotest.(check bool) "conservation" true r.Txn_harness.conservation_ok

let test_wide_txns () =
  let s = Txn_harness.default_scenario ~proto:(proto_of 24) in
  let r =
    Txn_harness.run { s with Txn_harness.keys_per_txn = 4; n_clients = 2 }
  in
  Alcotest.(check bool) "conservation" true r.Txn_harness.conservation_ok

let test_validation () =
  let s = Txn_harness.default_scenario ~proto:(proto_of 24) in
  List.iter
    (fun k ->
      Alcotest.check_raises
        (Printf.sprintf "keys_per_txn %d outside [1, key_space]" k)
        (Invalid_argument "Txn_harness.run: keys_per_txn must be in [1, key_space]")
        (fun () -> ignore (Txn_harness.run { s with Txn_harness.keys_per_txn = k })))
    [ 99; 0 ]

(* [run] is the shared transaction loop with a shuffle picker.  The
   pinned tallies were recorded before the two transaction harnesses were
   merged; a lossy run may differ since the tally now turns loss off. *)
let test_shared_loop_pinned () =
  let s = Txn_harness.default_scenario ~proto:(proto_of 24) in
  let fp (r : Txn_harness.report) =
    Printf.sprintf "%d/%d/%d/%d/%d/%d/%b/%h" r.committed r.aborted r.uncertain
      r.committed_increments r.uncertain_increments r.observed_total r.conservation_ok
      r.duration
  in
  let shuffle (s : Txn_harness.scenario) rng _ =
    let keys = Array.init s.key_space Fun.id in
    Dsutil.Rng.shuffle rng keys;
    Array.to_list (Array.sub keys 0 s.keys_per_txn)
  in
  let failures =
    Dsim.Failure.random_crash_recovery ~rng:(Dsutil.Rng.create 3) ~n:24 ~horizon:400.0
      ~mtbf:150.0 ~mttr:40.0
  in
  List.iter
    (fun (what, s, pinned) ->
      let r = Txn_harness.run s in
      Alcotest.(check string) (what ^ ": pinned") pinned (fp r);
      Alcotest.(check string) (what ^ ": shared loop") (fp r)
        (fp (Txn_harness.run_with ~pick:(shuffle s) s)))
    [
      ("failure-free", s, "55/35/0/110/0/110/true/0x1.86b9p+16");
      ( "crash/recovery",
        { s with shard_failures = [ (0, failures) ]; n_clients = 4; seed = 3 },
        "8/112/1/16/2/18/true/0x1.86b9p+16" );
    ]

let suite =
  [
    Alcotest.test_case "happy path conservation" `Quick test_happy_path;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "conservation under churn" `Slow
      test_conservation_under_churn;
    Alcotest.test_case "single-key transactions" `Quick test_single_key_txns;
    Alcotest.test_case "wide transactions" `Quick test_wide_txns;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "the shared loop, pinned" `Quick test_shared_loop_pinned;
  ]
