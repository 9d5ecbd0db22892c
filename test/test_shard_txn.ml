(* Cross-shard transactions: the 2PC all-prepared barrier must keep the
   increment-conservation invariant through per-shard crash schedules,
   and the non-atomic negative control must observably break it. *)

module Shard_txn_harness = Replication.Shard_txn_harness
module Shard_map = Arbitrary.Shard_map
module Consistency = Eval.Consistency
module Failure = Dsim.Failure

let proto () = Arbitrary.Quorums.protocol (Arbitrary.Tree.of_spec "1-3-5")

let n_sites = 9

let blackout ~shard ~from_ ~until =
  ( shard,
    List.init n_sites (fun s -> { Failure.time = from_; event = Failure.Crash s })
    @ List.init n_sites (fun s ->
          { Failure.time = until; event = Failure.Recover s }) )

let scenario ?(atomic = true) ?(seed = 42) ?(failures = []) ?(loss = []) () =
  {
    (Shard_txn_harness.default_scenario ~proto:(proto ()) ~shards:4) with
    atomic;
    seed;
    shard_failures = failures;
    shard_loss = loss;
    txns_per_client = 25;
  }

let test_healthy_commits_and_conserves () =
  let r = Shard_txn_harness.run (scenario ()) in
  (* Contention aborts are legitimate (shared-lock upgrade conflicts at
     commit), so not every transaction commits — but every one resolves,
     most commit, and conservation holds exactly. *)
  Alcotest.(check int) "every transaction resolves" (3 * 25)
    (r.Shard_txn_harness.committed + r.Shard_txn_harness.aborted);
  Alcotest.(check bool) "most transactions commit" true
    (r.Shard_txn_harness.committed > r.Shard_txn_harness.aborted);
  Alcotest.(check bool) "conservation holds" true
    r.Shard_txn_harness.conservation_ok;
  Alcotest.(check bool) "workload actually spans shards" true
    (r.Shard_txn_harness.cross_shard_txns > 0);
  Alcotest.(check int) "no partial commits under 2PC" 0
    r.Shard_txn_harness.partial_commits;
  let c = Consistency.check_conservation ~committed:r.committed_increments
      ~uncertain:r.uncertain_increments ~observed:r.observed_total in
  Alcotest.(check bool) "checker agrees" true (Consistency.conserved c)

let test_atomic_survives_shard_blackout () =
  (* One shard's replicas all crash mid-run: transactions touching it
     abort (or land in the in-doubt window), but nothing is partially
     applied, so conservation holds. *)
  let r =
    Shard_txn_harness.run
      (scenario ~failures:[ blackout ~shard:1 ~from_:30.0 ~until:400.0 ] ())
  in
  Alcotest.(check bool) "some transactions aborted" true
    (r.Shard_txn_harness.aborted > 0);
  Alcotest.(check int) "no partial commits under 2PC" 0
    r.Shard_txn_harness.partial_commits;
  Alcotest.(check bool) "conservation holds through the blackout" true
    r.Shard_txn_harness.conservation_ok;
  let c = Consistency.check_conservation ~committed:r.committed_increments
      ~uncertain:r.uncertain_increments ~observed:r.observed_total in
  Alcotest.(check bool) "checker agrees" true (Consistency.conserved c);
  Alcotest.(check int) "no phantoms" 0 c.Consistency.phantom_increments

let test_atomic_survives_lossy_shard () =
  (* One shard drops 30% of its messages: reads there sometimes succeed
     while prepare/commit legs fail, which is exactly the window where a
     broken barrier would apply transactions partially.  With 2PC intact
     the all-prepared barrier rolls the healthy legs back instead. *)
  let r = Shard_txn_harness.run (scenario ~loss:[ (1, 0.3) ] ()) in
  Alcotest.(check bool) "some transactions aborted" true
    (r.Shard_txn_harness.aborted > 0);
  Alcotest.(check int) "no partial commits under 2PC" 0
    r.Shard_txn_harness.partial_commits;
  Alcotest.(check bool) "conservation holds through the loss" true
    r.Shard_txn_harness.conservation_ok;
  let c = Consistency.check_conservation ~committed:r.committed_increments
      ~uncertain:r.uncertain_increments ~observed:r.observed_total in
  Alcotest.(check int) "no phantoms" 0 c.Consistency.phantom_increments

let test_nonatomic_negative_control () =
  (* Same lossy shard with the cross-shard barrier disabled: healthy
     shards' legs commit while the lossy shard's legs fail, so phantom
     increments appear and conservation is violated. *)
  let r = Shard_txn_harness.run (scenario ~atomic:false ~loss:[ (1, 0.3) ] ()) in
  Alcotest.(check bool) "partial commits happened" true
    (r.Shard_txn_harness.partial_commits > 0);
  Alcotest.(check bool) "conservation violated" false
    r.Shard_txn_harness.conservation_ok;
  let c = Consistency.check_conservation ~committed:r.committed_increments
      ~uncertain:r.uncertain_increments ~observed:r.observed_total in
  Alcotest.(check bool) "checker flags it" false (Consistency.conserved c);
  Alcotest.(check bool) "phantom increments detected" true
    (c.Consistency.phantom_increments > 0)

let test_nonatomic_healthy_is_silent () =
  (* The negative control only bites under failures: with every shard
     healthy, per-leg commits all succeed and conservation holds. *)
  let r = Shard_txn_harness.run (scenario ~atomic:false ()) in
  Alcotest.(check bool) "conservation holds" true
    r.Shard_txn_harness.conservation_ok;
  Alcotest.(check int) "no partial commits" 0 r.Shard_txn_harness.partial_commits

let test_deterministic () =
  let run () =
    let r =
      Shard_txn_harness.run
        (scenario ~seed:7 ~failures:[ blackout ~shard:2 ~from_:50.0 ~until:300.0 ] ())
    in
    ( r.Shard_txn_harness.committed,
      r.Shard_txn_harness.aborted,
      r.Shard_txn_harness.observed_total )
  in
  let a = run () and b = run () in
  Alcotest.(check (triple int int int)) "same seed, same outcome" a b

let test_validation () =
  List.iter
    (fun k ->
      Alcotest.check_raises
        (Printf.sprintf "keys_per_txn %d outside [1, key_space]" k)
        (Invalid_argument
           "Shard_txn_harness.run: keys_per_txn must be in [1, key_space]")
        (fun () ->
          ignore
            (Shard_txn_harness.run
               { (scenario ()) with Shard_txn_harness.keys_per_txn = k })))
    [ 99; 0 ]

let suite =
  [
    Alcotest.test_case "healthy cross-shard txns conserve" `Quick
      test_healthy_commits_and_conserves;
    Alcotest.test_case "2PC atomic through shard blackout" `Quick
      test_atomic_survives_shard_blackout;
    Alcotest.test_case "2PC atomic through lossy shard" `Quick
      test_atomic_survives_lossy_shard;
    Alcotest.test_case "non-atomic negative control violates" `Quick
      test_nonatomic_negative_control;
    Alcotest.test_case "non-atomic silent when healthy" `Quick
      test_nonatomic_healthy_is_silent;
    Alcotest.test_case "seeded cross-shard runs deterministic" `Quick
      test_deterministic;
    Alcotest.test_case "validation" `Quick test_validation;
  ]
