(* Cross-shard transactions: the 2PC all-prepared barrier must keep the
   increment-conservation invariant through per-shard crash schedules,
   and the non-atomic negative control must observably break it. *)

module Harness = Replication.Harness
module Shard_harness = Replication.Shard_harness
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

(* 3 clients x [txns] two-key increment transactions over 16 keys on 4
   hash shards; 50 transactions each is the atomicity cell of the shard
   benchmark. *)
let scenario ?(atomic = true) ?(seed = 42) ?(failures = []) ?(loss = [])
    ?(keys_per_txn = 2) ?(txns = 25) () =
  let base =
    {
      (Harness.txn_scenario ~proto:(proto ())) with
      Harness.ops_per_client = txns;
      key_space = 16;
      seed;
      txn = Some { Harness.keys_per_txn; atomic };
      shard_loss = loss;
    }
  in
  { (Harness.one_tree base) with shards = 4; shard_failures = failures }

let run sc = Option.get (Shard_harness.run sc).Shard_harness.agg.Harness.transactions

let test_healthy_commits_and_conserves () =
  let r = run (scenario ()) in
  (* Contention aborts are legitimate (shared-lock upgrade conflicts at
     commit), so not every transaction commits — but every one resolves,
     most commit, and conservation holds exactly. *)
  Alcotest.(check int) "every transaction resolves" (3 * 25)
    (r.Harness.committed + r.Harness.aborted);
  Alcotest.(check bool) "most transactions commit" true
    (r.Harness.committed > r.Harness.aborted);
  Alcotest.(check bool) "conservation holds" true
    r.Harness.conservation_ok;
  Alcotest.(check bool) "workload actually spans shards" true
    (r.Harness.cross_shard_txns > 0);
  Alcotest.(check int) "no partial commits under 2PC" 0
    r.Harness.partial_commits;
  let c = Consistency.check_conservation ~committed:r.committed_increments
      ~uncertain:r.uncertain_increments ~observed:r.observed_total in
  Alcotest.(check bool) "checker agrees" true (Consistency.conserved c)

let test_atomic_survives_shard_blackout () =
  (* One shard's replicas all crash mid-run: transactions touching it
     abort (or land in the in-doubt window), but nothing is partially
     applied, so conservation holds. *)
  let r =
    run
      (scenario ~failures:[ blackout ~shard:1 ~from_:30.0 ~until:400.0 ] ())
  in
  Alcotest.(check bool) "some transactions aborted" true
    (r.Harness.aborted > 0);
  Alcotest.(check int) "no partial commits under 2PC" 0
    r.Harness.partial_commits;
  Alcotest.(check bool) "conservation holds through the blackout" true
    r.Harness.conservation_ok;
  let c = Consistency.check_conservation ~committed:r.committed_increments
      ~uncertain:r.uncertain_increments ~observed:r.observed_total in
  Alcotest.(check bool) "checker agrees" true (Consistency.conserved c);
  Alcotest.(check int) "no phantoms" 0 c.Consistency.phantom_increments

let test_atomic_survives_lossy_shard () =
  (* One shard drops 30% of its messages: reads there sometimes succeed
     while prepare/commit legs fail, which is exactly the window where a
     broken barrier would apply transactions partially.  With 2PC intact
     the all-prepared barrier rolls the healthy legs back instead. *)
  let r = run (scenario ~loss:[ (1, 0.3) ] ()) in
  Alcotest.(check bool) "some transactions aborted" true
    (r.Harness.aborted > 0);
  Alcotest.(check int) "no partial commits under 2PC" 0
    r.Harness.partial_commits;
  Alcotest.(check bool) "conservation holds through the loss" true
    r.Harness.conservation_ok;
  let c = Consistency.check_conservation ~committed:r.committed_increments
      ~uncertain:r.uncertain_increments ~observed:r.observed_total in
  Alcotest.(check int) "no phantoms" 0 c.Consistency.phantom_increments

let test_nonatomic_negative_control () =
  (* Same lossy shard with the cross-shard barrier disabled: healthy
     shards' legs commit while the lossy shard's legs fail, so phantom
     increments appear and conservation is violated. *)
  let r = run (scenario ~atomic:false ~loss:[ (1, 0.3) ] ()) in
  Alcotest.(check bool) "partial commits happened" true
    (r.Harness.partial_commits > 0);
  Alcotest.(check bool) "conservation violated" false
    r.Harness.conservation_ok;
  let c = Consistency.check_conservation ~committed:r.committed_increments
      ~uncertain:r.uncertain_increments ~observed:r.observed_total in
  Alcotest.(check bool) "checker flags it" false (Consistency.conserved c);
  Alcotest.(check bool) "phantom increments detected" true
    (c.Consistency.phantom_increments > 0)

(* The shard benchmark's atomicity cell: the negative control must leak
   clearly (at least 3 phantom increments), the 2PC run not at all. *)
let test_benchmark_cell () =
  let conservation ~atomic =
    let r = run (scenario ~atomic ~txns:50 ~loss:[ (1, 0.3) ] ()) in
    Consistency.check_conservation ~committed:r.committed_increments
      ~uncertain:r.uncertain_increments ~observed:r.observed_total
  in
  let c = conservation ~atomic:false in
  Alcotest.(check bool) "negative control leaks >= 3 phantoms" true
    (c.Consistency.phantom_increments >= 3);
  let c = conservation ~atomic:true in
  Alcotest.(check int) "2PC: no phantoms" 0 c.Consistency.phantom_increments;
  Alcotest.(check int) "2PC: nothing lost" 0 c.Consistency.lost_increments

let test_nonatomic_healthy_is_silent () =
  (* The negative control only bites under failures: with every shard
     healthy, per-leg commits all succeed and conservation holds. *)
  let r = run (scenario ~atomic:false ()) in
  Alcotest.(check bool) "conservation holds" true
    r.Harness.conservation_ok;
  Alcotest.(check int) "no partial commits" 0 r.Harness.partial_commits

let test_deterministic () =
  let run () =
    let r =
      run
        (scenario ~seed:7 ~failures:[ blackout ~shard:2 ~from_:50.0 ~until:300.0 ] ())
    in
    ( r.Harness.committed,
      r.Harness.aborted,
      r.Harness.observed_total )
  in
  let a = run () and b = run () in
  Alcotest.(check (triple int int int)) "same seed, same outcome" a b

let test_validation () =
  List.iter
    (fun k ->
      Alcotest.check_raises
        (Printf.sprintf "keys_per_txn %d outside [1, key_space]" k)
        (Invalid_argument "Harness.run: keys_per_txn must be in [1, key_space]")
        (fun () -> ignore (run (scenario ~keys_per_txn:k ()))))
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
    Alcotest.test_case "benchmark cell: >= 3 phantoms vs none" `Quick
      test_benchmark_cell;
    Alcotest.test_case "non-atomic silent when healthy" `Quick
      test_nonatomic_healthy_is_silent;
    Alcotest.test_case "seeded cross-shard runs deterministic" `Quick
      test_deterministic;
    Alcotest.test_case "validation" `Quick test_validation;
  ]
