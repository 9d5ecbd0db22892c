(* Transaction clients of the harness core on one tree: increment
   transactions under strict 2PL and 2PC conserve the counter total. *)

module Harness = Replication.Harness
module Shard_harness = Replication.Shard_harness

let proto_of n = Arbitrary.Quorums.protocol (Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n)

let scenario () = Harness.txn_scenario ~proto:(proto_of 24)
let run s = Option.get (Harness.run s).Harness.transactions
let with_keys s keys_per_txn = { s with Harness.txn = Some { Harness.keys_per_txn; atomic = true } }

let test_happy_path () =
  let r = run (scenario ()) in
  Alcotest.(check bool) "conservation" true r.Harness.conservation_ok;
  Alcotest.(check bool) "most transactions commit" true (r.Harness.committed > 0);
  Alcotest.(check int) "every txn accounted" 90 (r.Harness.committed + r.Harness.aborted);
  (* Failure-free: nothing in doubt and the observed total is exact. *)
  Alcotest.(check int) "no in-doubt" 0 r.Harness.uncertain;
  Alcotest.(check int) "totals exact" r.Harness.committed_increments r.Harness.observed_total

let test_determinism () =
  let s = scenario () in
  let r1 = run s and r2 = run s in
  Alcotest.(check int) "same commits" r1.Harness.committed r2.Harness.committed;
  Alcotest.(check int) "same observed" r1.Harness.observed_total r2.Harness.observed_total

let churn ~seed =
  let rng = Dsutil.Rng.create seed in
  { (scenario ()) with
    Harness.failures =
      Dsim.Failure.random_crash_recovery ~rng ~n:24 ~horizon:400.0 ~mtbf:150.0 ~mttr:40.0;
    loss_rate = 0.02;
    n_clients = 4;
    seed;
  }

let test_conservation_under_churn () =
  List.iter
    (fun seed ->
      let r = run (churn ~seed) in
      Alcotest.(check bool)
        (Printf.sprintf "conservation under churn (seed %d)" seed)
        true r.Harness.conservation_ok;
      Alcotest.(check int) "all terminate" 120 (r.Harness.committed + r.Harness.aborted))
    [ 1; 2; 3; 4; 5 ]

let test_single_key_txns () =
  let r = run (with_keys (scenario ()) 1) in
  Alcotest.(check bool) "conservation" true r.Harness.conservation_ok

let test_wide_txns () =
  let r = run { (with_keys (scenario ()) 4) with Harness.n_clients = 2 } in
  Alcotest.(check bool) "conservation" true r.Harness.conservation_ok

let test_validation () =
  List.iter
    (fun k ->
      Alcotest.check_raises
        (Printf.sprintf "keys_per_txn %d outside [1, key_space]" k)
        (Invalid_argument "Harness.run: keys_per_txn must be in [1, key_space]")
        (fun () -> ignore (run (with_keys (scenario ()) k))))
    [ 99; 0 ];
  Alcotest.check_raises "transactions exclude batching"
    (Invalid_argument "Harness.run: transactions and batching exclude each other")
    (fun () ->
      ignore
        (run
           {
             (scenario ()) with
             Harness.batching =
               Some { Harness.batch_size = 4; group_commit = false; pipeline = 1 };
           }))

(* Transaction clients drive ordinary coordinators, so their read and
   write spans feed the regularity checker like any client's. *)
let test_spans_regular () =
  let s = { (churn ~seed:2) with Harness.check_consistency = true } in
  let r = Harness.run s in
  Alcotest.(check bool) "spans collected" true (r.Harness.spans <> []);
  Alcotest.(check int) "no regularity violation" 0
    (List.length (Eval.Consistency.check r.Harness.spans).Eval.Consistency.violations);
  Alcotest.(check bool) "conservation" true
    (Option.get r.Harness.transactions).Harness.conservation_ok

(* Transaction clients run in the one harness loop: the plain run and the
   sharded core at S = 1 agree, and both are pinned. *)
let test_shared_loop_pinned () =
  let fp (r : Harness.report) =
    let t = Option.get r.Harness.transactions in
    Printf.sprintf "%d/%d/%d/%d/%d/%d/%b/%h" t.committed t.aborted t.uncertain
      t.committed_increments t.uncertain_increments t.observed_total t.conservation_ok
      r.Harness.duration
  in
  List.iter
    (fun (what, s, pinned) ->
      let r = Harness.run s in
      Alcotest.(check string) (what ^ ": pinned") pinned (fp r);
      Alcotest.(check string) (what ^ ": shared loop") (fp r)
        (fp (Shard_harness.run (Harness.one_tree s)).Shard_harness.agg))
    [
      ("failure-free", scenario (), "61/29/0/122/0/122/true/0x1.86ap+16");
      ("crash/recovery", churn ~seed:3, "4/116/0/8/0/8/true/0x1.86ap+16");
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
    Alcotest.test_case "spans pass the regularity checker" `Quick test_spans_regular;
  ]
