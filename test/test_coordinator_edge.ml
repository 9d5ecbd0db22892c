(* Edge cases for the coordinator: single-key and batched operations,
   forced-timestamp writes and held prepares. *)

module Engine = Dsim.Engine
module Network = Dsim.Network
module Coordinator = Replication.Coordinator
module Replica = Replication.Replica
module Timestamp = Replication.Timestamp
module Stats = Dsutil.Stats

let build ?(spec = "1-3-5") ?(seed = 42) ?(loss_rate = 0.0) ?config () =
  let tree = Arbitrary.Tree.of_spec spec in
  let proto = Arbitrary.Quorums.protocol tree in
  let n = Arbitrary.Tree.n tree in
  let engine = Engine.create ~seed () in
  let net = Network.create ~engine ~n:(n + 2) ~loss_rate () in
  let replicas = Array.init n (fun site -> Replica.create ~site ~net ()) in
  let coord = Coordinator.create ~site:n ~net ~proto ?config () in
  (* A second coordinator on the default config, as state transfer and
     transactions use one. *)
  let other = Coordinator.create ~site:(n + 1) ~net ~proto () in
  (engine, net, replicas, coord, other)

let test_single_replica_system () =
  let engine, net, _, coord, _ = build ~spec:"1" () in
  let wrote = ref None and read = ref None in
  Coordinator.write coord ~key:0 ~value:"solo" (fun r ->
      wrote := r;
      Coordinator.read coord ~key:0 (fun r -> read := r));
  Engine.run engine;
  Alcotest.(check bool) "write ok" true (!wrote <> None);
  (match !read with
  | Some { Coordinator.value; _ } -> Alcotest.(check string) "value" "solo" value
  | None -> Alcotest.fail "read failed");
  (* The sole replica down: everything fails. *)
  Network.crash net 0;
  let failed = ref false in
  Coordinator.read coord ~key:0 (fun r -> failed := r = None);
  Engine.run engine;
  Alcotest.(check bool) "read fails" true !failed

let test_write_survives_message_loss () =
  (* 20% loss: per-phase timeouts retry with fresh quorums and commit
     resends absorb lost commit messages.  Several seeds for robustness. *)
  let ok = ref 0 in
  List.iter
    (fun seed ->
      let engine, _, _, coord, _ =
        build ~loss_rate:0.2 ~seed
          ~config:{ Coordinator.default_config with max_retries = 15 } ()
      in
      Coordinator.write coord ~key:1 ~value:"lossy" (fun r ->
          if r <> None then incr ok);
      Engine.run engine)
    [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check bool)
    (Printf.sprintf "lossy writes succeed with retry budget (%d/6)" !ok)
    true (!ok >= 5)

let test_op_succeeds_after_partition_heals () =
  let engine, net, _, coord, _ = build () in
  (* Separate the coordinator from level 1 so the first attempts fail; heal
     before the retry budget runs out. *)
  Network.partition net [ [ 8; 3; 4; 5; 6; 7 ]; [ 0; 1; 2 ] ];
  Engine.schedule engine ~delay:30.0 (fun () -> Network.heal net);
  let result = ref None in
  Coordinator.read coord ~key:0 (fun r -> result := r);
  Engine.run engine;
  Alcotest.(check bool) "read eventually succeeds" true (!result <> None);
  Alcotest.(check bool) "retries were needed" true
    (Coordinator.count coord "coord.retries" >= 1)

let test_latency_stats_recorded () =
  let engine, _, _, coord, _ = build () in
  for i = 0 to 4 do
    Coordinator.write coord ~key:i ~value:"x" (fun _ -> ())
  done;
  Engine.run engine;
  Alcotest.(check int) "five writes measured" 5
    (Stats.count (Coordinator.write_latency coord));
  Alcotest.(check bool) "positive latency" true
    (Stats.mean (Coordinator.write_latency coord) > 0.0);
  Alcotest.(check int) "no read latencies" 0
    (Stats.count (Coordinator.read_latency coord))

let test_concurrent_ops_different_keys () =
  let engine, _, _, coord, _ = build () in
  let done_count = ref 0 in
  for i = 0 to 9 do
    Coordinator.write coord ~key:i ~value:(string_of_int i) (fun r ->
        if r <> None then incr done_count)
  done;
  Engine.run engine;
  Alcotest.(check int) "all ten writes complete" 10 !done_count;
  let read_back = ref 0 in
  for i = 0 to 9 do
    Coordinator.read coord ~key:i (fun r ->
        match r with
        | Some { Coordinator.value; _ } when value = string_of_int i ->
          incr read_back
        | _ -> ())
  done;
  Engine.run engine;
  Alcotest.(check int) "all values correct" 10 !read_back

(* Regression: caller-level re-issues must never deposit into the shared
   retry budget.  Every operation entry used to deposit unconditionally,
   so a storm of re-issued failures earned back the very tokens its
   internal retries spent — the budget never reached sustained
   suppression.  With [~retry:true] the deposit is skipped: a storm with
   zero genuine first attempts drains the bucket once and stays drained. *)
let test_reissue_storm_cannot_refill_budget () =
  let tree = Arbitrary.Tree.of_spec "1-3-5" in
  let proto = Arbitrary.Quorums.protocol tree in
  let n = Arbitrary.Tree.n tree in
  let engine = Engine.create ~seed:9 () in
  let net = Network.create ~engine ~n:(n + 1) () in
  let _replicas = Array.init n (fun site -> Replica.create ~site ~net ()) in
  let budget =
    Detect.Budget.create ~config:{ Detect.Budget.ratio = 0.5; burst = 3.0 } ()
  in
  let coord =
    Coordinator.create ~site:n ~net ~proto ~budget
      ~config:
        { Coordinator.default_config with max_retries = 5; timeout = 5.0 }
      ()
  in
  (* Every replica down: each re-issue can only fail, retrying until the
     budget refuses. *)
  for site = 0 to n - 1 do
    Network.crash net site
  done;
  let failures = ref 0 in
  for i = 0 to 19 do
    Coordinator.write coord ~retry:true ~key:(i mod 4) ~value:"storm"
      (fun r -> if r = None then incr failures)
  done;
  Engine.run engine;
  Alcotest.(check int) "every re-issue failed" 20 !failures;
  Alcotest.(check int) "zero first attempts recorded" 0
    (Detect.Budget.attempts budget);
  Alcotest.(check int) "only the initial burst was granted" 3
    (Detect.Budget.granted budget);
  Alcotest.(check bool) "bucket drained for good" true
    (Detect.Budget.tokens budget < 1.0);
  Alcotest.(check bool) "suppression is sustained" true
    (Coordinator.count coord "coord.retries_suppressed" >= 17);
  (* A second wave meets the same wall: no grants, only suppression. *)
  let suppressed_before = Detect.Budget.suppressed budget in
  for i = 0 to 9 do
    Coordinator.write coord ~retry:true ~key:(i mod 4) ~value:"storm2"
      (fun _ -> ())
  done;
  Engine.run engine;
  Alcotest.(check int) "still only the initial burst" 3
    (Detect.Budget.granted budget);
  Alcotest.(check bool) "second wave only suppressed" true
    (Detect.Budget.suppressed budget > suppressed_before)

let test_rpc_retry_flag_skips_deposit () =
  (* A single read: [~retry:true] leaves the bucket untouched while a
     plain call deposits. *)
  let tree = Arbitrary.Tree.of_spec "1-3" in
  let proto = Arbitrary.Quorums.protocol tree in
  let n = Arbitrary.Tree.n tree in
  let engine = Engine.create ~seed:4 () in
  let net = Network.create ~engine ~n:(n + 1) () in
  let _replicas = Array.init n (fun site -> Replica.create ~site ~net ()) in
  let budget =
    Detect.Budget.create ~config:{ Detect.Budget.ratio = 0.5; burst = 2.0 } ()
  in
  let coord = Coordinator.create ~site:n ~net ~proto ~budget () in
  Coordinator.read coord ~retry:true ~key:0 (fun _ -> ());
  Engine.run engine;
  Alcotest.(check int) "re-issue deposits nothing" 0
    (Detect.Budget.attempts budget);
  Coordinator.read coord ~key:0 (fun _ -> ());
  Engine.run engine;
  Alcotest.(check int) "first attempt deposits" 1
    (Detect.Budget.attempts budget)

let test_rpc_query_no_quorum () =
  let engine, net, _, _, other = build () in
  List.iter (Network.crash net) [ 0; 1; 2 ];
  let result = ref (Some { Coordinator.value = "unset"; ts = Timestamp.zero; attempts = 0 }) in
  Coordinator.read other ~key:0 (fun r -> result := r);
  Engine.run engine;
  Alcotest.(check bool) "None without read quorum" true (!result = None)

let test_rpc_forced_ts_idempotent () =
  let engine, _, replicas, _, other = build () in
  let ts = Timestamp.make ~version:5 ~sid:2 in
  let first = ref None and second = ref None in
  Coordinator.write other ~key:3 ~ts ~value:"once" (fun r ->
      first := r;
      Coordinator.write other ~key:3 ~ts ~value:"once" (fun r -> second := r));
  Engine.run engine;
  Alcotest.(check bool) "both writes acknowledged" true
    (!first <> None && !second <> None);
  (* Same timestamp: applied at most once per replica. *)
  let applied =
    Array.fold_left (fun acc r -> acc + Replica.count r "replica.writes_applied") 0 replicas
  in
  Alcotest.(check bool) "no double apply" true (applied <= 8)

(* Hold a prepare of [writes], given as (key, value) pairs. *)
let prepare coord writes k =
  let keys = Array.of_list (List.map fst writes) in
  let values = Array.of_list (List.map snd writes) in
  Coordinator.prepare_batch coord ~keys ~values ~pos:0 ~len:(Array.length keys) k

let test_rpc_commit_incomplete_on_crash () =
  let engine, net, _, _, other = build ~spec:"2-2" () in
  (* With spec 2-2 both levels have 2 replicas; the write quorum is one
     full level.  Hold a prepare, then crash one replica of each level
     before the commit round: whichever level holds it, one member is
     down and the other still acks. *)
  let outcome = ref None in
  prepare other [ (0, "v") ] (function
    | Error _ -> Alcotest.fail "prepare must succeed"
    | Ok staged ->
      List.iter (Network.crash net) [ 0; 2 ];
      Coordinator.commit_staged other staged (fun ok -> outcome := Some ok));
  Engine.run engine;
  Alcotest.(check bool) "commit reported incomplete" true (!outcome = Some false)

(* A held prepare over two keys: committing it installs both and counts
   both as written, once; the spent handle is refused, also while its
   pooled record holds the next prepare. *)
let test_held_prepare_commits () =
  let engine, _, _, coord, _ = build () in
  let committed = ref None and staged = ref None in
  prepare coord [ (1, "a"); (2, "b") ] (function
    | Error _ -> Alcotest.fail "prepare must succeed"
    | Ok h ->
      staged := Some h;
      Alcotest.(check int) "nothing counted while held" 0
        (Coordinator.count coord "coord.writes.ok");
      Coordinator.commit_staged coord h (fun ok -> committed := Some ok));
  Engine.run engine;
  Alcotest.(check (option bool)) "commit acknowledged" (Some true) !committed;
  Alcotest.(check int) "both keys written" 2 (Coordinator.count coord "coord.writes.ok");
  Alcotest.(check int) "one batch" 1 (Coordinator.count coord "coord.batches");
  let values = ref [] in
  Coordinator.read_batch coord ~keys:[| 1; 2 |] ~pos:0 ~len:2 (fun o ->
      values :=
        List.init (Coordinator.outcome_length o) (fun i ->
            if Coordinator.outcome_ok o then Some (Coordinator.outcome_value o i)
            else None));
  Engine.run engine;
  Alcotest.(check (list (option string))) "installed" [ Some "a"; Some "b" ] !values;
  Alcotest.check_raises "a spent handle is refused"
    (Invalid_argument "Coordinator.commit_staged: not a held prepare") (fun () ->
      Coordinator.commit_staged coord (Option.get !staged) ignore);
  let next = ref None in
  prepare coord [ (3, "c") ] (function
    | Error _ -> Alcotest.fail "prepare must succeed"
    | Ok h -> next := Some h);
  Engine.run engine;
  Alcotest.check_raises "a spent handle is refused beside a new hold"
    (Invalid_argument "Coordinator.abort_staged: not a held prepare") (fun () ->
      Coordinator.abort_staged coord (Option.get !staged));
  let committed = ref None in
  Coordinator.commit_staged coord (Option.get !next) (fun ok -> committed := Some ok);
  Engine.run engine;
  Alcotest.(check (option bool)) "the new hold still commits" (Some true) !committed

(* An aborted held prepare installs nothing, counts as failed writes and
   closes its spans failed: it never reads as a successful write. *)
let test_held_prepare_aborts () =
  let tree = Arbitrary.Tree.of_spec "1-3-5" in
  let proto = Arbitrary.Quorums.protocol tree in
  let n = Arbitrary.Tree.n tree in
  let engine = Engine.create ~seed:42 () in
  let net = Network.create ~engine ~n:(n + 1) () in
  let _replicas = Array.init n (fun site -> Replica.create ~site ~net ()) in
  let obs = Obs.create () in
  let coord = Coordinator.create ~site:n ~net ~proto ~obs () in
  prepare coord [ (1, "a"); (2, "b") ] (function
    | Error _ -> Alcotest.fail "prepare must succeed"
    | Ok h -> Coordinator.abort_staged coord h);
  Engine.run engine;
  let m = Obs.metrics obs in
  Alcotest.(check int) "no write counted ok" 0
    (Coordinator.count coord "coord.writes.ok");
  Alcotest.(check int) "both keys failed" 2
    (Coordinator.count coord "coord.writes.failed");
  Alcotest.(check int) "no span closed ok" 0 (Obs.Metrics.counter_of m "ops.write.ok");
  Alcotest.(check int) "both spans closed failed" 2
    (Obs.Metrics.counter_of m "ops.write.failed");
  let value = ref None in
  Coordinator.read coord ~key:1 (fun r -> value := Option.map (fun r -> r.Coordinator.value) r);
  Engine.run engine;
  Alcotest.(check (option string)) "nothing installed" (Some "") !value

let test_set_protocol_validation () =
  let _, _, _, coord, _ = build () in
  let other = Arbitrary.Quorums.protocol (Arbitrary.Tree.of_spec "1-2-3") in
  Alcotest.check_raises "coordinator rejects size change"
    (Invalid_argument "Coordinator.set_protocol: replica universe changed")
    (fun () -> Coordinator.set_protocol coord other)

let suite =
  [
    Alcotest.test_case "single-replica system" `Quick test_single_replica_system;
    Alcotest.test_case "write survives message loss" `Quick
      test_write_survives_message_loss;
    Alcotest.test_case "op succeeds after partition heals" `Quick
      test_op_succeeds_after_partition_heals;
    Alcotest.test_case "latency stats recorded" `Quick test_latency_stats_recorded;
    Alcotest.test_case "concurrent ops on different keys" `Quick
      test_concurrent_ops_different_keys;
    Alcotest.test_case "re-issue storm cannot refill budget" `Quick
      test_reissue_storm_cannot_refill_budget;
    Alcotest.test_case "rpc retry flag skips deposit" `Quick
      test_rpc_retry_flag_skips_deposit;
    Alcotest.test_case "rpc query without quorum" `Quick test_rpc_query_no_quorum;
    Alcotest.test_case "rpc forced-ts idempotence" `Quick
      test_rpc_forced_ts_idempotent;
    Alcotest.test_case "rpc commit incomplete on crash" `Quick
      test_rpc_commit_incomplete_on_crash;
    Alcotest.test_case "held prepare commits" `Quick test_held_prepare_commits;
    Alcotest.test_case "held prepare aborts" `Quick test_held_prepare_aborts;
    Alcotest.test_case "set_protocol validation" `Quick test_set_protocol_validation;
  ]
