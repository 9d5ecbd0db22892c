(* The batching execution layer: multi-key quorum rounds, batched 2PC,
   WAL group commit, message coalescing and the pipelined client loop —
   plus the determinism contracts (batch size 1 is byte-identical to
   unbatched; batched runs are reproducible per seed; group commit under
   amnesia churn stays consistent). *)

module Engine = Dsim.Engine
module Network = Dsim.Network
module Coordinator = Replication.Coordinator
module Replica = Replication.Replica
module Harness = Replication.Harness
module Timestamp = Replication.Timestamp
module Wal = Replication.Wal
module Batching = Eval.Batching
module Consistency = Eval.Consistency
module Rng = Dsutil.Rng

(* --- coordinator-level batch semantics ---------------------------------- *)

let setup ?(spec = "1-3-5") ?(seed = 42) () =
  let tree = Arbitrary.Tree.of_spec spec in
  let proto = Arbitrary.Quorums.protocol tree in
  let n = Arbitrary.Tree.n tree in
  let engine = Engine.create ~seed () in
  let net = Network.create ~engine ~n:(n + 1) () in
  let _replicas = Array.init n (fun site -> Replica.create ~site ~net ()) in
  let coord = Coordinator.create ~site:n ~net ~proto () in
  (engine, net, coord, n)

(* Issue a batch over a whole key (and value) array. *)
let read_batch coord keys k =
  let keys = Array.of_list keys in
  Coordinator.read_batch coord ~keys ~pos:0 ~len:(Array.length keys) k

let write_batch coord writes k =
  let keys = Array.of_list (List.map fst writes) in
  let values = Array.of_list (List.map snd writes) in
  Coordinator.write_batch coord ~keys ~values ~pos:0 ~len:(Array.length keys) k

(* An outcome's positions, copied out while its callback runs: the
   timestamp and value of each, or [None] for a failed batch. *)
let positions o =
  List.init (Coordinator.outcome_length o) (fun i ->
      if Coordinator.outcome_ok o then
        Some
          ( Timestamp.make ~version:(Coordinator.outcome_version o i)
              ~sid:(Coordinator.outcome_sid o i),
            Coordinator.outcome_value o i )
      else None)

let test_write_batch_then_read_batch () =
  let engine, _, coord, _ = setup () in
  let writes = [ (0, "a"); (1, "b"); (2, "c"); (3, "d") ] in
  let wrote = ref [] in
  write_batch coord writes (fun o -> wrote := positions o);
  Engine.run engine;
  Alcotest.(check int) "every key acked" 4 (List.length !wrote);
  List.iter (fun r -> Alcotest.(check bool) "committed" true (r <> None)) !wrote;
  let read = ref [] in
  read_batch coord [ 0; 1; 2; 3 ] (fun o -> read := positions o);
  Engine.run engine;
  List.iter2
    (fun (_, v) r ->
      match r with
      | Some (_, value) ->
        Alcotest.(check string) "batched read returns the write in request order"
          v value
      | None -> Alcotest.fail "batched read failed")
    writes !read;
  Alcotest.(check int) "per-key read accounting" 4 (Coordinator.reads_ok coord);
  Alcotest.(check int) "per-key write accounting" 4 (Coordinator.writes_ok coord);
  Alcotest.(check int) "two multi-key batches" 2 (Coordinator.batches coord)

let test_duplicate_key_last_writer_wins () =
  let engine, _, coord, _ = setup () in
  let result = ref [] in
  write_batch coord [ (5, "first"); (6, "x"); (5, "second") ] (fun o ->
      result := positions o);
  Engine.run engine;
  (match !result with
  | [ Some (ts1, _); Some _; Some (ts2, _) ] ->
    Alcotest.(check bool) "later occurrence stamped newer" true
      (Timestamp.newer_than ts2 ts1)
  | _ -> Alcotest.fail "unexpected result shape");
  let got = ref None in
  Coordinator.read coord ~key:5 (fun r -> got := r);
  Engine.run engine;
  match !got with
  | Some { Coordinator.value; _ } ->
    Alcotest.(check string) "last writer wins within the batch" "second" value
  | None -> Alcotest.fail "read failed"

let test_batch_failure_reports_every_key () =
  let engine, net, coord, n = setup () in
  for site = 0 to n - 1 do
    Network.crash net site
  done;
  let wrote = ref [] and read = ref [] in
  write_batch coord [ (0, "x"); (1, "y") ] (fun o -> wrote := positions o);
  read_batch coord [ 2; 3; 4 ] (fun o -> read := positions o);
  Engine.run engine;
  Alcotest.(check int) "write batch reports every key" 2 (List.length !wrote);
  List.iter (fun r -> Alcotest.(check bool) "write key failed" true (r = None)) !wrote;
  Alcotest.(check int) "read batch reports every key" 3 (List.length !read);
  List.iter (fun r -> Alcotest.(check bool) "read key failed" true (r = None)) !read;
  Alcotest.(check int) "per-key failure accounting" 3 (Coordinator.reads_failed coord);
  Alcotest.(check int) "per-key write failures" 2 (Coordinator.writes_failed coord)

let test_singleton_and_empty_batches_delegate () =
  let engine, _, coord, _ = setup () in
  let empty = ref None and single = ref [] in
  read_batch coord [] (fun o -> empty := Some (positions o));
  Alcotest.(check bool) "empty batch answers synchronously" true
    (!empty = Some []);
  write_batch coord [ (7, "solo") ] (fun o -> single := positions o);
  Engine.run engine;
  (match !single with
  | [ Some _ ] -> ()
  | _ -> Alcotest.fail "singleton write did not delegate cleanly");
  Alcotest.(check int) "singleton is not counted as a batch" 0
    (Coordinator.batches coord);
  Alcotest.(check int) "but is a plain write" 1 (Coordinator.writes_ok coord)

(* --- harness-level determinism and throughput --------------------------- *)

let test_batch1_byte_identical_to_unbatched () =
  let plain, batch1 =
    Batching.pair ~knobs:Batching.identity_knobs
      ~name:Arbitrary.Config.Arbitrary ~n:9 ~ops:120 ~seed:3 ()
  in
  Alcotest.(check string) "batch=1/pipeline=1 fingerprint"
    (Batching.fingerprint (Harness.run plain))
    (Batching.fingerprint (Harness.run batch1))

let test_batched_run_deterministic () =
  let _, batched =
    Batching.pair ~name:Arbitrary.Config.Arbitrary ~n:9 ~ops:160 ~seed:11 ()
  in
  Alcotest.(check string) "same seed, same batched run"
    (Batching.fingerprint (Harness.run batched))
    (Batching.fingerprint (Harness.run batched))

let test_batching_reduces_messages () =
  let plain, batched =
    Batching.pair ~name:Arbitrary.Config.Arbitrary ~n:9 ~ops:200 ~seed:5 ()
  in
  let r_u = Harness.run plain and r_b = Harness.run batched in
  let total r = r.Harness.reads_ok + r.Harness.writes_ok in
  Alcotest.(check int) "unbatched completes everything" 200 (total r_u);
  Alcotest.(check int) "batched completes everything" 200 (total r_b);
  Alcotest.(check int) "no safety violations" 0
    (r_u.Harness.safety_violations + r_b.Harness.safety_violations);
  Alcotest.(check bool) "multi-key batches executed" true
    (r_b.Harness.batches > 0);
  Alcotest.(check bool) "envelopes coalesced per-op messages" true
    (r_b.Harness.coalesced_ops > 0);
  Alcotest.(check bool)
    (Printf.sprintf "messages per op %.1f -> %.1f (want < half)"
       (Harness.messages_per_op r_u)
       (Harness.messages_per_op r_b))
    true
    (Harness.messages_per_op r_b < Harness.messages_per_op r_u /. 2.0)

(* Satellite gate: group commit under Sync_on_prepare with amnesia
   crashes landing mid-batch — staged batches must replay (or vanish)
   atomically enough that no read ever observes a regression. *)
let test_group_commit_amnesia_consistent () =
  let proto =
    Eval.Config_metrics.protocol_of Arbitrary.Config.Arbitrary ~n:9
  in
  let s = Harness.default_scenario ~proto in
  let failures =
    Dsim.Failure.random_crash_recovery ~rng:(Rng.create 21) ~n:9
      ~horizon:2500.0 ~mtbf:150.0 ~mttr:40.0
  in
  let run group_commit =
    Harness.run
      {
        s with
        Harness.n_clients = 2;
        ops_per_client = 24;
        think_time = 3.0;
        seed = 21;
        failures;
        horizon = 3000.0;
        warmup = 1.0;
        crash_mode = Dsim.Network.Amnesia;
        wal = Wal.Sync_on_prepare;
        check_consistency = true;
        batching = Some { Harness.batch_size = 8; group_commit; pipeline = 2 };
      }
  in
  let grouped = run true in
  Alcotest.(check int) "no safety violations" 0
    grouped.Harness.safety_violations;
  let c = Consistency.check grouped.Harness.spans in
  Alcotest.(check bool) "trace-checker finds no violation" true
    (Consistency.ok c);
  Alcotest.(check bool) "batches survived the churn" true
    (grouped.Harness.batches > 0);
  Alcotest.(check bool) "group commit syncs charged" true
    (grouped.Harness.wal_syncs > 0);
  let plain = run false in
  Alcotest.(check int) "consistent without group commit too" 0
    plain.Harness.safety_violations;
  Alcotest.(check bool) "grouping never costs extra syncs" true
    (grouped.Harness.wal_syncs <= plain.Harness.wal_syncs)

(* Regression: a batch pairs its spans with key occurrences by position.
   Looking them up by key closed the first span of a repeated key twice and
   left the others open (41 of 512 here). *)
let test_repeated_keys_close_every_span () =
  let proto =
    Eval.Config_metrics.protocol_of Arbitrary.Config.Arbitrary ~n:9
  in
  let obs = Obs.create () in
  let mem = Obs.Sink.memory () in
  Obs.add_sink obs (Obs.Sink.memory_sink mem);
  let r =
    Harness.run ~obs
      {
        (Harness.default_scenario ~proto) with
        Harness.n_clients = 8;
        ops_per_client = 64;
        key_space = 16;
        use_locks = false;
        batching =
          Some { Harness.batch_size = 8; group_commit = true; pipeline = 1 };
      }
  in
  Alcotest.(check int) "every op completed" 512
    (r.Harness.reads_ok + r.Harness.writes_ok);
  Alcotest.(check bool) "multi-key batches ran" true (r.Harness.batches > 0);
  Alcotest.(check int) "no span left open" 0 (Obs.spans_open obs);
  let spans = Obs.Sink.memory_spans mem in
  Alcotest.(check int) "one span per op" 512 (List.length spans);
  Alcotest.(check bool) "trace-checker finds no violation" true
    (Consistency.ok (Consistency.check spans))

(* Pinned multi-key batch runs: any drift in the batch path's RNG draws,
   event order or message order moves these fingerprints.  Seed 3 drives
   every batch-only branch: whole-batch retries, commit resends to
   laggards, and a [Prepare_nack] that fails a batch mid-commit.  The
   sharded run keeps locks off, as the batch-sharded benchmark does:
   multi-key batches never lock. *)
let pinned_crashes seed =
  Dsim.Failure.random_crash_recovery ~rng:(Rng.create seed) ~n:9
    ~horizon:3000.0 ~mtbf:150.0 ~mttr:40.0

let pinned_scenario ~seed =
  let proto =
    Eval.Config_metrics.protocol_of Arbitrary.Config.Arbitrary ~n:9
  in
  {
    (Harness.default_scenario ~proto) with
    Harness.n_clients = 3;
    ops_per_client = 48;
    think_time = 3.0;
    seed;
    failures = pinned_crashes seed;
    horizon = 3000.0;
    warmup = 1.0;
    loss_rate = 0.01;
    crash_mode = Dsim.Network.Amnesia;
    batching = Some { Harness.batch_size = 8; group_commit = true; pipeline = 2 };
  }

let check_pinned name ~fp (r : Harness.report) =
  Alcotest.(check bool) (name ^ ": multi-key batches ran") true
    (r.Harness.batches > 0);
  Alcotest.(check bool) (name ^ ": retries ran") true (r.Harness.retries > 0);
  Alcotest.(check int) (name ^ ": no safety violations") 0
    r.Harness.safety_violations;
  Alcotest.(check string) (name ^ ": pinned fingerprint") fp
    (Batching.fingerprint r)

let test_pinned_batched_fingerprint () =
  check_pinned "harness" ~fp:"c54ce6320b1e134462104ff5bc36f456"
    (Harness.run (pinned_scenario ~seed:3))

let test_pinned_sharded_batched_fingerprint () =
  let base = pinned_scenario ~seed:3 in
  let s =
    {
      (Replication.Shard_harness.default ~proto:base.Harness.proto ~shards:4) with
      Replication.Shard_harness.base =
        { base with Harness.failures = []; use_locks = false };
      shard_failures = List.init 4 (fun s -> (s, pinned_crashes (3 + s)));
    }
  in
  check_pinned "4 shards" ~fp:"2e68bc80457b661c37e26d8ae173128d"
    (Replication.Shard_harness.run s).Replication.Shard_harness.agg

(* Locks are owned per operation, not per client: one client may have
   several single-key operations in flight on one key (pipelined windows,
   or a window's singletons spread over shards).  With one owner per
   client site, [Lock_manager.acquire] raises on all three runs below. *)
let locked_pipelined_scenario ~clients ~ops ~key_space ~zipf ~batch ~pipeline =
  let proto =
    Eval.Config_metrics.protocol_of Arbitrary.Config.Arbitrary ~n:9
  in
  {
    (Harness.default_scenario ~proto) with
    Harness.n_clients = clients;
    ops_per_client = ops;
    key_space;
    zipf_theta = zipf;
    use_locks = true;
    check_consistency = true;
    batching =
      Some { Harness.batch_size = batch; group_commit = batch > 1; pipeline };
  }

let check_locked_run name ~ops (r : Harness.report) =
  Alcotest.(check int) (name ^ ": every op completed") ops
    (r.Harness.reads_ok + r.Harness.writes_ok);
  Alcotest.(check int) (name ^ ": none failed") 0
    (r.Harness.reads_failed + r.Harness.writes_failed);
  Alcotest.(check int) (name ^ ": no safety violations") 0
    r.Harness.safety_violations;
  Alcotest.(check bool) (name ^ ": trace-checker finds no violation") true
    (Consistency.ok (Consistency.check r.Harness.spans))

let test_locks_owned_per_operation () =
  let sharded s =
    (Replication.Shard_harness.run
       {
         (Replication.Shard_harness.default ~proto:s.Harness.proto ~shards:16) with
         Replication.Shard_harness.base = s;
       })
      .Replication.Shard_harness.agg
  in
  check_locked_run "batch 1 x pipeline 4" ~ops:1024
    (Harness.run
       (locked_pipelined_scenario ~clients:16 ~ops:64 ~key_space:8 ~zipf:0.0
          ~batch:1 ~pipeline:4));
  check_locked_run "16 shards, batch 32 x pipeline 1" ~ops:1024
    (sharded
       (locked_pipelined_scenario ~clients:16 ~ops:64 ~key_space:4096
          ~zipf:0.99 ~batch:32 ~pipeline:1));
  check_locked_run "16 shards, batch 32 x pipeline 4" ~ops:32768
    (sharded
       (locked_pipelined_scenario ~clients:64 ~ops:512 ~key_space:16384
          ~zipf:0.0 ~batch:32 ~pipeline:4))

(* A pooled batch reply keeps the columns of the largest batch it has
   carried, so a smaller batch's reply is read only up to its count. *)
let test_pooled_batch_reply_count () =
  let module Message = Replication.Message in
  let pool = Message.pool () in
  let wide = Message.read_batch_reply pool ~op:1 ~n:4 ~inc:0 in
  (match wide with
  | Message.Read_batch_reply { values; _ } -> Array.fill values 0 4 "stale"
  | _ -> Alcotest.fail "expected a batch reply");
  Message.recycle wide;
  let narrow = Message.read_batch_reply pool ~op:2 ~n:2 ~inc:0 in
  Alcotest.(check bool) "reissued" true (narrow == wide);
  (match narrow with
  | Message.Read_batch_reply { n; versions; _ } ->
    Alcotest.(check int) "live count" 2 n;
    Alcotest.(check int) "capacity kept" 4 (Array.length versions)
  | _ -> Alcotest.fail "expected a batch reply");
  Alcotest.(check string) "printed by its count" "read-batch-reply(op=2 |entries|=2)"
    (Format.asprintf "%a" Message.pp narrow);
  (* End to end: four-key batches fill the replicas' pools, then two-key
     batches reuse those records. *)
  let engine, _, coord, _ = setup () in
  write_batch coord [ (0, "a"); (1, "b"); (2, "c"); (3, "d") ] ignore;
  Engine.run engine;
  read_batch coord [ 0; 1; 2; 3 ] ignore;
  Engine.run engine;
  write_batch coord [ (5, "e"); (6, "f") ] ignore;
  Engine.run engine;
  let read = ref [] in
  read_batch coord [ 6; 5 ] (fun o -> read := positions o);
  Engine.run engine;
  Alcotest.(check (list string)) "two entries, in request order" [ "f"; "e" ]
    (List.map (function Some (_, v) -> v | None -> "failed") !read)

let suite =
  [
    Alcotest.test_case "repeated keys in a batch close every span" `Quick
      test_repeated_keys_close_every_span;
    Alcotest.test_case "write_batch then read_batch round-trips" `Quick
      test_write_batch_then_read_batch;
    Alcotest.test_case "duplicate key: last writer wins" `Quick
      test_duplicate_key_last_writer_wins;
    Alcotest.test_case "batch failure reports every key" `Quick
      test_batch_failure_reports_every_key;
    Alcotest.test_case "singleton and empty batches delegate" `Quick
      test_singleton_and_empty_batches_delegate;
    Alcotest.test_case "batch=1 is byte-identical to unbatched" `Quick
      test_batch1_byte_identical_to_unbatched;
    Alcotest.test_case "batched runs are deterministic" `Quick
      test_batched_run_deterministic;
    Alcotest.test_case "pinned batched fingerprint" `Quick
      test_pinned_batched_fingerprint;
    Alcotest.test_case "pinned sharded batched fingerprint" `Quick
      test_pinned_sharded_batched_fingerprint;
    Alcotest.test_case "locks are owned per operation" `Quick
      test_locks_owned_per_operation;
    Alcotest.test_case "batching reduces messages per op" `Quick
      test_batching_reduces_messages;
    Alcotest.test_case "group commit consistent under amnesia churn" `Quick
      test_group_commit_amnesia_consistent;
    Alcotest.test_case "a pooled batch reply is read up to its count" `Quick
      test_pooled_batch_reply_count;
  ]
