(* Allocation bounds on the per-message and per-replica-write paths.
   Counted with [Gc.minor_words ()] deltas, which are exact (not
   [Gc.quick_stat], which on OCaml 5 only counts up to the last minor
   collection), after a warm-up that grows every column, ring and heap to
   its working size. *)

module Engine = Dsim.Engine
module Network = Dsim.Network
module Latency = Dsim.Latency
module Store = Replication.Store
module Wal = Replication.Wal
module Harness = Replication.Harness

(* Minor words per unit of [work ()], which returns its unit count. *)
let words_per work =
  let w0 = Gc.minor_words () in
  let units = work () in
  (Gc.minor_words () -. w0) /. float_of_int units

let check_bound name ~bound per =
  if per > bound then
    Alcotest.failf "%s: %.3f minor words per unit, bound %.3f" name per bound

(* Rounds of sends from 8 clients to 8 replicas and back, each round
   drained before the next.  With a service model every replica serves
   behind an unbounded queue: a round's 12 arrivals per replica fit its
   16-slot ring, and since the ring's head only moves forward it wraps
   around every other round. *)
let network_words ~service =
  let replicas = 8 and clients = 8 in
  let engine = Engine.create ~seed:3 () in
  let net =
    Network.create ~engine ~n:(replicas + clients) ~latency:(Latency.Exponential 1.0) ()
  in
  if service then
    for site = 0 to replicas - 1 do
      Network.set_service net ~site ~service_time:0.25 ()
    done;
  for site = 0 to replicas + clients - 1 do
    Network.set_handler net ~site (fun ~src:_ () -> ())
  done;
  let round () =
    for i = 0 to (3 * replicas * clients) - 1 do
      let replica = i / 2 mod replicas and client = replicas + (i / 16 mod clients) in
      if i land 1 = 0 then Network.send net ~src:client ~dst:replica ()
      else Network.send net ~src:replica ~dst:client ()
    done;
    Engine.run engine;
    3 * replicas * clients
  in
  for _ = 1 to 50 do
    ignore (round ())
  done;
  words_per (fun () ->
      let sent = ref 0 in
      for _ = 1 to 200 do
        sent := !sent + round ()
      done;
      !sent)

let test_network_send_deliver () =
  check_bound "send->deliver" ~bound:0.1 (network_words ~service:false);
  check_bound "send->serve->deliver" ~bound:0.1 (network_words ~service:true)

let test_wal_flat_appends () =
  List.iter
    (fun policy ->
      let wal = Wal.create ~policy ~now:(fun () -> 0.0) () in
      let append op =
        Wal.stage wal ~op ~key:(op land 1023) ~version:op ~sid:0 ~value:"v";
        Wal.commit wal ~op ~key:(op land 1023) ~version:op ~sid:0 ~value:"v";
        Wal.install wal ~key:(op land 1023) ~version:op ~sid:1 ~value:"v";
        Wal.abort wal ~op
      in
      for op = 0 to 4_095 do
        append op
      done;
      check_bound
        ("flat appends, " ^ Wal.policy_to_string policy)
        ~bound:0.1
        (words_per (fun () ->
             for op = 4_096 to 103_999 do
               append op
             done;
             4 * 99_904)))
    [ Wal.Sync_on_commit; Wal.Sync_on_prepare ]

let test_store_stage_commit () =
  let store = Store.create () in
  let cycle op =
    Store.stage_flat store ~op ~key:(op land 1023) ~version:op ~sid:0 ~value:"v";
    ignore (Store.commit_staged store ~op)
  in
  (* a few leaked stages keep the probe runs honest *)
  for op = 0 to 63 do
    Store.stage_flat store ~op:(-op - 1) ~key:op ~version:1 ~sid:0 ~value:"x"
  done;
  for op = 0 to 4_095 do
    cycle op
  done;
  check_bound "stage->commit" ~bound:0.1
    (words_per (fun () ->
         for op = 4_096 to 103_999 do
           cycle op
         done;
         99_904))

(* The plan cache's quorums are owned by the plan (a refilled read bitset,
   the precomputed level masks, each in a preallocated [Some]), so
   assembling one allocates nothing: here on all-alive ARBITRARY n=33. *)
let test_plan_cache_quorums () =
  let tree = Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n:33 in
  let plan = Arbitrary.Plan_cache.create tree in
  let n = Arbitrary.Tree.n tree in
  let alive = Dsutil.Bitset.of_list n (List.init n Fun.id) in
  let rng = Dsutil.Rng.create 1 in
  let calls = 100_000 in
  let count assemble =
    words_per (fun () ->
        for _ = 1 to calls do
          if assemble plan ~alive ~rng = None then Alcotest.fail "no quorum when all alive"
        done;
        calls)
  in
  check_bound "read quorum" ~bound:0.1 (count Arbitrary.Plan_cache.read_quorum);
  check_bound "write quorum" ~bound:0.1 (count Arbitrary.Plan_cache.write_quorum)

(* Minor words per op of a closed-loop run on MOSTLY-READ over [n]
   replicas, where every write quorum is all [n], with an amnesia WAL on
   every replica.  Set-up is counted too. *)
let mostly_read_words ~n ~read_fraction =
  let clients = 8 and ops = 200 in
  let proto = Arbitrary.Quorums.protocol (Arbitrary.Config.build Arbitrary.Config.Mostly_read ~n) in
  let scenario =
    {
      (Harness.default_scenario ~proto) with
      Harness.n_clients = clients;
      ops_per_client = ops;
      read_fraction;
      key_space = 1024;
      think_time = 0.1;
      seed = 1;
      horizon = Float.infinity;
      crash_mode = Network.Amnesia;
      wal = Wal.Sync_on_commit;
    }
  in
  let completed = ref 0 in
  let per_op =
    words_per (fun () ->
        let r = Harness.run scenario in
        completed := r.Harness.reads_ok + r.Harness.writes_ok;
        clients * ops)
  in
  Alcotest.(check int) "every op completed" (clients * ops) !completed;
  per_op

(* The write-wide benchmark's shape at a small size: 95% writes on
   MOSTLY-READ n=33, so every write runs 2PC over all 33 replicas. *)
let test_write_wide_run () =
  check_bound "write-wide op" ~bound:150.0
    (mostly_read_words ~n:33 ~read_fraction:0.05)

(* A write's per-member 2PC replies are carried by its requests and one
   Commit serves every member, so a write-only run allocates about as
   much per write over 33 replicas as over 9; the per-replica set-up,
   counted here too, is most of what still grows with [n]. *)
let test_write_words_flat_in_n () =
  let small = mostly_read_words ~n:9 ~read_fraction:0.0 in
  let large = mostly_read_words ~n:33 ~read_fraction:0.0 in
  if large -. small > 60.0 then
    Alcotest.failf
      "write words grow by %.1f from n=9 (%.1f) to n=33 (%.1f), bound 60"
      (large -. small) small large

(* Transaction clients on the write-wide shape: each increment transaction
   reads its keys and commits them with one held prepare over all 33
   replicas.  Counted per key written by a committed transaction, set-up
   and the final tally included. *)
let test_txn_run () =
  let n = 33 in
  let proto = Arbitrary.Quorums.protocol (Arbitrary.Config.build Arbitrary.Config.Mostly_read ~n) in
  let scenario =
    {
      (Harness.txn_scenario ~proto) with
      Harness.n_clients = 8;
      ops_per_client = 50;
      key_space = 1024;
      think_time = 0.1;
      seed = 1;
      txn = Some { Harness.keys_per_txn = 4; atomic = true };
      crash_mode = Network.Amnesia;
      wal = Wal.Sync_on_commit;
    }
  in
  let tally = ref None in
  let per_key =
    words_per (fun () ->
        let r = Harness.run_core (Harness.one_tree scenario) in
        let t = Option.get r.Harness.agg.Harness.transactions in
        tally := Some t;
        t.Harness.committed_increments)
  in
  let t = Option.get !tally in
  Alcotest.(check bool) "conserved" true t.Harness.conservation_ok;
  Alcotest.(check bool) "most transactions commit" true (t.Harness.committed > 300);
  check_bound "transaction key written" ~bound:600.0 per_key

(* The batch-sharded benchmark's shape at a small size: batched,
   pipelined, group-committed clients over 16 hash shards of ARBITRARY
   n=9 and 16,384 Zipf keys.  Counted per op, set-up and report included:
   the run's one key table, one client window's buffers per pipeline slot
   and every batch's envelopes. *)
let test_batch_sharded_run () =
  let proto = Arbitrary.Quorums.protocol (Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n:9) in
  let b = Harness.default_scenario ~proto in
  let clients = 16 and ops = 512 in
  let scenario =
    {
      (Harness.one_tree
         {
           b with
           Harness.n_clients = clients;
           ops_per_client = ops;
           read_fraction = 0.5;
           key_space = 16384;
           zipf_theta = 0.99;
           think_time = 0.1;
           seed = 1;
           use_locks = false;
           coordinator = { b.Harness.coordinator with Replication.Coordinator.timeout = 10000.0 };
           horizon = Float.infinity;
           crash_mode = Network.Amnesia;
           wal = Wal.Sync_on_commit;
           batching = Some { Harness.batch_size = 32; group_commit = true; pipeline = 4 };
         })
      with
      Harness.shards = 16;
      service_time = 0.5;
    }
  in
  let completed = ref 0 in
  let per_op =
    words_per (fun () ->
        let r = (Harness.run_core scenario).Harness.agg in
        completed := Harness.completed r;
        clients * ops)
  in
  Alcotest.(check int) "every op completed" (clients * ops) !completed;
  check_bound "batch-sharded op" ~bound:130.0 per_op

(* Read-only clients on ARBITRARY n=33, with locks: a read queries one
   replica of every physical level, and each reply is a record its
   coordinator hands back to the replica's pool, so the replies of a
   failure-free read allocate nothing.  Counted per read, set-up and
   report included. *)
let test_read_run () =
  let proto = Arbitrary.Quorums.protocol (Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n:33) in
  let clients = 8 and ops = 2_000 in
  let scenario =
    {
      (Harness.default_scenario ~proto) with
      Harness.n_clients = clients;
      ops_per_client = ops;
      read_fraction = 1.0;
      key_space = 1024;
      think_time = 0.1;
      seed = 1;
      use_locks = true;
      horizon = Float.infinity;
    }
  in
  let completed = ref 0 in
  let per_op =
    words_per (fun () ->
        let r = Harness.run scenario in
        completed := r.Harness.reads_ok;
        clients * ops)
  in
  Alcotest.(check int) "every read completed" (clients * ops) !completed;
  check_bound "read op" ~bound:35.0 per_op

let suite =
  [
    Alcotest.test_case "send->deliver allocates nothing" `Quick test_network_send_deliver;
    Alcotest.test_case "flat WAL appends allocate nothing" `Quick test_wal_flat_appends;
    Alcotest.test_case "stage->commit allocates nothing" `Quick test_store_stage_commit;
    Alcotest.test_case "write-wide op allocates under 150 words" `Quick test_write_wide_run;
    Alcotest.test_case "transaction key under 600 words" `Quick test_txn_run;
    Alcotest.test_case "write words flat in quorum size" `Quick test_write_words_flat_in_n;
    Alcotest.test_case "batch-sharded op allocates under 130 words" `Quick
      test_batch_sharded_run;
    Alcotest.test_case "plan-cache quorum assembly allocates nothing" `Quick
      test_plan_cache_quorums;
    Alcotest.test_case "a failure-free read allocates no reply" `Quick test_read_run;
  ]
