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
        Wal.install wal ~key:(op land 1023) ~version:op ~sid:1 ~value:"v"
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
             3 * 99_904)))
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

(* The write-wide benchmark's shape at a small size: 95% writes on
   MOSTLY-READ n=33, so every write runs 2PC over all 33 replicas, with an
   amnesia WAL on every replica.  Set-up is counted too. *)
let test_write_wide_run () =
  let n = 33 and clients = 8 and ops = 200 in
  let proto = Arbitrary.Quorums.protocol (Arbitrary.Config.build Arbitrary.Config.Mostly_read ~n) in
  let scenario =
    {
      (Harness.default_scenario ~proto) with
      Harness.n_clients = clients;
      ops_per_client = ops;
      read_fraction = 0.05;
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
  check_bound "write-wide op" ~bound:1000.0 per_op

(* Transaction clients on the write-wide shape: each increment transaction
   reads its keys and commits them with one held prepare over all 33
   replicas.  Counted per key written by a committed transaction, set-up
   and the final tally included; the bound is 1.5x write-wide's 440 words
   per op. *)
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
  check_bound "transaction key written" ~bound:660.0 per_key

let suite =
  [
    Alcotest.test_case "send->deliver allocates nothing" `Quick test_network_send_deliver;
    Alcotest.test_case "flat WAL appends allocate nothing" `Quick test_wal_flat_appends;
    Alcotest.test_case "stage->commit allocates nothing" `Quick test_store_stage_commit;
    Alcotest.test_case "write-wide op under 1,000 words" `Quick test_write_wide_run;
    Alcotest.test_case "transaction key under 660 words" `Quick test_txn_run;
  ]
