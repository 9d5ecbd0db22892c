(* Crash-recovery integration tests: amnesia crashes, WAL replay, the
   rejoin state machine, incarnation fencing, and the end-to-end gates
   (amnesia + durable WAL + catch-up is consistent; the negative control
   is observably not). *)

module Engine = Dsim.Engine
module Network = Dsim.Network
module Coordinator = Replication.Coordinator
module Replica = Replication.Replica
module Message = Replication.Message
module Harness = Replication.Harness
module Timestamp = Replication.Timestamp
module Store = Replication.Store
module Wal = Replication.Wal
module Protocol = Quorum.Protocol
module Chaos = Eval.Chaos
module Consistency = Eval.Consistency

let fig1_proto () = Arbitrary.Quorums.protocol (Arbitrary.Tree.figure1 ())

type ctx = {
  engine : Engine.t;
  net : Message.t Network.t;
  replicas : Replica.t array;
  coord : Coordinator.t;
}

let setup ?(seed = 42) ?(wal_policy = Wal.Sync_on_commit) ?(catch_up = true)
    ?keys () =
  let proto = fig1_proto () in
  let n = Protocol.universe_size proto in
  let engine = Engine.create ~seed () in
  let net = Network.create ~engine ~n:(n + 1) () in
  Network.set_crash_mode net Network.Amnesia;
  let recovery = Replica.recovery ~wal_policy ~catch_up ?keys ~proto () in
  let replicas =
    Array.init n (fun site -> Replica.create ~site ~net ~recovery ())
  in
  let coord = Coordinator.create ~site:n ~net ~proto () in
  { engine; net; replicas; coord }

let do_write ctx key value =
  let result = ref `Pending in
  Coordinator.write ctx.coord ~key ~value (fun r -> result := `Done r);
  Engine.run ctx.engine;
  match !result with
  | `Done r -> r
  | `Pending -> Alcotest.fail "write did not complete"

let do_read ctx key =
  let result = ref `Pending in
  Coordinator.read ctx.coord ~key (fun r -> result := `Done r);
  Engine.run ctx.engine;
  match !result with
  | `Done r -> r
  | `Pending -> Alcotest.fail "read did not complete"

(* An amnesia crash wipes the store; WAL replay (Sync_on_commit) restores
   every committed write, and the rejoin bumps the incarnation exactly
   once per crash. *)
let test_amnesia_replay_restores_commits () =
  (* Catch-up off so the restoration is attributable to WAL replay alone. *)
  let ctx = setup ~catch_up:false () in
  (match do_write ctx 1 "hello" with
  | Some _ -> ()
  | None -> Alcotest.fail "write must succeed failure-free");
  (* Crash a replica the write quorum actually installed on. *)
  let site =
    let holds i =
      snd (Store.read (Replica.store ctx.replicas.(i)) ~key:1) = "hello"
    in
    let rec find i = if holds i then i else find (i + 1) in
    find 0
  in
  let r = ctx.replicas.(site) in
  Network.crash ctx.net site;
  Alcotest.(check bool) "wiped on crash" true
    (Store.read (Replica.store r) ~key:1 = (Timestamp.zero, ""));
  Network.recover ctx.net site;
  Engine.run ctx.engine;
  Alcotest.(check int) "incarnation bumped once" 1 (Replica.incarnation r);
  Alcotest.(check bool) "serving again" true (Replica.is_serving r);
  Alcotest.(check bool) "replayed records" true
    (Replica.count r "replica.wal.replayed" > 0);
  let ts, value = Store.read (Replica.store r) ~key:1 in
  Alcotest.(check string) "committed write restored" "hello" value;
  Alcotest.(check int) "at its version" 1 ts.Timestamp.version

(* Under Fail_stop the paper's model holds: memory survives, so the hooks
   must not wipe anything, bump incarnations, or replay. *)
let test_fail_stop_keeps_memory () =
  let ctx = setup () in
  Network.set_crash_mode ctx.net Network.Fail_stop;
  (match do_write ctx 1 "hello" with
  | Some _ -> ()
  | None -> Alcotest.fail "write must succeed failure-free");
  let site =
    let holds i =
      snd (Store.read (Replica.store ctx.replicas.(i)) ~key:1) = "hello"
    in
    let rec find i = if holds i then i else find (i + 1) in
    find 0
  in
  Network.crash ctx.net site;
  Network.recover ctx.net site;
  Engine.run ctx.engine;
  let r = ctx.replicas.(site) in
  Alcotest.(check int) "incarnation unchanged" 0 (Replica.incarnation r);
  Alcotest.(check bool) "still serving" true (Replica.is_serving r);
  Alcotest.(check int) "no replay" 0 (Replica.count r "replica.wal.replayed");
  Alcotest.(check bool) "memory survived" true
    (snd (Store.read (Replica.store r) ~key:1) = "hello")

(* Catch-up freshens keys whose WAL records were lost: stage-only state is
   volatile under Sync_on_commit, but the peers still hold the committed
   write, so the rejoiner quorum-reads it back.  [keys] passes the full
   key space since the replayed store cannot name what it lost. *)
let test_catchup_freshens_lost_keys () =
  let ctx = setup ~keys:(fun () -> [ 1 ]) () in
  (match do_write ctx 1 "hello" with
  | Some _ -> ()
  | None -> Alcotest.fail "write must succeed failure-free");
  (* Whether or not site 3 was in the write quorum, after crash + recover
     it must end up holding the committed write: replay restores it if it
     was, and the quorum catch-up read fetches it from the peers if it
     was not (read and write quorums intersect). *)
  let r = ctx.replicas.(3) in
  Network.crash ctx.net 3;
  Network.recover ctx.net 3;
  Engine.run ctx.engine;
  Alcotest.(check bool) "caught up" true (Replica.is_serving r);
  Alcotest.(check int) "one catch-up run" 1 (Replica.count r "replica.catchup.runs");
  Alcotest.(check bool) "key restored" true
    (snd (Store.read (Replica.store r) ~key:1) = "hello")

(* With every peer down, catch-up cannot assemble a quorum; after the
   attempt budget the replica stays safely in the recovering state. *)
let test_catchup_abandons_without_peers () =
  let ctx = setup ~keys:(fun () -> [ 1 ]) () in
  let n = Array.length ctx.replicas in
  for i = 1 to n - 1 do
    Network.crash ctx.net i
  done;
  Network.crash ctx.net 0;
  Network.recover ctx.net 0;
  Engine.run ctx.engine;
  let r = ctx.replicas.(0) in
  Alcotest.(check bool) "not serving" false (Replica.is_serving r);
  Alcotest.(check int) "abandoned" 1 (Replica.count r "replica.catchup.abandoned")

(* Incarnation fencing: a Commit stamped with a pre-crash incarnation must
   be nacked, never applied — the staged write it refers to died with the
   old incarnation. *)
let test_stale_commit_nacked () =
  let ctx = setup () in
  let n = Array.length ctx.replicas in
  let r = ctx.replicas.(0) in
  Network.crash ctx.net 0;
  Network.recover ctx.net 0;
  Engine.run ctx.engine;
  Alcotest.(check int) "rejoined at incarnation 1" 1 (Replica.incarnation r);
  let nacks = ref [] in
  Network.set_handler ctx.net ~site:n (fun ~src:_ msg -> nacks := msg :: !nacks);
  Network.send ctx.net ~src:n ~dst:0
    (Message.Commit
       { op = 99; inc = 0; reply = Message.Commit_ack { op = 99; inc = 0 } });
  Engine.run ctx.engine;
  Alcotest.(check int) "nack counter" 1 (Replica.count r "replica.stale_inc.nacked");
  match !nacks with
  | [ Message.Prepare_nack { op = 99; reason } ] ->
    Alcotest.(check string) "reason" "stale-incarnation" reason
  | _ -> Alcotest.fail "expected exactly one stale-incarnation nack"

(* Prepares and commits carry the ack they expect, and a replica sends it
   only when it names the replica's current incarnation.  A replica that
   never crashed echoes the carried ack itself; a rejoined one answers a
   prepare that expects incarnation 0 with an ack of its own incarnation;
   a stale-incarnation commit is nacked, never answered with its ack. *)
let test_carried_reply_incarnation () =
  let ctx = setup () in
  let n = Array.length ctx.replicas in
  let got = ref [] in
  Network.set_handler ctx.net ~site:n (fun ~src msg -> got := (src, msg) :: !got);
  let deliver ~dst msg =
    got := [];
    Network.send ctx.net ~src:n ~dst msg;
    Engine.run ctx.engine;
    match !got with
    | [ (src, reply) ] when src = dst -> reply
    | _ -> Alcotest.fail "expected exactly one reply"
  in
  let prepare op =
    let ack = Message.Prepare_ack { op; inc = 0 } in
    (ack, Message.Prepare { op; key = 1; version = 1; sid = n; value = "x"; reply = ack })
  in
  let ack, msg = prepare 10 in
  Alcotest.(check bool) "incarnation 0 echoes the carried ack" true
    (deliver ~dst:1 msg == ack);
  Network.crash ctx.net 0;
  Network.recover ctx.net 0;
  Engine.run ctx.engine;
  let r = ctx.replicas.(0) in
  Alcotest.(check int) "rejoined at incarnation 1" 1 (Replica.incarnation r);
  let ack, msg = prepare 11 in
  (match deliver ~dst:0 msg with
  | Message.Prepare_ack { op = 11; inc } as m ->
    Alcotest.(check int) "ack stamped with incarnation 1" 1 inc;
    Alcotest.(check bool) "not the carried ack" false (m == ack)
  | _ -> Alcotest.fail "expected a prepare ack");
  let stale_ack = Message.Commit_ack { op = 11; inc = 0 } in
  (match deliver ~dst:0 (Message.Commit { op = 11; inc = 0; reply = stale_ack }) with
  | Message.Prepare_nack { op = 11; reason } ->
    Alcotest.(check string) "reason" "stale-incarnation" reason
  | _ -> Alcotest.fail "expected a stale-incarnation nack");
  Alcotest.(check int) "nack counter" 1 (Replica.count r "replica.stale_inc.nacked");
  let commit_ack = Message.Commit_ack { op = 11; inc = 1 } in
  Alcotest.(check bool) "current incarnation echoes the carried commit ack" true
    (deliver ~dst:0 (Message.Commit { op = 11; inc = 1; reply = commit_ack })
    == commit_ack);
  Alcotest.(check string) "commit applied" "x" (snd (Store.read (Replica.store r) ~key:1))

(* Replies are stamped with the sender's incarnation so coordinators can
   fence replies that predate a crash. *)
let test_replies_carry_incarnation () =
  let ctx = setup () in
  let n = Array.length ctx.replicas in
  Network.crash ctx.net 0;
  Network.recover ctx.net 0;
  Engine.run ctx.engine;
  let replies = ref [] in
  Network.set_handler ctx.net ~site:n (fun ~src:_ msg ->
      replies := msg :: !replies);
  Network.send ctx.net ~src:n ~dst:0 (Message.Read_request { op = 7; key = 1 });
  Engine.run ctx.engine;
  match !replies with
  | [ (Message.Read_reply _ as m) ] ->
    Alcotest.(check int) "stamped with incarnation 1" 1 (Message.incarnation m);
    Alcotest.(check int) "requests carry none" Message.no_incarnation
      (Message.incarnation (Message.Read_request { op = 7; key = 1 }))
  | _ -> Alcotest.fail "expected exactly one read reply"

(* --- end-to-end gates (campaign-sized, deterministic) ------------------- *)

let arbitrary_only = [ Arbitrary.Config.Arbitrary ]

let test_amnesia_campaign_consistent () =
  let cells =
    Chaos.run_amnesia ~n:9 ~clients:2 ~ops:10 ~seed:7 ~horizon:3000.0
      ~configs:arbitrary_only ()
  in
  Alcotest.(check int) "one cell" 1 (List.length cells);
  let c : Eval.Campaign.cell = List.hd cells in
  let r = c.report.agg in
  Alcotest.(check int) "no online violations" 0 r.Harness.safety_violations;
  Alcotest.(check bool) "no offline violations" true
    (Consistency.ok c.consistency);
  Alcotest.(check bool) "made progress" true
    (r.Harness.reads_ok + r.Harness.writes_ok > 0);
  Alcotest.(check bool) "replicas actually rejoined" true
    (Array.exists (fun i -> i > 0) r.Harness.replica_incarnations);
  Alcotest.(check bool) "catch-ups completed" true
    (Harness.count r "replica.catchup.runs" > 0);
  Alcotest.(check bool) "WAL replay happened" true
    (Harness.count r "replica.wal.replayed" > 0);
  (* Liveness: once the churn stops, every replica works its way back to
     serving — recovering replicas answering each other's catch-up reads
     is what breaks the mutual-standoff deadlock. *)
  Alcotest.(check int) "nobody stuck recovering" 0
    r.Harness.replicas_recovering

let test_negative_control_detects () =
  let cells =
    Chaos.run_amnesia_negative ~n:9 ~clients:2 ~ops:25 ~seed:7
      ~horizon:3000.0 ~configs:arbitrary_only ()
  in
  let violations = Eval.Campaign.violations cells in
  Alcotest.(check bool) "async WAL + no catch-up loses writes" true
    (violations >= 1);
  let c : Eval.Campaign.cell = List.hd cells in
  List.iter
    (fun v ->
      Alcotest.(check bool) "violation names distinct ops" true
        (v.Consistency.read_id <> v.Consistency.write_id))
    c.consistency.violations

(* Collecting spans for the checker must not perturb the simulation: the
   memory sink draws no randomness and schedules no events. *)
let test_checker_attachment_inert () =
  let proto = fig1_proto () in
  let s = Harness.default_scenario ~proto in
  let scenario =
    { s with Harness.n_clients = 2; ops_per_client = 15; seed = 11 }
  in
  let plain = Harness.run scenario in
  let checked =
    Harness.run { scenario with Harness.check_consistency = true }
  in
  Alcotest.(check int) "same reads" plain.Harness.reads_ok
    checked.Harness.reads_ok;
  Alcotest.(check int) "same writes" plain.Harness.writes_ok
    checked.Harness.writes_ok;
  Alcotest.(check int) "same messages" plain.Harness.messages_sent
    checked.Harness.messages_sent;
  Alcotest.(check bool) "spans only when asked" true
    (plain.Harness.spans = [] && checked.Harness.spans <> []);
  let report = Consistency.check checked.Harness.spans in
  Alcotest.(check bool) "failure-free run is consistent" true
    (Consistency.ok report);
  Alcotest.(check int) "every span stamped" 0 report.Consistency.unstamped

let suite =
  [
    Alcotest.test_case "amnesia replay restores commits" `Quick
      test_amnesia_replay_restores_commits;
    Alcotest.test_case "fail-stop keeps memory" `Quick
      test_fail_stop_keeps_memory;
    Alcotest.test_case "catch-up freshens lost keys" `Quick
      test_catchup_freshens_lost_keys;
    Alcotest.test_case "catch-up abandons without peers" `Quick
      test_catchup_abandons_without_peers;
    Alcotest.test_case "stale commits nacked" `Quick test_stale_commit_nacked;
    Alcotest.test_case "replies carry incarnation" `Quick
      test_replies_carry_incarnation;
    Alcotest.test_case "amnesia campaign is consistent" `Quick
      test_amnesia_campaign_consistent;
    Alcotest.test_case "negative control detects lost writes" `Quick
      test_negative_control_detects;
    Alcotest.test_case "checker attachment is inert" `Quick
      test_checker_attachment_inert;
    Alcotest.test_case "carried replies never cross an incarnation" `Quick
      test_carried_reply_incarnation;
  ]
