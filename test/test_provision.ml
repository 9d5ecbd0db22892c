(* Snapshot-provisioning rejoin: chunked transfer, durable-mark resume,
   donor failover, fencing, and the terminal failed-rejoin state of the
   catch-up path. *)

module Engine = Dsim.Engine
module Network = Dsim.Network
module Failure = Dsim.Failure
module Coordinator = Replication.Coordinator
module Replica = Replication.Replica
module Message = Replication.Message
module Timestamp = Replication.Timestamp
module Store = Replication.Store
module Wal = Replication.Wal
module Protocol = Quorum.Protocol

let fig1_proto () = Arbitrary.Quorums.protocol (Arbitrary.Tree.figure1 ())

type ctx = {
  engine : Engine.t;
  net : Message.t Network.t;
  replicas : Replica.t array;
  coord : Coordinator.t;
  n : int;
}

let key_space = 8

let setup ?(seed = 42) ?(chunk_size = 1) ?(fence = true) ?obs () =
  let proto = fig1_proto () in
  let n = Protocol.universe_size proto in
  let engine = Engine.create ~seed () in
  let net = Network.create ~engine ~n:(n + 1) () in
  Network.set_crash_mode net Network.Amnesia;
  let recovery =
    Replica.recovery ~catch_up:false
      ~provision:
        (Replica.provision ~key_space ~chunk_size ~fence
           ~donors:(fun () -> List.init n Fun.id)
           ())
      ()
  in
  let replicas =
    Array.init n (fun site -> Replica.create ~site ~net ~recovery ?obs ())
  in
  let coord = Coordinator.create ~site:n ~net ~proto () in
  { engine; net; replicas; coord; n }

(* Seed committed state directly on every replica, bypassing the WAL: an
   amnesia crash then leaves the target genuinely cold (nothing to
   replay), so everything it comes back with is attributable to the
   provisioning transfer. *)
let seed_stores ctx =
  Array.iter
    (fun r ->
      let store = Replica.store r in
      for key = 0 to key_space - 1 do
        ignore
          (Store.install_flat store ~key ~version:1 ~sid:0
             ~value:(Printf.sprintf "v%d" key))
      done)
    ctx.replicas

let check_restored ctx site =
  let store = Replica.store ctx.replicas.(site) in
  for key = 0 to key_space - 1 do
    Alcotest.(check string)
      (Printf.sprintf "key %d restored" key)
      (Printf.sprintf "v%d" key)
      (snd (Store.read store ~key))
  done

(* A cold amnesia rejoin rebuilds the whole store from a donor's chunks
   plus the WAL tail — no per-key quorum reads. *)
let test_basic_provisioning_rejoin () =
  let obs = Obs.create () in
  let ctx = setup ~chunk_size:2 ~obs () in
  seed_stores ctx;
  let site = ctx.n - 1 in
  Network.crash ctx.net site;
  Network.recover ctx.net site;
  Engine.run ctx.engine;
  let r = ctx.replicas.(site) in
  check_restored ctx site;
  Alcotest.(check bool) "serving again" true (Replica.is_serving r);
  Alcotest.(check int) "one transfer" 1 (Replica.count r "provision.runs");
  Alcotest.(check int) "ceil(8/2) chunks" 4 (Replica.count r "provision.chunks");
  Alcotest.(check int) "no failover" 0 (Replica.count r "provision.donor_failovers");
  let m = Obs.metrics obs in
  Alcotest.(check int) "provision.chunks counter" 4
    (Obs.Metrics.counter_of m "provision.chunks");
  Alcotest.(check int) "provision.runs counter" 1
    (Obs.Metrics.counter_of m "provision.runs")

(* Crash the recipient mid-transfer: the rejoin must resume after its
   newest durable chunk mark, not refetch from chunk 0. *)
let test_recipient_crash_resumes () =
  let ctx = setup () in
  seed_stores ctx;
  let site = ctx.n - 1 in
  Network.crash ctx.net site;
  Network.recover ctx.net site;
  (* 8 chunks of 1 key at ~2 virtual-time units a round trip: a crash a
     few units in lands mid-transfer with marks already durable *)
  Engine.schedule ctx.engine ~delay:6.0 (fun () ->
      Network.crash ctx.net site;
      Network.recover ctx.net site);
  Engine.run ctx.engine;
  let r = ctx.replicas.(site) in
  check_restored ctx site;
  Alcotest.(check bool) "serving again" true (Replica.is_serving r);
  Alcotest.(check bool) "resumed from a durable mark" true
    (Replica.count r "provision.resumes" >= 1);
  Alcotest.(check bool) "no chunk refetched" true
    (Replica.count r "provision.chunks" <= key_space)

(* Crash the donor mid-transfer: the watchdog fires, the recipient fails
   over to another donor and the transfer still completes. *)
let test_donor_crash_fails_over () =
  let ctx = setup () in
  seed_stores ctx;
  let site = ctx.n - 1 in
  (* the first donor pick is the lowest live site that is not the
     rejoiner *)
  let donor = 0 in
  Network.crash ctx.net site;
  Network.recover ctx.net site;
  Engine.schedule ctx.engine ~delay:3.0 (fun () -> Network.crash ctx.net donor);
  Engine.run ctx.engine;
  let r = ctx.replicas.(site) in
  check_restored ctx site;
  Alcotest.(check bool) "serving again" true (Replica.is_serving r);
  Alcotest.(check bool) "failed over" true
    (Replica.count r "provision.donor_failovers" >= 1)

(* Fencing: with [fence] the rejoiner stays out of quorums until the WAL
   tail lands; without it, it serves (stale) immediately — the negative
   control's knob. *)
let test_fencing_gates_serving () =
  let fenced = setup () in
  seed_stores fenced;
  let site = fenced.n - 1 in
  Network.crash fenced.net site;
  Network.recover fenced.net site;
  Alcotest.(check bool) "fenced while transferring" false
    (Replica.is_serving fenced.replicas.(site));
  Alcotest.(check string) "status label" "recovering"
    (Replica.status_label fenced.replicas.(site));
  Engine.run fenced.engine;
  Alcotest.(check bool) "serving after the tail" true
    (Replica.is_serving fenced.replicas.(site));
  let unfenced = setup ~fence:false () in
  seed_stores unfenced;
  let site = unfenced.n - 1 in
  Network.crash unfenced.net site;
  Network.recover unfenced.net site;
  Alcotest.(check bool) "unfenced serves immediately" true
    (Replica.is_serving unfenced.replicas.(site))

(* Decommission is terminal: the replica refuses quorum roles for good
   and survives nothing-to-do crash/recover cycles still fenced. *)
let test_decommission_is_terminal () =
  let ctx = setup () in
  seed_stores ctx;
  let r = ctx.replicas.(2) in
  Replica.decommission r;
  Alcotest.(check bool) "decommissioned" true (Replica.is_decommissioned r);
  Alcotest.(check string) "status label" "decommissioned"
    (Replica.status_label r);
  Network.crash ctx.net 2;
  Network.recover ctx.net 2;
  Engine.run ctx.engine;
  Alcotest.(check bool) "still fenced after recover" true
    (Replica.is_decommissioned r)

(* Regression (the stuck-in-Recovering bug): when catch-up exhausts its
   retry budget the replica must land in the terminal failed-rejoin
   state — visible in the status label, the [failed_rejoins] counter and
   the obs counter — rather than sit in [Recovering] forever with no
   pending work. *)
let test_catchup_exhaustion_is_terminal_failed_rejoin () =
  let proto = fig1_proto () in
  let n = Protocol.universe_size proto in
  let engine = Engine.create ~seed:42 () in
  let net = Network.create ~engine ~n:(n + 1) () in
  Network.set_crash_mode net Network.Amnesia;
  let obs = Obs.create () in
  let recovery =
    Replica.recovery ~catch_up:true ~proto
      ~keys:(fun () -> [ 0 ])
      ()
  in
  let replicas =
    Array.init n (fun site -> Replica.create ~site ~net ~recovery ~obs ())
  in
  let target = 0 in
  (* Nobody else is up: no read quorum ever assembles, so every catch-up
     gather times out until the budget runs dry. *)
  for site = 0 to n - 1 do
    if site <> target then Network.crash net site
  done;
  Network.crash net target;
  Network.recover net target;
  Engine.run engine;
  let r = replicas.(target) in
  Alcotest.(check bool) "terminal failed-rejoin" true
    (Replica.is_failed_rejoin r);
  Alcotest.(check string) "status label" "failed-rejoin"
    (Replica.status_label r);
  Alcotest.(check int) "failed_rejoins counted" 1
    (Replica.count r "replica.rejoin.failed");
  Alcotest.(check int) "obs counter" 1
    (Obs.Metrics.counter_of (Obs.metrics obs) "replica.rejoin.failed");
  Alcotest.(check bool) "not serving" false (Replica.is_serving r);
  (* the state is terminal for this incarnation but not forever: a new
     crash/recover cycle retries the rejoin *)
  Network.crash net target;
  Network.recover net target;
  Alcotest.(check string) "rejoin restarts on the next cycle" "recovering"
    (Replica.status_label r)

let suite =
  [
    Alcotest.test_case "cold rejoin provisions from a donor" `Quick
      test_basic_provisioning_rejoin;
    Alcotest.test_case "recipient crash resumes from the durable mark" `Quick
      test_recipient_crash_resumes;
    Alcotest.test_case "donor crash fails over" `Quick
      test_donor_crash_fails_over;
    Alcotest.test_case "fencing gates serving until the tail" `Quick
      test_fencing_gates_serving;
    Alcotest.test_case "decommission is terminal" `Quick
      test_decommission_is_terminal;
    Alcotest.test_case "catch-up exhaustion lands in failed-rejoin" `Quick
      test_catchup_exhaustion_is_terminal_failed_rejoin;
  ]
