module Engine = Dsim.Engine
module Network = Dsim.Network
module Latency = Dsim.Latency
module Failure = Dsim.Failure

let make ?(n = 4) ?latency ?loss_rate () =
  let engine = Engine.create () in
  let net = Network.create ~engine ~n ?latency ?loss_rate () in
  (engine, net)

let test_delivery () =
  let engine, net = make () in
  let received = ref [] in
  Network.set_handler net ~site:1 (fun ~src msg -> received := (src, msg) :: !received);
  Network.send net ~src:0 ~dst:1 "hello";
  Engine.run engine;
  Alcotest.(check bool) "delivered" true (!received = [ (0, "hello") ]);
  Alcotest.(check int) "sent" 1 (Network.sent net);
  Alcotest.(check int) "delivered count" 1 (Network.delivered net)

let test_latency_applied () =
  let engine, net = make ~latency:(Latency.Constant 7.0) () in
  let at = ref 0.0 in
  Network.set_handler net ~site:1 (fun ~src:_ _ -> at := Engine.now engine);
  Network.send net ~src:0 ~dst:1 ();
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "constant latency" 7.0 !at

let test_crash_drops () =
  let engine, net = make () in
  let got = ref 0 in
  Network.set_handler net ~site:1 (fun ~src:_ _ -> incr got);
  Network.crash net 1;
  Network.send net ~src:0 ~dst:1 ();
  Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "dropped_crash" 1 (Network.dropped_crash net);
  (* Recovery restores delivery. *)
  Network.recover net 1;
  Network.send net ~src:0 ~dst:1 ();
  Engine.run engine;
  Alcotest.(check int) "delivered after recovery" 1 !got

let test_crashed_sender_drops () =
  let engine, net = make () in
  let got = ref 0 in
  Network.set_handler net ~site:1 (fun ~src:_ _ -> incr got);
  Network.crash net 0;
  Network.send net ~src:0 ~dst:1 ();
  Engine.run engine;
  Alcotest.(check int) "silent sender" 0 !got

let test_crash_at_delivery_time () =
  (* Crash after send but before delivery: message lost. *)
  let engine, net = make ~latency:(Latency.Constant 5.0) () in
  let got = ref 0 in
  Network.set_handler net ~site:1 (fun ~src:_ _ -> incr got);
  Network.send net ~src:0 ~dst:1 ();
  Engine.schedule engine ~delay:1.0 (fun () -> Network.crash net 1);
  Engine.run engine;
  Alcotest.(check int) "lost in flight" 0 !got

let test_partition () =
  let engine, net = make ~n:4 () in
  let got = Array.make 4 0 in
  for i = 0 to 3 do
    Network.set_handler net ~site:i (fun ~src:_ _ -> got.(i) <- got.(i) + 1)
  done;
  Network.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  Alcotest.(check bool) "same side reachable" true (Network.reachable net 0 1);
  Alcotest.(check bool) "other side unreachable" false (Network.reachable net 0 2);
  Network.send net ~src:0 ~dst:1 ();
  Network.send net ~src:0 ~dst:2 ();
  Engine.run engine;
  Alcotest.(check int) "same side delivered" 1 got.(1);
  Alcotest.(check int) "cross partition dropped" 0 got.(2);
  Alcotest.(check int) "dropped_partition" 1
    (Network.dropped_partition net);
  Network.heal net;
  Network.send net ~src:0 ~dst:2 ();
  Engine.run engine;
  Alcotest.(check int) "healed" 1 got.(2)

let test_loss_rate () =
  let engine, net = make ~loss_rate:0.5 () in
  let got = ref 0 in
  Network.set_handler net ~site:1 (fun ~src:_ _ -> incr got);
  for _ = 1 to 2000 do
    Network.send net ~src:0 ~dst:1 ()
  done;
  Engine.run engine;
  let rate = float_of_int !got /. 2000.0 in
  Alcotest.(check bool) "about half arrive" true (abs_float (rate -. 0.5) < 0.05)

let test_alive_view () =
  let _, net = make ~n:3 () in
  Network.crash net 1;
  Alcotest.(check (list int)) "view" [ 0; 2 ]
    (Dsutil.Bitset.elements (Network.alive_view net))

(* The alive set is maintained incrementally by crash/recover; check it
   against the ground-truth [is_up] after every mutation, including
   redundant crashes/recoveries, and that returned views are snapshots. *)
let test_alive_view_incremental () =
  let n = 16 in
  let _, net = make ~n () in
  let rng = Dsutil.Rng.create 77 in
  for _ = 1 to 500 do
    let site = Dsutil.Rng.int rng n in
    if Dsutil.Rng.bool rng then Network.crash net site
    else Network.recover net site;
    let expect =
      List.filter (fun i -> Network.is_up net i) (List.init n Fun.id)
    in
    Alcotest.(check (list int))
      "view matches is_up" expect
      (Dsutil.Bitset.elements (Network.alive_view net))
  done;
  let snap = Network.alive_view net in
  let before = Dsutil.Bitset.elements snap in
  Network.crash net 3;
  Network.recover net 3;
  Alcotest.(check (list int))
    "held view is a snapshot" before
    (Dsutil.Bitset.elements snap)

let test_broadcast_and_per_site () =
  let engine, net = make ~n:4 () in
  for i = 0 to 3 do
    Network.set_handler net ~site:i (fun ~src:_ _ -> ())
  done;
  List.iter (fun dst -> Network.send net ~src:0 ~dst ()) [ 1; 2; 3 ];
  Engine.run engine;
  Alcotest.(check (array int)) "per-site delivered" [| 0; 1; 1; 1 |]
    (Network.per_site_delivered net)

let test_failure_schedule () =
  let engine, net = make ~n:2 () in
  Failure.apply net
    [
      { Failure.time = 1.0; event = Failure.Crash 0 };
      { Failure.time = 2.0; event = Failure.Recover 0 };
    ];
  let up_at = ref [] in
  List.iter
    (fun t ->
      Engine.schedule engine ~delay:t (fun () ->
          up_at := (t, Network.is_up net 0) :: !up_at))
    [ 0.5; 1.5; 2.5 ];
  Engine.run engine;
  Alcotest.(check bool) "schedule respected" true
    (List.sort compare !up_at = [ (0.5, true); (1.5, false); (2.5, true) ])

let test_random_crash_recovery_stats () =
  let rng = Dsutil.Rng.create 53 in
  let entries =
    Failure.random_crash_recovery ~rng ~n:50 ~horizon:1000.0 ~mtbf:100.0
      ~mttr:20.0
  in
  Alcotest.(check bool) "non-empty" true (List.length entries > 0);
  (* Sorted by time. *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Failure.time <= b.Failure.time && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted entries);
  Alcotest.(check (float 1e-9)) "steady-state availability" (100.0 /. 120.0)
    (Failure.steady_state_availability ~mtbf:100.0 ~mttr:20.0)

let test_crash_fraction () =
  let rng = Dsutil.Rng.create 59 in
  let entries = Failure.crash_fraction ~rng ~n:10 ~at:5.0 ~fraction:0.3 in
  Alcotest.(check int) "three crashes" 3 (List.length entries);
  let sites =
    List.map
      (fun e -> match e.Failure.event with Failure.Crash i -> i | _ -> -1)
      entries
  in
  Alcotest.(check int) "distinct sites" 3 (List.length (List.sort_uniq compare sites))

(* Crash/recover are transitions, not commands: redundant calls must not
   re-fire hooks (a replica would otherwise wipe its store twice, or
   re-enter catch-up while already serving). *)
let test_crash_hooks_idempotent () =
  let _, net = make ~n:3 () in
  Network.set_crash_mode net Network.Amnesia;
  Alcotest.(check bool) "mode readable" true
    (Network.crash_mode net = Network.Amnesia);
  let crashes = ref [] in
  let recoveries = ref 0 in
  Network.set_crash_hooks net ~site:1
    ~on_crash:(fun mode -> crashes := mode :: !crashes)
    ~on_recover:(fun () -> incr recoveries)
    ();
  Network.crash net 1;
  Network.crash net 1;
  (* already down: no hook, no trace event *)
  Alcotest.(check int) "on_crash fired once" 1 (List.length !crashes);
  Alcotest.(check bool) "hook sees the mode" true
    (!crashes = [ Network.Amnesia ]);
  Alcotest.(check bool) "down after double crash" false (Network.is_up net 1);
  Network.recover net 1;
  Network.recover net 1;
  Alcotest.(check int) "on_recover fired once" 1 !recoveries;
  Alcotest.(check bool) "up after double recover" true (Network.is_up net 1);
  (* Recovering a site that never crashed is equally inert. *)
  Network.recover net 2;
  Alcotest.(check int) "no spurious recovery hook" 1 !recoveries

let test_failure_apply_rejects_past () =
  let engine, net = make ~n:2 () in
  let raised = ref false in
  Engine.schedule engine ~delay:5.0 (fun () ->
      (try
         Failure.apply net
           [
             { Failure.time = 10.0; event = Failure.Crash 0 };
             { Failure.time = 1.0; event = Failure.Crash 1 };
           ]
       with Invalid_argument _ -> raised := true));
  Engine.run engine;
  Alcotest.(check bool) "past entry raises" true !raised;
  (* Validation happens before anything is scheduled: the valid t=10
     entry must not have crashed site 0. *)
  Alcotest.(check bool) "nothing scheduled" true (Network.is_up net 0)

let test_failure_apply_sorts () =
  let engine, net = make ~n:2 () in
  (* Entries arrive out of order; apply sorts them, so the site is down
     in [1, 2) and up again afterwards. *)
  Failure.apply net
    [
      { Failure.time = 2.0; event = Failure.Recover 0 };
      { Failure.time = 1.0; event = Failure.Crash 0 };
    ];
  let up_at = ref [] in
  List.iter
    (fun t ->
      Engine.schedule engine ~delay:t (fun () ->
          up_at := (t, Network.is_up net 0) :: !up_at))
    [ 1.5; 2.5 ];
  Engine.run engine;
  Alcotest.(check bool) "sorted before scheduling" true
    (List.sort compare !up_at = [ (1.5, false); (2.5, true) ])

let test_crash_fraction_edges () =
  let rng = Dsutil.Rng.create 11 in
  Alcotest.(check int) "fraction 0 crashes nobody" 0
    (List.length (Failure.crash_fraction ~rng ~n:10 ~at:1.0 ~fraction:0.0));
  let all = Failure.crash_fraction ~rng ~n:10 ~at:1.0 ~fraction:1.0 in
  let sites =
    List.map
      (fun e -> match e.Failure.event with Failure.Crash i -> i | _ -> -1)
      all
  in
  Alcotest.(check int) "fraction 1 crashes everybody" 10
    (List.length (List.sort_uniq compare sites));
  Alcotest.(check bool) "single site" true
    (match Failure.crash_fraction ~rng ~n:1 ~at:1.0 ~fraction:1.0 with
    | [ { Failure.time = 1.0; event = Failure.Crash 0 } ] -> true
    | _ -> false)

(* Each site's renewal process must strictly alternate crash → recover in
   time order — two consecutive crashes would make a schedule that
   [Failure.apply]'s idempotent transitions silently swallow. *)
let test_random_crash_recovery_alternates () =
  let rng = Dsutil.Rng.create 29 in
  let entries =
    Failure.random_crash_recovery ~rng ~n:10 ~horizon:500.0 ~mtbf:50.0
      ~mttr:10.0
  in
  let down = Hashtbl.create 10 in
  List.iter
    (fun e ->
      match e.Failure.event with
      | Failure.Crash i ->
        Alcotest.(check bool) "crash only from up" false
          (Hashtbl.mem down i);
        Hashtbl.replace down i ()
      | Failure.Recover i ->
        Alcotest.(check bool) "recover only from down" true
          (Hashtbl.mem down i);
        Hashtbl.remove down i
      | _ -> ())
    entries

(* Regression: a message reaching an up, reachable site that never
   installed a handler used to be booked as [dropped_crash], polluting
   failure statistics.  It is a wiring bug and gets its own counter. *)
let test_no_handler_counter () =
  let engine, net = make () in
  Network.send net ~src:0 ~dst:1 ();
  Engine.run engine;
  Alcotest.(check int) "no_handler" 1 (Network.dropped_no_handler net);
  Alcotest.(check int) "not a crash" 0 (Network.dropped_crash net);
  (* A genuinely crashed destination still books as a crash drop. *)
  Network.crash net 2;
  Network.send net ~src:0 ~dst:2 ();
  Engine.run engine;
  Alcotest.(check int) "crash unchanged by wiring bugs" 1 (Network.dropped_crash net);
  Alcotest.(check int) "no_handler stays" 1 (Network.dropped_no_handler net)

(* Wrapping every installed handler observes each delivery once, before
   the site's own handler runs: here, a write's full 2PC message flow. *)
let test_wrapped_handlers () =
  let proto = Arbitrary.Quorums.protocol (Arbitrary.Tree.figure1 ()) in
  let engine = Engine.create () in
  let net = Network.create ~engine ~n:10 () in
  let _replicas = Array.init 8 (fun site -> Replication.Replica.create ~site ~net ()) in
  let coord = Replication.Coordinator.create ~site:8 ~net ~proto () in
  Alcotest.(check bool) "no handler at site 9" true (Network.handler net ~site:9 = None);
  let seen = ref [] in
  for site = 0 to 9 do
    Option.iter
      (fun h ->
        Network.set_handler net ~site (fun ~src msg ->
            seen := Format.asprintf "%a" Replication.Message.pp msg :: !seen;
            h ~src msg))
      (Network.handler net ~site)
  done;
  let ok = ref false in
  Replication.Coordinator.write coord ~key:1 ~value:"x" (fun r -> ok := r <> None);
  Engine.run engine;
  Alcotest.(check bool) "write completed" true !ok;
  Alcotest.(check int) "one line per delivery" (Network.delivered net) (List.length !seen);
  let count prefix =
    List.length (List.filter (String.starts_with ~prefix) !seen)
  in
  Alcotest.(check bool) "prepares seen" true (count "prepare(" > 0);
  Alcotest.(check int) "one commit per prepare" (count "prepare(") (count "commit(")

let test_obs_mirrors_counters () =
  let engine, net = make () in
  let obs = Obs.create () in
  Network.attach_obs net obs;
  Network.set_handler net ~site:1 (fun ~src:_ _ -> ());
  Network.send net ~src:0 ~dst:1 ();
  Network.send net ~src:0 ~dst:3 ();
  (* no handler at 3 *)
  Engine.run engine;
  let m = Obs.metrics obs in
  Alcotest.(check int) "net.sent" 2 (Obs.Metrics.counter_of m "net.sent");
  Alcotest.(check int) "net.delivered" 1
    (Obs.Metrics.counter_of m "net.delivered");
  Alcotest.(check int) "net.dropped.no_handler" 1
    (Obs.Metrics.counter_of m "net.dropped.no_handler");
  Alcotest.(check int) "per-site sent" 2
    (Obs.Metrics.counter_of m "net.site.0.sent");
  Alcotest.(check int) "per-site delivered" 1
    (Obs.Metrics.counter_of m "net.site.1.delivered")

(* A late attach misses nothing: per-site names read the whole run. *)
let test_late_attach_counts_every_send () =
  let engine, net = make () in
  Network.set_handler net ~site:1 (fun ~src:_ _ -> ());
  let send k =
    for _ = 1 to k do
      Network.send net ~src:0 ~dst:1 ()
    done;
    Engine.run engine
  in
  send 50;
  let obs = Obs.create () in
  Network.attach_obs net obs;
  send 10;
  let m = Obs.metrics obs in
  Alcotest.(check int) "net.site.0.sent" 60 (Obs.Metrics.counter_of m "net.site.0.sent");
  Alcotest.(check int) "net.site.1.delivered" 60
    (Obs.Metrics.counter_of m "net.site.1.delivered");
  Alcotest.(check int) "net.sent" 60 (Obs.Metrics.counter_of m "net.sent")

(* Networks attached to one registry sum under each name. *)
let test_attached_networks_sum () =
  let engine = Engine.create ~seed:5 () in
  let net () =
    let net = Network.create ~engine ~n:4 () in
    Network.set_handler net ~site:1 (fun ~src:_ _ -> ());
    net
  in
  let a = net () and b = net () in
  for _ = 1 to 7 do
    Network.send a ~src:0 ~dst:1 ()
  done;
  for _ = 1 to 3 do
    Network.send b ~src:2 ~dst:1 ()
  done;
  Engine.run engine;
  let obs = Obs.create () in
  Network.attach_obs a obs;
  Network.attach_obs b obs;
  let m = Obs.metrics obs in
  Alcotest.(check int) "net.sent" 10 (Obs.Metrics.counter_of m "net.sent");
  Alcotest.(check int) "net.delivered" 10 (Obs.Metrics.counter_of m "net.delivered");
  Alcotest.(check int) "net.site.1.delivered" 10
    (Obs.Metrics.counter_of m "net.site.1.delivered");
  Alcotest.(check int) "net.site.2.sent" 3 (Obs.Metrics.counter_of m "net.site.2.sent")

let test_loss_rate_midrun_counter_consistency () =
  (* The rate starts at zero, rises mid-run, and obs is only attached
     after drops already happened: the registry reads the network's own
     counter, so the two agree (end-of-run healing flips the rate back to
     zero the same way). *)
  let engine, net = make ~latency:(Latency.Constant 1.0) () in
  Network.set_handler net ~site:1 (fun ~src:_ _ -> ());
  for _ = 1 to 50 do
    Network.send net ~src:0 ~dst:1 ()
  done;
  Engine.run engine;
  Alcotest.(check int) "no drops at rate 0" 0
    (Network.dropped_loss net);
  Network.set_loss_rate net 0.9;
  for _ = 1 to 200 do
    Network.send net ~src:0 ~dst:1 ()
  done;
  Engine.run engine;
  let before_attach = Network.dropped_loss net in
  Alcotest.(check bool) "raised rate drops" true (before_attach > 0);
  let obs = Obs.create () in
  Network.attach_obs net obs;
  let m = Obs.metrics obs in
  Alcotest.(check int) "registry counts drops before the attach" before_attach
    (Obs.Metrics.counter_of m "net.dropped.loss");
  (* back to lossless (end-of-run healing): both sources freeze together *)
  Network.set_loss_rate net 0.0;
  for _ = 1 to 50 do
    Network.send net ~src:0 ~dst:1 ()
  done;
  Engine.run engine;
  Alcotest.(check int) "no further drops after reset" before_attach
    (Network.dropped_loss net);
  Alcotest.(check int) "sources agree at the end" (Network.dropped_loss net)
    (Obs.Metrics.counter_of m "net.dropped.loss");
  Alcotest.(check int) "delivered seed agrees too" (Network.delivered net)
    (Obs.Metrics.counter_of m "net.delivered")

(* -- Overload model ------------------------------------------------------ *)

let test_service_serializes () =
  (* A 2.0 service time with zero network latency: three messages sent
     together are delivered at 2, 4, 6 — single server, FIFO. *)
  let engine, net = make ~latency:(Latency.Constant 0.0) () in
  Network.set_service net ~site:1 ~service_time:2.0 ();
  let at = ref [] in
  Network.set_handler net ~site:1 (fun ~src:_ msg ->
      at := (msg, Engine.now engine) :: !at);
  Network.send net ~src:0 ~dst:1 "a";
  Network.send net ~src:0 ~dst:1 "b";
  Network.send net ~src:0 ~dst:1 "c";
  Engine.run engine;
  Alcotest.(check (list (pair string (float 1e-9))))
    "FIFO service completions"
    [ ("a", 2.0); ("b", 4.0); ("c", 6.0) ]
    (List.rev !at)

let test_overload_drop_counter () =
  (* Capacity 2 and a slow server: the bound covers the head in service
     plus one waiting; the rest are turned away into dropped.overload. *)
  let engine, net = make ~latency:(Latency.Constant 0.0) () in
  Network.set_service net ~site:1 ~capacity:2 ~service_time:10.0 ();
  let got = ref 0 in
  Network.set_handler net ~site:1 (fun ~src:_ _ -> incr got);
  for _ = 1 to 6 do
    Network.send net ~src:0 ~dst:1 ()
  done;
  Engine.run engine;
  Alcotest.(check int) "peak tracks bound" 2 (Network.queue_peak net 1);
  Alcotest.(check int) "two delivered" 2 !got;
  Alcotest.(check int) "dropped.overload" 4 (Network.dropped_overload net);
  Alcotest.(check int) "not conflated with loss" 0 (Network.dropped_loss net);
  Alcotest.(check int) "drained" 0 (Network.queue_depth net 1)

let test_overflow_callback_and_priority () =
  let engine, net = make ~latency:(Latency.Constant 0.0) () in
  Network.set_service net ~site:1 ~capacity:1 ~service_time:5.0 ();
  let overflowed = ref [] in
  Network.set_overflow net ~site:1 (fun ~src msg ->
      overflowed := (src, msg) :: !overflowed);
  (* "vip" messages bypass the capacity bound but still queue FIFO. *)
  Network.set_priority net ~site:1 (fun ~src:_ msg -> msg = "vip");
  let got = ref [] in
  Network.set_handler net ~site:1 (fun ~src:_ msg -> got := msg :: !got);
  Network.send net ~src:0 ~dst:1 "a";
  Network.send net ~src:2 ~dst:1 "b";
  Network.send net ~src:3 ~dst:1 "c";
  Network.send net ~src:0 ~dst:1 "vip";
  Engine.run engine;
  Alcotest.(check (list string)) "vip admitted over full queue"
    [ "a"; "vip" ] (List.rev !got);
  Alcotest.(check (list (pair int string)))
    "overflow callback saw each shed message"
    [ (2, "b"); (3, "c") ]
    (List.rev !overflowed);
  Alcotest.(check int) "counted" 2
    (Network.dropped_overload net)

let test_crash_clears_service_queue () =
  let engine, net = make ~latency:(Latency.Constant 0.0) () in
  Network.set_service net ~site:1 ~service_time:10.0 ();
  let got = ref 0 in
  Network.set_handler net ~site:1 (fun ~src:_ _ -> incr got);
  for _ = 1 to 4 do
    Network.send net ~src:0 ~dst:1 ()
  done;
  (* First delivery at t=10; crash at t=12 wipes the three still queued. *)
  Engine.schedule engine ~delay:12.0 (fun () -> Network.crash net 1);
  Engine.run engine;
  Alcotest.(check int) "only the head was served" 1 !got;
  Alcotest.(check int) "queued messages die with the crash" 3
    (Network.dropped_crash net);
  Alcotest.(check int) "queue empty" 0 (Network.queue_depth net 1);
  (* Recovery serves fresh traffic; no stale completion fires. *)
  Network.recover net 1;
  Network.send net ~src:0 ~dst:1 ();
  Engine.run engine;
  Alcotest.(check int) "post-recovery delivery" 2 !got

let test_no_service_unchanged () =
  (* Sites without a service keep the plain delivery path: a seeded run
     is bit-identical whether or not some *other* site has a service. *)
  let run with_service =
    let engine, net = make ~n:3 () in
    if with_service then
      Network.set_service net ~site:2 ~capacity:4 ~service_time:9.0 ();
    let log = ref [] in
    Network.set_handler net ~site:1 (fun ~src:_ msg ->
        log := (msg, Engine.now engine) :: !log);
    for i = 1 to 20 do
      Network.send net ~src:0 ~dst:1 i
    done;
    Engine.run engine;
    !log
  in
  Alcotest.(check (list (pair int (float 0.0))))
    "same deliveries" (run false) (run true)

let suite =
  [
    Alcotest.test_case "delivery" `Quick test_delivery;
    Alcotest.test_case "latency applied" `Quick test_latency_applied;
    Alcotest.test_case "crashed destination drops" `Quick test_crash_drops;
    Alcotest.test_case "crashed sender drops" `Quick test_crashed_sender_drops;
    Alcotest.test_case "crash while in flight" `Quick test_crash_at_delivery_time;
    Alcotest.test_case "partition" `Quick test_partition;
    Alcotest.test_case "loss rate" `Quick test_loss_rate;
    Alcotest.test_case "alive view" `Quick test_alive_view;
    Alcotest.test_case "alive view incremental consistency" `Quick
      test_alive_view_incremental;
    Alcotest.test_case "broadcast / per-site counts" `Quick
      test_broadcast_and_per_site;
    Alcotest.test_case "failure schedule" `Quick test_failure_schedule;
    Alcotest.test_case "random crash/recovery schedule" `Quick
      test_random_crash_recovery_stats;
    Alcotest.test_case "crash fraction" `Quick test_crash_fraction;
    Alcotest.test_case "crash hooks fire once per transition" `Quick
      test_crash_hooks_idempotent;
    Alcotest.test_case "failure apply rejects past entries" `Quick
      test_failure_apply_rejects_past;
    Alcotest.test_case "failure apply sorts entries" `Quick
      test_failure_apply_sorts;
    Alcotest.test_case "crash fraction edge cases" `Quick
      test_crash_fraction_edges;
    Alcotest.test_case "random crash/recovery alternates per site" `Quick
      test_random_crash_recovery_alternates;
    Alcotest.test_case "no-handler drop counter" `Quick test_no_handler_counter;
    Alcotest.test_case "wrapped handlers see every delivery" `Quick test_wrapped_handlers;
    Alcotest.test_case "obs mirrors net counters" `Quick
      test_obs_mirrors_counters;
    Alcotest.test_case "late attach counts every send" `Quick
      test_late_attach_counts_every_send;
    Alcotest.test_case "networks on one registry sum" `Quick
      test_attached_networks_sum;
    Alcotest.test_case "mid-run set_loss_rate keeps counter sources agreeing"
      `Quick test_loss_rate_midrun_counter_consistency;
    Alcotest.test_case "service time serializes delivery" `Quick
      test_service_serializes;
    Alcotest.test_case "bounded queue drops into dropped.overload" `Quick
      test_overload_drop_counter;
    Alcotest.test_case "overflow callback and priority lane" `Quick
      test_overflow_callback_and_priority;
    Alcotest.test_case "crash clears the service queue" `Quick
      test_crash_clears_service_queue;
    Alcotest.test_case "unserviced sites unchanged" `Quick
      test_no_service_unchanged;
  ]
