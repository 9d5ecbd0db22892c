(* Seeded runs pinned by fingerprint: paths no other fingerprint covers.
   Each digest was recorded before the message path was made
   allocation-free (boxed service closures, tuple service queue, list
   WAL); any drift in an RNG draw, an event's push order or a WAL
   truncation moves it.

   - a per-site service model whose crash wipes a non-empty ingress queue
     and fences the completion event already in flight, with a bounded
     capacity whose overflow turns into [Busy] nacks;
   - an amnesia run under an [Async] WAL that crashes, truncates, replays
     and provisions from a donor's committed tail. *)

module Engine = Dsim.Engine
module Network = Dsim.Network
module Latency = Dsim.Latency
module Failure = Dsim.Failure
module Harness = Replication.Harness
module Coordinator = Replication.Coordinator

let digest s = Digest.to_hex (Digest.string s)

(* Network level: site 0 serves one message per 1.5 time units from a
   queue of capacity 4.  Three senders burst at it, it crashes while its
   queue is non-empty (so a completion is in flight), recovers and takes
   a second burst.  The log records every delivery and overflow with its
   time, sender and payload. *)
let service_trace latency =
  let engine = Engine.create ~seed:7 () in
  let net = Network.create ~engine ~n:4 ~latency () in
  Network.set_service net ~site:0 ~capacity:4 ~service_time:1.5 ();
  let b = Buffer.create 1024 in
  Network.set_handler net ~site:0 (fun ~src msg ->
      Printf.bprintf b "d%h:%d:%d;" (Engine.now engine) src msg);
  Network.set_overflow net ~site:0 (fun ~src msg ->
      Printf.bprintf b "o%h:%d:%d;" (Engine.now engine) src msg);
  let depth_at_crash = ref 0 in
  let burst base =
    for i = 0 to 11 do
      Network.send net ~src:(1 + (i mod 3)) ~dst:0 (base + i)
    done
  in
  burst 0;
  Engine.schedule engine ~delay:2.5 (fun () ->
      depth_at_crash := Network.queue_depth net 0;
      Network.crash net 0);
  Engine.schedule engine ~delay:3.2 (fun () -> Network.recover net 0);
  Engine.schedule engine ~delay:3.5 (fun () -> burst 100);
  Engine.run engine;
  Printf.bprintf b "sent=%d;del=%d;crash=%d;over=%d;peak=%d;end=%h"
    (Network.sent net) (Network.delivered net) (Network.dropped_crash net)
    (Network.dropped_overload net) (Network.queue_peak net 0) (Engine.now engine);
  (!depth_at_crash, Network.dropped_overload net, Buffer.contents b)

let check_service_trace name latency fp =
  let depth, overflowed, log = service_trace latency in
  Alcotest.(check bool) (name ^ ": crash hit a non-empty queue") true (depth > 1);
  Alcotest.(check bool) (name ^ ": capacity overflowed") true (overflowed > 0);
  Alcotest.(check string) (name ^ ": pinned trace") fp (digest log)

let test_service_queue_trace () =
  check_service_trace "exponential" (Latency.Exponential 1.0)
    "7f1cf78be09515b3bb74370a0dbb9cb1";
  check_service_trace "uniform" (Latency.Uniform (0.2, 0.9))
    "7c5e8f103555411ba63fd338e349eb2e"

(* Harness level: every replica of ARBITRARY n=9 serves behind a queue of
   capacity 4 (no watermark shedding, so every Busy is an overflow), a
   flash crowd saturates them, and rolling fail-stop crashes wipe busy
   queues. *)
let test_service_model_run () =
  let proto = Eval.Config_metrics.protocol_of Arbitrary.Config.Arbitrary ~n:9 in
  let failures =
    List.concat_map
      (fun c ->
        let at = 40.0 +. (30.0 *. float_of_int c) in
        Failure.
          [
            { time = at; event = Crash (c mod 9) };
            { time = at +. 12.0; event = Recover (c mod 9) };
          ])
      (List.init 8 Fun.id)
  in
  let r =
    Harness.run
      {
        (Harness.default_scenario ~proto) with
        Harness.n_clients = 4;
        ops_per_client = 40;
        think_time = 2.0;
        key_space = 16;
        seed = 17;
        horizon = 5000.0;
        failures;
        coordinator =
          { Coordinator.default_config with Coordinator.timeout = 20.0; max_retries = 8 };
        overload =
          Some
            {
              Harness.overload_defaults with
              Harness.queue_capacity = 4;
              service_time = 1.0;
              burst =
                Some
                  {
                    Harness.burst_at = 30.0;
                    burst_clients = 8;
                    burst_ops = 12;
                    burst_think = 0.3;
                  };
            };
      }
  in
  Alcotest.(check bool) "capacity overflowed" true (r.Harness.overload_drops > 0);
  Alcotest.(check bool) "overflow answered with Busy" true (r.Harness.busy_received > 0);
  Alcotest.(check int) "no safety violations" 0 r.Harness.safety_violations;
  Alcotest.(check string) "pinned fingerprint" "9898250bd4c6476bfeb5d545eb6cb188"
    (digest (Eval.Batching.fingerprint r))

(* Amnesia under an Async WAL: the rejoining replica crashes again
   mid-transfer, loses its un-flushed suffix, replays what survived,
   resumes from its newest durable chunk mark and finishes from the
   donor's committed tail. *)
let test_async_provisioning_run () =
  let n = 7 in
  let proto = Eval.Config_metrics.protocol_of Arbitrary.Config.Unmodified ~n in
  let a =
    Harness.run
      {
        (Harness.churn_scenario ~proto) with
        n_clients = 3;
        ops_per_client = 40;
        key_space = 8;
        think_time = 3.0;
        seed = 5;
        horizon = 3000.0;
        wal = Replication.Wal.Async 2.0;
        coordinator =
          {
            Coordinator.default_config with
            Coordinator.max_retries = 8;
            adaptive_timeout = true;
            deadline = 600.0;
          };
        failures =
          Failure.
            [
              { time = 60.0; event = Crash (n - 1) };
              { time = 100.0; event = Recover (n - 1) };
              { time = 104.0; event = Crash (n - 1) };
              { time = 160.0; event = Recover (n - 1) };
            ];
        churn = Some { spares = 1; membership = []; chunk_size = 1; fence = true };
      }
  in
  Alcotest.(check bool) "transfers ran" true (a.Harness.provision_runs > 0);
  Alcotest.(check bool) "resumed from a durable mark" true
    (a.Harness.provision_resumes > 0);
  Alcotest.(check bool) "the crash truncated the log" true
    (a.Harness.wal_records_lost > 0);
  Alcotest.(check bool) "recovery replayed the log" true
    (a.Harness.wal_records_replayed > 0);
  let fp =
    Printf.sprintf
      "dur=%h;r=%d/%d;w=%d/%d;retries=%d;sv=%d;pv=%d/%d/%d/%d/%d/%d;fr=%d;wal=%d/%d;inc=%s;st=%s;del=%d"
      a.Harness.duration a.Harness.reads_ok a.Harness.reads_failed
      a.Harness.writes_ok a.Harness.writes_failed a.Harness.retries
      a.Harness.safety_violations a.Harness.provision_runs
      a.Harness.provision_chunks a.Harness.provision_resumes
      a.Harness.provision_donor_failovers a.Harness.provision_rounds
      a.Harness.provision_stale a.Harness.failed_rejoins
      a.Harness.wal_records_replayed a.Harness.wal_records_lost
      (String.concat "," (Array.to_list (Array.map string_of_int a.Harness.replica_incarnations)))
      (String.concat "," (Array.to_list a.Harness.replica_status))
      a.Harness.messages_delivered
  in
  Alcotest.(check string) "pinned fingerprint" "5e4309dd11e81fd0d4c7a486b26b8de3" (digest fp)

let suite =
  [
    Alcotest.test_case "service queue: crash wipe, fencing, overflow" `Quick
      test_service_queue_trace;
    Alcotest.test_case "service-model run with crashes and Busy" `Quick
      test_service_model_run;
    Alcotest.test_case "async WAL amnesia run with provisioning" `Quick
      test_async_provisioning_run;
  ]
