(* One counter source: the registry of a traced run holds the components'
   own counter handles.  Its names are exactly the docs/PROTOCOL.md §8
   catalogue, and the harness report, which sums the same handles, equals
   it under every name. *)

module Harness = Replication.Harness
module Shard_harness = Replication.Shard_harness
module Metrics = Obs.Metrics
module Failure = Dsim.Failure

let proto () = Arbitrary.Quorums.protocol (Arbitrary.Tree.of_spec "1-3-5")

(* S = 4 under overload (service queues, shedding, budget, breaker and a
   flash crowd) and amnesia crash-recovery of three sites per tree. *)
let overloaded_amnesia () =
  let failures =
    List.concat_map
      (fun s ->
        [
          { Failure.time = 15.0 +. float_of_int s; event = Failure.Crash s };
          { Failure.time = 45.0 +. float_of_int s; event = Failure.Recover s };
        ])
      [ 0; 1; 2 ]
  in
  let overload =
    {
      Harness.queue_capacity = 6;
      service_time = 2.0;
      slow_sites = [ (0, 6.0) ];
      shed_watermark = 3;
      retry_budget = Some { Detect.Budget.ratio = 0.2; burst = 10.0 };
      breaker =
        Some
          {
            Detect.Breaker.threshold = 3;
            cooldown = 40.0;
            cooldown_factor = 2.0;
            max_cooldown = 160.0;
          };
      burst =
        Some
          {
            Harness.burst_at = 10.0;
            burst_clients = 16;
            burst_ops = 10;
            burst_think = 0.05;
          };
    }
  in
  let base =
    {
      (Harness.default_scenario ~proto:(proto ())) with
      n_clients = 4;
      ops_per_client = 30;
      key_space = 64;
      seed = 42;
      crash_mode = Dsim.Network.Amnesia;
      failures;
      overload = Some overload;
      coordinator = { Eval.Chaos.chaos_coordinator with max_retries = 12 };
    }
  in
  { (Shard_harness.default ~proto:base.Harness.proto ~shards:4) with base }

let batched () =
  {
    (Harness.default_scenario ~proto:(proto ())) with
    n_clients = 3;
    ops_per_client = 24;
    seed = 7;
    batching = Some { Harness.batch_size = 8; group_commit = true; pipeline = 2 };
  }

(* A provisioning rejoin through a churn run without spares: a snapshot
   + tail transfer when site 1 comes back. *)
let provisioning obs =
  let scenario =
    {
      (Harness.default_scenario ~proto:(proto ())) with
      n_clients = 3;
      ops_per_client = 30;
      seed = 3;
      failures =
        [
          { Failure.time = 20.0; event = Failure.Crash 1 };
          { Failure.time = 60.0; event = Failure.Recover 1 };
        ];
      churn = Some { spares = 0; membership = []; chunk_size = 2; fence = true };
    }
  in
  ignore (Harness.run ~obs scenario)

let transactions obs =
  let tree = Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n:13 in
  ignore (Harness.run ~obs (Harness.txn_scenario ~proto:(Arbitrary.Quorums.protocol tree)))

let names obs =
  let m = Obs.metrics obs in
  List.map fst (Metrics.counters m) @ List.map fst (Metrics.histograms m)

(* --- the §8 catalogue ------------------------------------------------------ *)

(* The first backquoted cell of every row of the "Metric catalogue"
   table. *)
let catalogue () =
  let lines = In_channel.with_open_text "../docs/PROTOCOL.md" In_channel.input_lines in
  let rec skip = function
    | [] -> []
    | l :: rest -> if l = "### Metric catalogue" then rest else skip rest
  in
  let rec rows acc = function
    | l :: _ when String.starts_with ~prefix:"#" l -> List.rev acc
    | l :: rest when String.starts_with ~prefix:"| `" l ->
      let name = List.nth (String.split_on_char '`' l) 1 in
      rows (name :: acc) rest
    | _ :: rest -> rows acc rest
    | [] -> List.rev acc
  in
  rows [] (skip lines)

(* [<i>] stands for a site number, [<op>] and [<kind>] for a (dotted)
   lower-case name. *)
let matches pattern name =
  let digit c = c >= '0' && c <= '9' in
  let word c = (c >= 'a' && c <= 'z') || c = '_' || c = '.' in
  let np = String.length pattern and nn = String.length name in
  let rec go p i =
    if p = np then i = nn
    else if pattern.[p] = '<' then begin
      let close = String.index_from pattern p '>' in
      let ok = if String.sub pattern p (close - p + 1) = "<i>" then digit else word in
      (* the wildcard covers [i, j) for some j > i *)
      let rec span j =
        (j > i && go (close + 1) j) || (j < nn && ok name.[j] && span (j + 1))
      in
      i < nn && ok name.[i] && span (i + 1)
    end
    else i < nn && pattern.[p] = name.[i] && go (p + 1) (i + 1)
  in
  go 0 0

let test_matcher () =
  Alcotest.(check bool) "site" true (matches "net.site.<i>.sent" "net.site.12.sent");
  Alcotest.(check bool) "not a site" false
    (matches "net.site.<i>.sent" "net.site.x.sent");
  Alcotest.(check bool) "dotted op" true (matches "ops.<op>.ok" "ops.rpc.read.ok");
  Alcotest.(check bool) "literal" false (matches "net.sent" "net.sent.x")

let test_catalogue_matches_registry () =
  let obs = Obs.create () in
  ignore (Shard_harness.run ~obs (overloaded_amnesia ()));
  ignore (Harness.run ~obs (batched ()));
  provisioning obs;
  transactions obs;
  let emitted = List.sort_uniq String.compare (names obs) in
  let catalogue = catalogue () in
  Alcotest.(check bool) "catalogue parsed" true (List.length catalogue > 40);
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "registry name %s is catalogued" name)
        true
        (List.exists (fun p -> matches p name) catalogue))
    emitted;
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "catalogue entry %s is emitted" p)
        true
        (List.exists (matches p) emitted))
    catalogue

(* --- report = registry ----------------------------------------------------- *)

let sum = Array.fold_left ( + ) 0

let test_report_equals_registry () =
  let obs = Obs.create () in
  let traced = (Shard_harness.run ~obs (overloaded_amnesia ())).Shard_harness.agg in
  let untraced = (Shard_harness.run (overloaded_amnesia ())).Shard_harness.agg in
  let r = traced and m = Obs.metrics obs in
  Alcotest.(check bool) "the run crashed, shed and retried" true
    (r.Harness.catchup_runs > 0 && r.Harness.replica_sheds > 0 && r.Harness.retries > 0);
  let dropped =
    List.fold_left
      (fun acc why -> acc + Metrics.counter_of m ("net.dropped." ^ why))
      0
      [ "loss"; "crash"; "partition"; "no_handler"; "overload" ]
  in
  Alcotest.(check int) "messages_dropped = net.dropped.*" r.Harness.messages_dropped
    dropped;
  List.iter
    (fun (name, v) -> Alcotest.(check int) name v (Metrics.counter_of m name))
    [
      ("coord.reads.ok", r.Harness.reads_ok);
      ("coord.reads.failed", r.Harness.reads_failed);
      ("coord.writes.ok", r.Harness.writes_ok);
      ("coord.writes.failed", r.Harness.writes_failed);
      ("coord.retries", r.Harness.retries);
      ("coord.deadline_exceeded", r.Harness.deadline_exceeded);
      ("coord.stale_inc.rejected", r.Harness.stale_incarnation_rejections);
      ("coord.busy_received", r.Harness.busy_received);
      ("coord.retries_suppressed", r.Harness.retries_suppressed);
      ("coord.batches", r.Harness.batches);
      ("net.sent", r.Harness.messages_sent);
      ("net.delivered", r.Harness.messages_delivered);
      ("net.dropped.overload", r.Harness.overload_drops);
      ("net.coalesced", r.Harness.coalesced_ops);
      ("breaker.trips", r.Harness.breaker_trips);
      ("replica.reads_served", sum r.Harness.replica_reads_served);
      ("replica.prepares_seen", sum r.Harness.replica_prepares_seen);
      ("replica.writes_applied", sum r.Harness.replica_writes_applied);
      ("replica.recoveries", sum r.Harness.replica_incarnations);
      ("replica.shed", r.Harness.replica_sheds);
      ("replica.stale_inc.nacked", r.Harness.stale_commits_nacked);
      ("replica.wal.replayed", r.Harness.wal_records_replayed);
      ("replica.catchup.runs", r.Harness.catchup_runs);
      ("replica.catchup.keys_installed", r.Harness.catchup_keys_installed);
      ("replica.catchup.abandoned", r.Harness.catchup_abandoned);
      ("replica.rejoin.failed", r.Harness.failed_rejoins);
      ("provision.runs", r.Harness.provision_runs);
      ("provision.chunks", r.Harness.provision_chunks);
      ("provision.resumes", r.Harness.provision_resumes);
      ("provision.donor_failovers", r.Harness.provision_donor_failovers);
      ("provision.rounds", r.Harness.provision_rounds);
      ("provision.stale", r.Harness.provision_stale);
    ];
  (* Latency summaries compare by their samples (a [Stats.t]'s spare
     capacity is uninitialized); everything else structurally. *)
  let samples st =
    let n = Dsutil.Stats.count st in
    ( n,
      Dsutil.Stats.mean st,
      Dsutil.Stats.variance st,
      List.map
        (fun q -> if n = 0 then 0.0 else Dsutil.Stats.percentile st q)
        [ 0.0; 0.5; 0.99; 1.0 ] )
  in
  let same f = samples (f traced) = samples (f untraced) in
  Alcotest.(check bool) "read latencies agree" true
    (same (fun r -> r.Harness.read_latency));
  Alcotest.(check bool) "write latencies agree" true
    (same (fun r -> r.Harness.write_latency));
  let rest r =
    let empty = Dsutil.Stats.create () in
    { r with Harness.spans = []; read_latency = empty; write_latency = empty }
  in
  Alcotest.(check bool) "traced report = untraced report, spans aside" true
    (rest traced = rest untraced)

let suite =
  [
    Alcotest.test_case "catalogue pattern matcher" `Quick test_matcher;
    Alcotest.test_case "registry names = PROTOCOL.md §8 catalogue" `Quick
      test_catalogue_matches_registry;
    Alcotest.test_case "report = registry on S=4 overload+amnesia" `Quick
      test_report_equals_registry;
  ]
