(* One counter source: the registry of a traced run holds the components'
   own counter handles.  Its names are exactly the docs/PROTOCOL.md §8
   catalogue, and the harness report's counter snapshot, which sums the
   same handles, equals it under every name. *)

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
let provisioning () =
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

let transactions () =
  let tree = Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n:13 in
  Harness.txn_scenario ~proto:(Arbitrary.Quorums.protocol tree)

(* Heartbeat monitors instead of the oracle, under amnesia crashes: the
   only cell here whose clients ping. *)
let heartbeat () =
  {
    (Harness.default_scenario ~proto:(proto ())) with
    n_clients = 2;
    ops_per_client = 10;
    seed = 5;
    crash_mode = Dsim.Network.Amnesia;
    failures =
      [
        { Failure.time = 5.0; event = Failure.Crash 2 };
        { Failure.time = 30.0; event = Failure.Recover 2 };
      ];
    detector = Harness.Heartbeat { Detect.Heartbeat.period = 5.0 };
  }

(* Every scenario of this file, as a run that returns its report. *)
let runs =
  [
    ("S=4 overload+amnesia",
     fun obs -> (Shard_harness.run ?obs (overloaded_amnesia ())).agg);
    ("batched", fun obs -> Harness.run ?obs (batched ()));
    ("provisioning", fun obs -> Harness.run ?obs (provisioning ()));
    ("transactions", fun obs -> Harness.run ?obs (transactions ()));
    ("heartbeat", fun obs -> Harness.run ?obs (heartbeat ()));
  ]

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
  List.iter (fun (_, run) -> ignore (run (Some obs))) runs;
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

(* A transaction run's tally reads every counter after the snapshot is
   taken, in batches over the same networks and replicas, so the registry
   also holds its messages, their coalesced ops and the replicas' reads;
   nothing else moves after the snapshot. *)
let tally_moves = [ "net.sent"; "net.delivered"; "net.coalesced"; "replica.reads_served" ]

let check_snapshot label ~tally (r : Harness.report) m =
  List.iter
    (fun (name, v) ->
      let registry = Metrics.counter_of m name in
      if tally && List.mem name tally_moves then
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s = %d before the tally <= %d" label name v registry)
          true (v <= registry)
      else Alcotest.(check int) (label ^ ": " ^ name) registry v)
    (Harness.counters r)

let test_report_equals_registry () =
  let obs = Obs.create () in
  let traced = (Shard_harness.run ~obs (overloaded_amnesia ())).Shard_harness.agg in
  let untraced = (Shard_harness.run (overloaded_amnesia ())).Shard_harness.agg in
  let r = traced and m = Obs.metrics obs in
  let count = Harness.count r in
  Alcotest.(check bool) "the run crashed, shed and retried" true
    (count "replica.catchup.runs" > 0 && count "replica.shed" > 0 && count "coord.retries" > 0);
  check_snapshot "S=4" ~tally:false r m;
  Alcotest.(check (list int)) "the kept fields read the snapshot"
    (List.map count
       [ "coord.reads.ok"; "coord.reads.failed"; "coord.writes.ok"; "coord.writes.failed";
         "net.sent"; "net.delivered"; "replica.wal.syncs" ])
    [ r.Harness.reads_ok; r.reads_failed; r.writes_ok; r.writes_failed; r.messages_sent;
      r.messages_delivered; r.wal_syncs ];
  Alcotest.(check int) "messages_dropped = net.dropped.*"
    (List.fold_left
       (fun acc why -> acc + Metrics.counter_of m ("net.dropped." ^ why))
       0
       [ "loss"; "crash"; "partition"; "no_handler"; "overload" ])
    (Harness.messages_dropped r);
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

(* The other scenarios: the snapshot equals the registry under every
   name, and an untraced run takes the same snapshot, since counting never
   depends on the registry. *)
let test_snapshots () =
  List.iter
    (fun (label, run) ->
      let obs = Obs.create () in
      let traced = run (Some obs) in
      check_snapshot label ~tally:(label = "transactions") traced (Obs.metrics obs);
      Alcotest.(check (list (pair string int)))
        (label ^ ": untraced snapshot = traced snapshot")
        (Harness.counters traced)
        (Harness.counters (run None)))
    (List.tl runs)

let test_unknown_names_raise () =
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  let r = Harness.run (batched ()) in
  Alcotest.(check bool) "Harness.count" true
    (raises (fun () -> Harness.count r "coord.retry"));
  let engine = Dsim.Engine.create ~seed:1 () in
  let net = Dsim.Network.create ~engine ~n:1 () in
  let replica = Replication.Replica.create ~site:0 ~net () in
  Alcotest.(check int) "Replica.count reads a known name" 0
    (Replication.Replica.count replica "replica.reads_served");
  Alcotest.(check bool) "Replica.count" true
    (raises (fun () -> Replication.Replica.count replica "replica.read_served"))

let suite =
  [
    Alcotest.test_case "catalogue pattern matcher" `Quick test_matcher;
    Alcotest.test_case "registry names = PROTOCOL.md §8 catalogue" `Quick
      test_catalogue_matches_registry;
    Alcotest.test_case "report = registry on S=4 overload+amnesia" `Quick
      test_report_equals_registry;
    Alcotest.test_case "snapshot = registry, traced or not, on every scenario" `Quick
      test_snapshots;
    Alcotest.test_case "count raises on an unknown name" `Quick test_unknown_names_raise;
  ]
