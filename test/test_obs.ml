(* The observability layer: registry semantics, span lifecycle (including
   retries and timed-out phases), sink plumbing, and end-to-end accounting
   when attached to a harness run. *)

module Metrics = Obs.Metrics
module Span = Obs.Span
module Sink = Obs.Sink

(* --- metrics registry ----------------------------------------------------- *)

let test_counter_get_or_create () =
  let m = Metrics.create () in
  let a = Metrics.counter m "net.sent" in
  let b = Metrics.counter m "net.sent" in
  a.Metrics.value <- a.Metrics.value + 1;
  b.Metrics.value <- b.Metrics.value + 4;
  Alcotest.(check int) "shared state" 5 a.Metrics.value;
  Alcotest.(check int) "by name" 5 (Metrics.counter_of m "net.sent");
  Alcotest.(check int) "absent reads 0" 0 (Metrics.counter_of m "no.such")

let test_gauge_and_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  let s = Metrics.summary h in
  Alcotest.(check int) "summary count" 4 (Dsutil.Stats.count s);
  Alcotest.(check (float 1e-9)) "summary mean" 2.5 (Dsutil.Stats.mean s)

let test_enumeration_sorted () =
  let m = Metrics.create () in
  List.iter (fun n -> ignore (Metrics.counter m n)) [ "z"; "a"; "m" ];
  let names = List.map fst (Metrics.counters m) in
  Alcotest.(check (list string)) "sorted" [ "a"; "m"; "z" ] names

(* --- span lifecycle -------------------------------------------------------- *)

(* A hand-cranked clock so phase times are exact. *)
let manual_obs () =
  let now = ref 0.0 in
  let obs = Obs.create ~clock:(fun () -> !now) () in
  (obs, now)

let test_span_happy_path () =
  let obs, now = manual_obs () in
  let mem = Sink.memory () in
  Obs.add_sink obs (Sink.memory_sink mem);
  let sp = Obs.span obs ~op:"read" ~site:7 ~key:3 () in
  Obs.phase obs sp ~kind:Span.Query ~quorum:[ 1; 2; 3 ] ();
  now := 2.0;
  Obs.end_phase obs sp ();
  now := 2.5;
  Obs.finish obs sp ~outcome:Span.Ok;
  let m = Obs.metrics obs in
  Alcotest.(check int) "started" 1 (Metrics.counter_of m "ops.read.started");
  Alcotest.(check int) "ok" 1 (Metrics.counter_of m "ops.read.ok");
  Alcotest.(check int) "no failures" 0 (Metrics.counter_of m "ops.read.failed");
  Alcotest.(check bool) "closed" true (Span.closed sp);
  Alcotest.(check (option (float 1e-9))) "duration" (Some 2.5) (Span.duration sp);
  (match Span.phases sp with
  | [ ph ] ->
    Alcotest.(check (list int)) "quorum" [ 1; 2; 3 ] ph.Span.quorum;
    Alcotest.(check (option (float 1e-9))) "phase latency" (Some 2.0)
      (Span.phase_duration ph);
    Alcotest.(check bool) "not timed out" false ph.Span.timed_out
  | phs -> Alcotest.failf "expected 1 phase, got %d" (List.length phs));
  Alcotest.(check int) "sink got it" 1 (Sink.memory_count mem)

let test_retry_closes_phase_timed_out () =
  let obs, now = manual_obs () in
  let sp = Obs.span obs ~op:"write" ~site:0 () in
  Obs.phase obs sp ~kind:Span.Prepare ~quorum:[ 0; 1 ] ();
  now := 5.0;
  (* The attempt times out: the retry must close the open phase as timed
     out even though no explicit end_phase ran. *)
  Obs.retry obs sp ~backoff:1.5 ();
  Obs.phase obs sp ~kind:Span.Prepare ~quorum:[ 0; 2 ] ();
  now := 8.0;
  Obs.finish obs sp ~outcome:Span.Ok;
  Alcotest.(check int) "attempts" 2 sp.Span.attempts;
  Alcotest.(check int) "retries" 1 (Span.retries sp);
  Alcotest.(check (float 1e-9)) "backoff" 1.5 sp.Span.backoff_total;
  (match Span.phases sp with
  | [ p1; p2 ] ->
    Alcotest.(check bool) "first timed out" true p1.Span.timed_out;
    Alcotest.(check (option (float 1e-9))) "first still closed" (Some 5.0)
      (Span.phase_duration p1);
    Alcotest.(check bool) "second clean" false p2.Span.timed_out;
    Alcotest.(check bool) "second closed by finish" true
      (p2.Span.p_ended <> None)
  | phs -> Alcotest.failf "expected 2 phases, got %d" (List.length phs));
  let m = Obs.metrics obs in
  Alcotest.(check int) "retry counter" 1 (Metrics.counter_of m "ops.write.retries");
  Alcotest.(check int) "phase timeout counter" 1
    (Metrics.counter_of m "phase.prepare.timeout")

let test_explicit_timeout_and_auto_close () =
  let obs, _now = manual_obs () in
  let sp = Obs.span obs ~op:"read" ~site:1 () in
  Obs.phase obs sp ~kind:Span.Query ();
  Obs.set_quorum obs sp [ 4; 5 ];
  Obs.end_phase obs sp ~timed_out:true ();
  (* end_phase with nothing open is a no-op, not an error. *)
  Obs.end_phase obs sp ();
  (* Opening a phase atop an open one closes the old one cleanly. *)
  Obs.phase obs sp ~kind:Span.Query ();
  Obs.phase obs sp ~kind:Span.Commit ();
  Obs.finish obs sp ~outcome:(Span.Failed "gave_up");
  (match Span.phases sp with
  | [ p1; p2; p3 ] ->
    Alcotest.(check bool) "timed out recorded" true p1.Span.timed_out;
    Alcotest.(check (list int)) "set_quorum landed" [ 4; 5 ] p1.Span.quorum;
    Alcotest.(check bool) "auto-closed" true (p2.Span.p_ended <> None);
    Alcotest.(check bool) "auto-close is not a timeout" false p2.Span.timed_out;
    Alcotest.(check bool) "last closed by finish" true (p3.Span.p_ended <> None)
  | phs -> Alcotest.failf "expected 3 phases, got %d" (List.length phs));
  let m = Obs.metrics obs in
  Alcotest.(check int) "failed counter" 1 (Metrics.counter_of m "ops.read.failed")

let test_finish_idempotent_and_accounting () =
  let obs, _ = manual_obs () in
  let mem = Sink.memory () in
  Obs.add_sink obs (Sink.memory_sink mem);
  let a = Obs.span obs ~op:"read" ~site:0 () in
  let b = Obs.span obs ~op:"read" ~site:1 () in
  Alcotest.(check int) "two started" 2 (Obs.spans_started obs);
  Alcotest.(check int) "two open" 2 (Obs.spans_open obs);
  Obs.finish obs a ~outcome:Span.Ok;
  Obs.finish obs a ~outcome:(Span.Failed "again");
  Alcotest.(check int) "double finish emits once" 1 (Sink.memory_count mem);
  Alcotest.(check (option (of_pp Fmt.nop))) "outcome unchanged"
    (Some Span.Ok) a.Span.outcome;
  Alcotest.(check int) "ok counted once" 1
    (Metrics.counter_of (Obs.metrics obs) "ops.read.ok");
  Obs.finish obs b ~outcome:Span.Ok;
  Alcotest.(check int) "all closed" 2 (Obs.spans_closed obs);
  Alcotest.(check int) "none open" 0 (Obs.spans_open obs)

(* --- JSON / sinks ---------------------------------------------------------- *)

let test_span_json () =
  let obs, now = manual_obs () in
  let sp = Obs.span obs ~op:"write" ~site:2 ~key:9 () in
  Obs.phase obs sp ~kind:Span.Prepare ~quorum:[ 0; 3 ] ();
  let open_json = Span.to_json sp in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "open span has null ended" true
    (contains open_json "\"ended\":null");
  now := 3.0;
  Obs.finish obs sp ~outcome:Span.Ok;
  let j = Span.to_json sp in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (Printf.sprintf "has %s" frag) true (contains j frag))
    [
      "\"op\":\"write\""; "\"site\":2"; "\"key\":9"; "\"outcome\":\"ok\"";
      "\"phase\":\"prepare\""; "\"quorum\":[0,3]"; "\"ended\":3";
    ];
  let no_key = Obs.span obs ~op:"read" ~site:0 () in
  Obs.finish obs no_key ~outcome:(Span.Failed "boom");
  let j2 = Span.to_json no_key in
  Alcotest.(check bool) "key omitted" false (contains j2 "\"key\"");
  Alcotest.(check bool) "reason present" true (contains j2 "\"reason\":\"boom\"")

let test_jsonl_sink_round_trip () =
  let obs, _ = manual_obs () in
  let buf = Buffer.create 256 in
  Obs.add_sink obs (Sink.jsonl (Buffer.add_string buf));
  let spans =
    List.map
      (fun i ->
        let sp = Obs.span obs ~op:"read" ~site:i () in
        Obs.finish obs sp ~outcome:Span.Ok;
        sp)
      [ 0; 1; 2 ]
  in
  let expected =
    String.concat "" (List.map (fun sp -> Span.to_json sp ^ "\n") spans)
  in
  Alcotest.(check string) "jsonl = one to_json line per span" expected
    (Buffer.contents buf);
  Alcotest.(check int) "three lines" 3
    (String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0
       (Buffer.contents buf))

(* --- harness integration --------------------------------------------------- *)

let scenario () =
  let proto =
    Eval.Config_metrics.protocol_of Arbitrary.Config.Arbitrary ~n:15
  in
  let s = Replication.Harness.default_scenario ~proto in
  { s with Replication.Harness.n_clients = 2; ops_per_client = 20; seed = 11 }

let test_harness_accounting () =
  let obs = Obs.create () in
  let report = Replication.Harness.run ~obs (scenario ()) in
  let m = Obs.metrics obs in
  Alcotest.(check int) "no span leaks" 0 (Obs.spans_open obs);
  Alcotest.(check int) "closed = started" (Obs.spans_started obs)
    (Obs.spans_closed obs);
  let ops =
    report.Replication.Harness.reads_ok + report.Replication.Harness.reads_failed
    + report.Replication.Harness.writes_ok
    + report.Replication.Harness.writes_failed
  in
  Alcotest.(check int) "one span per client op" ops (Obs.spans_started obs);
  Alcotest.(check int) "ok reads mirrored" report.Replication.Harness.reads_ok
    (Metrics.counter_of m "ops.read.ok");
  Alcotest.(check int) "ok writes mirrored" report.Replication.Harness.writes_ok
    (Metrics.counter_of m "ops.write.ok");
  Alcotest.(check int) "net.sent mirrors report"
    report.Replication.Harness.messages_sent
    (Metrics.counter_of m "net.sent");
  Alcotest.(check int) "net.delivered mirrors report"
    report.Replication.Harness.messages_delivered
    (Metrics.counter_of m "net.delivered")

let test_attach_does_not_perturb () =
  let plain = Replication.Harness.run (scenario ()) in
  let obs = Obs.create () in
  let observed = Replication.Harness.run ~obs (scenario ()) in
  let open Replication.Harness in
  Alcotest.(check int) "reads_ok" plain.reads_ok observed.reads_ok;
  Alcotest.(check int) "writes_ok" plain.writes_ok observed.writes_ok;
  Alcotest.(check int) "retries" plain.retries observed.retries;
  Alcotest.(check int) "messages" plain.messages_sent observed.messages_sent;
  Alcotest.(check (float 1e-9)) "duration" plain.duration observed.duration

let test_metrics_json_export () =
  let obs = Obs.create () in
  let _report = Replication.Harness.run ~obs (scenario ()) in
  let j = Eval.Export.metrics_json obs in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (Printf.sprintf "has %s" frag) true (contains j frag))
    [
      "\"counters\":"; "\"histograms\":"; "\"spans\":"; "\"net.sent\":";
      "\"ops.read.latency\":"; "\"open\":0";
    ]

let suite =
  [
    Alcotest.test_case "counter get-or-create" `Quick test_counter_get_or_create;
    Alcotest.test_case "gauge and histogram" `Quick test_gauge_and_histogram;
    Alcotest.test_case "enumeration sorted" `Quick test_enumeration_sorted;
    Alcotest.test_case "span happy path" `Quick test_span_happy_path;
    Alcotest.test_case "retry closes phase timed-out" `Quick
      test_retry_closes_phase_timed_out;
    Alcotest.test_case "explicit timeout + auto-close" `Quick
      test_explicit_timeout_and_auto_close;
    Alcotest.test_case "finish idempotent, accounting" `Quick
      test_finish_idempotent_and_accounting;
    Alcotest.test_case "span json" `Quick test_span_json;
    Alcotest.test_case "jsonl sink round trip" `Quick test_jsonl_sink_round_trip;
    Alcotest.test_case "harness accounting" `Quick test_harness_accounting;
    Alcotest.test_case "attach does not perturb" `Quick
      test_attach_does_not_perturb;
    Alcotest.test_case "metrics json export" `Quick test_metrics_json_export;
  ]
