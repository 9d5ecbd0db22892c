(* Scenario lines: the round trip over random scenarios (no simulation),
   replay of every campaign and preset base scenario from its line, the
   error cases, and the docs/PROTOCOL.md key list. *)

module H = Replication.Harness
module Line = Eval.Scenario_line
module G = QCheck.Gen

(* --- random scenarios ------------------------------------------------------- *)

let bases =
  List.map Line.of_string
    [
      "config=unmodified n=3"; "config=mostly-read n=5"; "config=mostly-write n=5";
      "config=arbitrary n=8"; "config=binary n=7"; "config=hqc n=9";
    ]

(* Every float shape a line must carry: integral, fractional, negative,
   extreme and non-finite values. *)
let num =
  G.oneof
    [
      G.map float_of_int G.small_signed_int; G.float; G.float_bound_inclusive 1.0;
      G.oneofl [ 0.1; -0.0; Float.infinity; Float.neg_infinity; 1e-300; 1.7976931348623157e308 ];
    ]

let whole = G.oneof [ G.small_signed_int; G.int ]
let few g = G.list_size (G.int_bound 3) g

let entry =
  let open G in
  let* time = num in
  let+ event =
    oneof
      [
        map (fun i -> Dsim.Failure.Crash i) whole;
        map (fun i -> Dsim.Failure.Recover i) whole;
        map (fun g -> Dsim.Failure.Partition g) (few (few small_nat));
        return Dsim.Failure.Heal;
      ]
  in
  { Dsim.Failure.time; event }

let sharded =
  let open G in
  let* t = oneofl bases in
  let b = t.Line.sharded.base in
  let* n_clients = whole and* ops_per_client = whole and* read_fraction = num
  and* key_space = whole and* zipf_theta = num
  and* latency =
    oneof
      [
        map (fun c -> Dsim.Latency.Constant c) num;
        map2 (fun lo hi -> Dsim.Latency.Uniform (lo, hi)) num num;
        map (fun m -> Dsim.Latency.Exponential m) num;
      ]
  and* loss_rate = num and* think_time = num and* failures = few entry and* seed = whole
  and* use_locks = bool
  and* coordinator =
    let* timeout = num and* max_retries = whole and* read_repair = bool
    and* adaptive_timeout = bool and* deadline = num and* base = num and* factor = num
    and* max_delay = num and* jitter = num in
    return
      {
        Replication.Coordinator.timeout;
        max_retries;
        read_repair;
        adaptive_timeout;
        deadline;
        backoff = { Detect.Backoff.base; factor; max_delay; jitter };
      }
  and* detector =
    oneof [ return H.Oracle; map (fun period -> H.Heartbeat { period }) num ]
  and* horizon = num and* warmup = num
  and* crash_mode = oneofl [ Dsim.Network.Fail_stop; Dsim.Network.Amnesia ]
  and* wal =
    oneof
      [
        return Replication.Wal.Sync_on_commit; return Replication.Wal.Sync_on_prepare;
        map (fun l -> Replication.Wal.Async l) num;
      ]
  and* catch_up = bool and* check_consistency = bool
  and* overload =
    opt
      (let* queue_capacity = whole and* service_time = num
       and* slow_sites = few (pair whole num) and* shed_watermark = whole
       and* retry_budget = opt (map2 (fun ratio burst -> { Detect.Budget.ratio; burst }) num num)
       and* breaker =
         opt
           (let* threshold = whole and* cooldown = num and* cooldown_factor = num
            and* max_cooldown = num in
            return { Detect.Breaker.threshold; cooldown; cooldown_factor; max_cooldown })
       and* burst =
         opt
           (let* burst_at = num and* burst_clients = whole and* burst_ops = whole
            and* burst_think = num in
            return { H.burst_at; burst_clients; burst_ops; burst_think })
       in
       return
         {
           H.queue_capacity;
           service_time;
           slow_sites;
           shed_watermark;
           retry_budget;
           breaker;
           burst;
         })
  and* batching =
    opt
      (let* batch_size = whole and* group_commit = bool and* pipeline = whole in
       return { H.batch_size; group_commit; pipeline })
  and* txn = opt (map2 (fun keys_per_txn atomic -> { H.keys_per_txn; atomic }) whole bool)
  and* shard_loss = few (pair whole num)
  and* churn =
    opt
      (let* spares = whole
       and* membership =
         few
           (let* at = num and* position = whole and* spare = whole and* fence = bool in
            return { H.at; position; spare; fence })
       and* chunk_size = whole and* fence = bool in
       return { H.spares; membership; chunk_size; fence })
  and* shards = whole
  and* strategy = oneofl [ Arbitrary.Shard_map.Hash; Arbitrary.Shard_map.Range ]
  and* service_time = num and* shard_failures = few (pair whole (few entry))
  and* reconfig =
    few
      (let* at = num
       and* action =
         oneof
           [
             map (fun s -> H.Split s) whole;
             map2 (fun into from_ -> H.Merge { into; from_ }) whole whole;
           ]
       in
       return { H.at; action })
  in
  let base =
    {
      b with
      n_clients; ops_per_client; read_fraction; key_space; zipf_theta; latency; loss_rate;
      think_time; failures; seed; use_locks; coordinator; detector; horizon; warmup;
      crash_mode; wal; catch_up; check_consistency; overload; batching; txn; shard_loss;
      churn;
    }
  in
  return
    { t with sharded = { base; shards; strategy; service_time; shard_failures; reconfig } }

let arbitrary = QCheck.make ~print:Line.to_string sharded

let prop_round_trip =
  QCheck.Test.make ~name:"of_string (to_string s) prints back identically" ~count:1000 arbitrary
    (fun t ->
      let line = Line.to_string t in
      Line.to_string (Line.of_string line) = line)

(* The generator reaches every key of the table: over a fixed-seed sample,
   each key is printed at least once. *)
let test_every_key_printed () =
  let rand = Random.State.make [| 7 |] in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 1000 do
    List.iter
      (fun w -> Hashtbl.replace seen (List.hd (String.split_on_char '=' w)) ())
      (String.split_on_char ' ' (Line.to_string (sharded rand)))
  done;
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " printed") true (Hashtbl.mem seen k))
    ("config" :: "n" :: Line.keys)

(* --- replay: a line reruns its scenario ------------------------------------- *)

let replays_sharded what (t : Line.t) =
  let line = Line.to_string t in
  let run (t : Line.t) = (H.run_core t.sharded).agg in
  let r = run t in
  Alcotest.(check bool) (what ^ " completes operations") true (H.completed r > 0);
  Alcotest.(check string) (what ^ ": " ^ line) (Eval.Batching.fingerprint r)
    (Eval.Batching.fingerprint (run (Line.of_string line)))

let replays what (n, s) config = replays_sharded what { Line.config; n; sharded = H.one_tree s }

let rerun line = Eval.Batching.fingerprint (H.run_core (Line.of_string line).sharded).agg

(* A campaign cell's printed line reruns to the cell's own report. *)
let replays_cell what (c : Eval.Campaign.cell) =
  let line = Line.to_string c.line in
  Alcotest.(check bool) (what ^ " completes operations") true (H.completed c.report.agg > 0);
  Alcotest.(check string) (what ^ ": " ^ line) (Eval.Batching.fingerprint c.report.agg)
    (rerun line)

let set kvs t = List.fold_left (fun t (k, v) -> Line.set t k v) t kvs

(* The campaigns' own line builders at test size. *)
let test_campaign_cells_replay () =
  let open Arbitrary.Config in
  let n, s = Eval.Config_metrics.scenario Arbitrary ~n:8 in
  replays "config_metrics" (n, { s with n_clients = 2; ops_per_client = 20; seed = 3 }) Arbitrary;
  let n = Eval.Config_metrics.feasible_n Unmodified 7 in
  replays "txn_scenario"
    ( n,
      {
        (H.txn_scenario ~proto:(Eval.Config_metrics.protocol_of Unmodified ~n)) with
        ops_per_client = 5;
      } )
    Unmodified;
  let small = Eval.Chaos.run ~n:9 ~clients:2 ~ops:6 ~seed:7 ~horizon:600.0 in
  List.iter (replays_cell "chaos")
    (small ~configs:[ Mostly_write ] ~schedules:[ Eval.Chaos.combined_schedule ] ());
  List.iter (replays_cell "chaos amnesia")
    (Eval.Chaos.run_amnesia ~n:9 ~clients:2 ~ops:6 ~seed:7 ~horizon:600.0 ~configs:[ Arbitrary ] ()
    @ Eval.Chaos.run_amnesia_negative ~n:9 ~clients:2 ~ops:6 ~seed:7 ~horizon:600.0
        ~configs:[ Arbitrary ] ());
  replays_sharded "churn"
    (Eval.Churn.line Unmodified ~n:7 ~clients:2 ~ops:8 ~seed:42 ~horizon:1500.0
       ~failures:(Eval.Churn.rejoin_failures ~crash_donor:true ~crash_recipient:false)
       ~membership:(fun ~n -> [ { H.at = 100.0; position = 1; spare = n; fence = true } ]));
  let n, s = Eval.Batching.scenario ~name:Mostly_read ~n:9 ~ops:24 ~seed:5 in
  replays "batching" (n, { s with batching = Some Eval.Batching.default_knobs }) Mostly_read;
  replays_sharded "sharding workload"
    (set
       [
         ("n_clients", "8"); ("ops_per_client", "4"); ("shard_failures", "1@5:crash:0");
         ("reconfig", "10:split:0");
       ]
       (Eval.Sharding.line Unmodified ~shards:4 ~theta:0.99));
  replays_sharded "overload"
    (set
       [
         ("n_clients", "3"); ("ops_per_client", "10"); ("horizon", "800");
         ("overload.slow_sites", "0:12.5"); ("overload.burst.burst_at", "200");
         ("overload.burst.burst_clients", "4"); ("overload.burst.burst_ops", "5");
       ]
       (Eval.Overload.line Eval.Overload.Retry_storm Eval.Overload.Protected))

(* [Campaign.replay] is a [replica-ctl run] command whose line reruns the
   cell, and a failed gate's [blame] names the first cell with violations. *)
let test_replay_command () =
  let cells =
    Eval.Chaos.run_amnesia_negative ~n:9 ~clients:2 ~ops:25 ~seed:7 ~horizon:3000.0
      ~configs:[ Arbitrary.Config.Arbitrary ] ()
  in
  let c = List.hd cells in
  let cmd = Eval.Campaign.replay c and prefix = "replica-ctl run '" in
  Alcotest.(check bool) "a quoted replica-ctl run" true
    (String.starts_with ~prefix cmd && String.ends_with ~suffix:"'" cmd);
  let line = String.sub cmd (String.length prefix) (String.length cmd - String.length prefix - 1) in
  Alcotest.(check string) "the replayed line reruns the cell"
    (Eval.Batching.fingerprint c.report.agg) (rerun line);
  Alcotest.(check bool) "the cell has violations" true (Eval.Campaign.violations cells > 0);
  Alcotest.(check string) "blame names it" (" (replay: " ^ cmd ^ ")") (Eval.Campaign.blame cells);
  Alcotest.(check string) "no blame without violations" "" (Eval.Campaign.blame [])

(* --- errors ------------------------------------------------------------------- *)

let test_errors () =
  let refused what msg line =
    Alcotest.check_raises what (Invalid_argument msg) (fun () -> ignore (Line.of_string line))
  in
  refused "unknown key" "Scenario_line: unknown key \"bogus\"" "config=arbitrary n=8 bogus=1";
  refused "bad value" "Scenario_line: bad value \"abc\" for key \"n_clients\""
    "config=arbitrary n=8 n_clients=abc";
  refused "bad list entry" "Scenario_line: bad value \"5:explode:1\" for key \"failures\""
    "config=arbitrary n=8 failures=5:explode:1";
  refused "bad config" "Scenario_line: bad value \"trie\" for key \"config\"" "config=trie n=8";
  refused "repeated key" "Scenario_line: repeated key \"seed\""
    "config=arbitrary n=8 seed=1 seed=2";
  refused "missing n" "Scenario_line: missing key \"n\"" "config=arbitrary seed=1";
  refused "not a pair" "Scenario_line: \"seed\" is not key=value" "config=arbitrary n=8 seed"

(* A line can state what the harness refuses; [run_core] names it. *)
let test_reconfig_needs_locks () =
  let t = Line.of_string "config=unmodified n=7 use_locks=false shards=2 reconfig=10:split:0" in
  Alcotest.check_raises "reconfig without locks"
    (Invalid_argument "Harness.run: reconfiguration requires use_locks") (fun () ->
      ignore (H.run_core t.sharded))

let test_defaults_print_nothing () =
  Alcotest.(check string) "default" "config=arbitrary n=8"
    (Line.to_string (Line.of_string "config=ARBITRARY  n=8\t"));
  Alcotest.(check string) "a present record prints its keys"
    "config=arbitrary n=8 txn.keys_per_txn=2 txn.atomic=true"
    (Line.to_string (Line.of_string "config=arbitrary n=8 txn.atomic=true"))

(* --- docs ----------------------------------------------------------------------- *)

(* The first backquoted cell of every table row of docs/PROTOCOL.md's
   "Scenario lines" section, in order. *)
let documented_keys () =
  let lines = In_channel.with_open_text "../docs/PROTOCOL.md" In_channel.input_lines in
  let rec skip = function
    | [] -> []
    | l :: rest -> if String.ends_with ~suffix:"Scenario lines" l then rest else skip rest
  in
  let rec rows acc = function
    | l :: _ when String.starts_with ~prefix:"#" l -> List.rev acc
    | l :: rest when String.starts_with ~prefix:"| `" l ->
      rows (List.nth (String.split_on_char '`' l) 1 :: acc) rest
    | _ :: rest -> rows acc rest
    | [] -> List.rev acc
  in
  rows [] (skip lines)

let test_docs_list_every_key () =
  Alcotest.(check (list string)) "PROTOCOL.md scenario keys = Scenario_line.keys" Line.keys
    (documented_keys ())

let suite =
  [
    QCheck_alcotest.to_alcotest prop_round_trip;
    Alcotest.test_case "every key printed by the generator" `Quick test_every_key_printed;
    Alcotest.test_case "campaign and preset cells replay from their line" `Quick
      test_campaign_cells_replay;
    Alcotest.test_case "a campaign cell's replay command reruns it" `Quick test_replay_command;
    Alcotest.test_case "bad keys and values are named" `Quick test_errors;
    Alcotest.test_case "reconfig without locks named by run_core" `Quick test_reconfig_needs_locks;
    Alcotest.test_case "defaults print nothing" `Quick test_defaults_print_nothing;
    Alcotest.test_case "PROTOCOL.md lists every key" `Quick test_docs_list_every_key;
  ]
