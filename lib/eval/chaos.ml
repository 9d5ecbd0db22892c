module Config = Arbitrary.Config
module Harness = Replication.Harness
module Coordinator = Replication.Coordinator
module Failure = Dsim.Failure
module Rng = Dsutil.Rng
module Stats = Dsutil.Stats

type schedule = {
  label : string;
  loss_rate : float;
  entries : rng:Rng.t -> n:int -> horizon:float -> Failure.entry list;
}

(* Steady-state availability mtbf/(mtbf+mttr) = 0.8: harsh enough that a
   detector that never rehabilitates would starve, long enough outages
   that a detector that never suspects would stall every operation. *)
let churn ~rng ~n ~horizon =
  Failure.random_crash_recovery ~rng ~n ~horizon ~mtbf:400.0 ~mttr:100.0

let crashes_schedule = { label = "crashes"; loss_rate = 0.0; entries = churn }

(* Recurring minority partitions: every [period], isolate a random ~n/3
   subset of replicas for [width].  Only replicas are listed, so clients
   and the remaining majority stay mutually reachable (Network.partition
   puts unlisted sites in one implicit group). *)
let partition_entries ~rng ~n ~horizon =
  let period = 600.0 and width = 200.0 and start = 300.0 in
  let sites = Array.init n Fun.id in
  let rec windows t acc =
    if t >= horizon then List.rev acc
    else begin
      Rng.shuffle rng sites;
      let minority = Array.to_list (Array.sub sites 0 (max 1 (n / 3))) in
      let acc =
        { Failure.time = t +. width; event = Failure.Heal }
        :: { Failure.time = t; event = Failure.Partition [ minority ] }
        :: acc
      in
      windows (t +. period) acc
    end
  in
  windows start []

let partitions_schedule =
  { label = "partitions"; loss_rate = 0.0; entries = partition_entries }

let loss_schedule =
  {
    label = "loss";
    loss_rate = 0.05;
    entries = (fun ~rng:_ ~n:_ ~horizon:_ -> []);
  }

let combined_schedule =
  {
    label = "combined";
    loss_rate = 0.03;
    entries =
      (fun ~rng ~n ~horizon ->
        let crashes =
          Failure.random_crash_recovery ~rng ~n ~horizon ~mtbf:500.0
            ~mttr:80.0
        in
        let parts = partition_entries ~rng ~n ~horizon in
        List.sort
          (fun a b -> Float.compare a.Failure.time b.Failure.time)
          (crashes @ parts));
  }

(* Total blackout: every replica crashes at once mid-workload and comes
   back shortly after.  Under amnesia with an async WAL this destroys each
   replica's un-flushed log suffix on {e all} copies simultaneously, so
   with catch-up disabled post-recovery reads are provably stale — the
   negative control the consistency checker must flag. *)
let blackout ~crash_at ~outage ~rng:_ ~n ~horizon:_ =
  List.concat
    (List.init n (fun i ->
         [
           { Failure.time = crash_at; event = Failure.Crash i };
           { Failure.time = crash_at +. outage; event = Failure.Recover i };
         ]))

let blackout_schedule =
  {
    label = "blackout";
    loss_rate = 0.0;
    entries = blackout ~crash_at:100.0 ~outage:40.0;
  }

let default_schedules =
  [ crashes_schedule; partitions_schedule; loss_schedule; combined_schedule ]

let default_configs =
  [ Config.Mostly_read; Config.Mostly_write; Config.Arbitrary; Config.Unmodified ]

(* Degradation-tolerant coordinator: adaptive phase timeouts, jittered
   exponential backoff, a hard per-operation deadline so dead quorums are
   abandoned instead of hammered. *)
let chaos_coordinator =
  {
    Coordinator.default_config with
    Coordinator.max_retries = 8;
    adaptive_timeout = true;
    deadline = 600.0;
  }

(* Campaign detection settings: a short ping period cuts the blind window
   after each crash (detection latency ~ period + threshold·σ) while the
   default φ threshold keeps false suspicions rare — essential because a
   write quorum needs {e every} node of a level, so one false suspect
   fails the whole attempt. *)
let chaos_heartbeat = Harness.Heartbeat { Detect.Heartbeat.period = 2.5 }

let scenario name ~n ~clients ~ops ~seed ~horizon sched =
  let n, s = Config_metrics.scenario name ~n in
  ( n,
    {
      s with
      Harness.n_clients = clients;
      ops_per_client = ops;
      read_fraction = 0.5;
      key_space = 8;
      think_time = 3.0;
      loss_rate = sched.loss_rate;
      failures = sched.entries ~rng:(Rng.create seed) ~n ~horizon;
      seed;
      coordinator = chaos_coordinator;
      horizon;
      warmup = 1.0;
    } )

let line name ~n ~clients ~ops ~seed ~horizon sched =
  Scenario_line.one_tree name (scenario name ~n ~clients ~ops ~seed ~horizon sched)

let detector (c : Campaign.cell) =
  match c.line.sharded.base.detector with
  | Harness.Oracle -> "oracle"
  | Harness.Heartbeat _ -> "heartbeat"

(* The config × schedule × detector sweep in iteration order.  One failure
   trace and one workload seed per (config, schedule): detector modes face
   identical adversity.  Every cell builds its own protocol instance. *)
let run ?(n = 45) ?(clients = 3) ?(ops = 25) ?(seed = 42) ?(horizon = 3000.0)
    ?(configs = default_configs) ?(schedules = default_schedules) ?domains () =
  Campaign.run ?domains
    (List.concat
       (List.mapi
          (fun ci name ->
            List.concat
              (List.mapi
                 (fun si sched ->
                   List.map
                     (fun detector ->
                       let n, s =
                         scenario name ~n ~clients ~ops
                           ~seed:(seed + (1000 * ci) + (100 * si))
                           ~horizon sched
                       in
                       (sched.label, Scenario_line.one_tree name (n, { s with Harness.detector })))
                     [ Harness.Oracle; chaos_heartbeat ])
                 schedules))
          configs))

let read_rate (c : Campaign.cell) = Campaign.rate c.report.agg.reads_ok c.report.agg.reads_failed
let write_rate (c : Campaign.cell) = Campaign.rate c.report.agg.writes_ok c.report.agg.writes_failed

(* --- amnesia crash-recovery campaign ------------------------------------ *)

let amnesia ~wal ~catch_up ~schedule ?(n = 45) ?(clients = 3) ?(ops = 25) ?(seed = 42)
    ?(horizon = 3000.0) ?(configs = default_configs) ?domains () =
  Campaign.run ?domains
    (List.mapi
       (fun ci name ->
         let n, s =
           scenario name ~n ~clients ~ops ~seed:(seed + (1000 * ci)) ~horizon schedule
         in
         ( schedule.label,
           Scenario_line.one_tree name
             ( n,
               {
                 s with
                 Harness.crash_mode = Dsim.Network.Amnesia;
                 wal;
                 catch_up;
                 check_consistency = true;
               } ) ))
       configs)

let run_amnesia =
  amnesia ~wal:Replication.Wal.Sync_on_commit ~catch_up:true ~schedule:crashes_schedule

(* The unsafe configuration that must fail: volatile-suffix WAL, no
   catch-up, and a simultaneous blackout of every replica. *)
let run_amnesia_negative =
  amnesia ~wal:(Replication.Wal.Async 60.0) ~catch_up:false ~schedule:blackout_schedule

let amnesia_table =
  let b (c : Campaign.cell) = c.line.sharded.base in
  let int name (c : Campaign.cell) = string_of_int (Harness.count c.report.agg name) in
  Campaign.table
    [
      ("config", fun c -> Config.name_to_string c.line.config);
      ("n", fun c -> string_of_int c.line.n);
      ("schedule", fun c -> c.label);
      ("wal", fun c -> Replication.Wal.policy_to_string (b c).wal);
      ("catchup", fun c -> if (b c).catch_up then "on" else "off");
      ("rd rate", fun c -> Tablefmt.f4 (read_rate c));
      ("wr rate", fun c -> Tablefmt.f4 (write_rate c));
      ("rejoins", int "replica.catchup.runs");
      ("keys", int "replica.catchup.keys_installed");
      ("wal lost", int "replica.wal.lost");
      ("stale rej", int "coord.stale_inc.rejected");
      ("stale nack", int "replica.stale_inc.nacked");
      ("viol", fun c -> string_of_int (List.length c.consistency.violations));
    ]

let p99 stats =
  if Stats.count stats = 0 then "-"
  else Printf.sprintf "%.1f" (Stats.percentile stats 0.99)

let table =
  let int name (c : Campaign.cell) = string_of_int (Harness.count c.report.agg name) in
  Campaign.table
    [
      ("config", fun c -> Config.name_to_string c.line.config);
      ("n", fun c -> string_of_int c.line.n);
      ("schedule", fun c -> c.label);
      ("detector", detector);
      ("rd rate", fun c -> Tablefmt.f4 (read_rate c));
      ("wr rate", fun c -> Tablefmt.f4 (write_rate c));
      ("rd p99", fun c -> p99 c.report.agg.read_latency);
      ("wr p99", fun c -> p99 c.report.agg.write_latency);
      ("retries", int "coord.retries");
      ("ddl", int "coord.deadline_exceeded");
      ("msgs", int "net.delivered");
      ("viol", fun c -> string_of_int (Campaign.violations [ c ]));
    ]

(* Pair up oracle/heartbeat cells of the same (config, schedule). *)
let pairs cells =
  List.filter_map
    (fun (c : Campaign.cell) ->
      if detector c <> "oracle" then None
      else
        List.find_opt
          (fun (c' : Campaign.cell) ->
            detector c' = "heartbeat" && c'.line.config = c.line.config && c'.label = c.label)
          cells
        |> Option.map (fun c' -> (c, c')))
    cells

let parity_table cells =
  let delta f (o, h) = Printf.sprintf "%+.4f" (f h -. f o) in
  Tablefmt.render
    ~header:
      [
        "config"; "schedule"; "rd oracle"; "rd hb"; "rd delta";
        "wr oracle"; "wr hb"; "wr delta";
      ]
    ~rows:
      (List.map
         (fun ((o : Campaign.cell), h) ->
           [
             Config.name_to_string o.line.config;
             o.label;
             Tablefmt.f4 (read_rate o);
             Tablefmt.f4 (read_rate h);
             delta read_rate (o, h);
             Tablefmt.f4 (write_rate o);
             Tablefmt.f4 (write_rate h);
             delta write_rate (o, h);
           ])
         (pairs cells))

(* Parity is only meaningful where the oracle itself can succeed: a
   write-all quorum under heavy churn fails with ground-truth knowledge
   too (P(all n up) ≈ availability^n), and comparing two near-zero rates
   measures sampling luck, not detector quality.  Components whose oracle
   rate is below 0.5 are skipped. *)
let crash_parity_gap cells =
  let component oracle_rate hb_rate =
    if oracle_rate < 0.5 then 0.0 else Float.abs (oracle_rate -. hb_rate)
  in
  List.fold_left
    (fun acc ((o : Campaign.cell), h) ->
      if o.label <> crashes_schedule.label then acc
      else
        Float.max acc
          (Float.max
             (component (read_rate o) (read_rate h))
             (component (write_rate o) (write_rate h))))
    0.0 (pairs cells)
