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

type detector = Oracle | Heartbeat

let detector_to_string = function
  | Oracle -> "oracle"
  | Heartbeat -> "heartbeat"

type cell = {
  config : Config.name;
  schedule : string;
  detector : detector;
  n : int;
  report : Harness.report;
  read_rate : float;
  write_rate : float;
}

type campaign = { cells : cell list; safety_violations : int }

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
let chaos_heartbeat =
  { Detect.Heartbeat.default_config with Detect.Heartbeat.period = 2.5 }

let rate ok failed =
  let total = ok + failed in
  if total = 0 then 1.0 else float_of_int ok /. float_of_int total

let make_scenario name ~n ~clients ~ops ~seed ~horizon sched =
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

let run ?(n = 45) ?(clients = 3) ?(ops = 25) ?(seed = 42) ?(horizon = 3000.0)
    ?(configs = default_configs) ?(schedules = default_schedules) ?domains () =
  (* Flatten the config × schedule × detector sweep into self-contained
     cell specs so the domain pool can fan them out; submission order is
     the sequential iteration order, so [Parallel.map] returns cells in
     exactly the order the old nested loops produced them. *)
  let specs =
    List.concat
      (List.mapi
         (fun ci name ->
           List.concat
             (List.mapi
                (fun si sched ->
                  List.map
                    (fun detector -> (ci, name, si, sched, detector))
                    [ Oracle; Heartbeat ])
                schedules))
         configs)
  in
  let run_cell (ci, name, si, sched, detector) =
    (* One failure trace and one workload seed per (config, schedule):
       detector modes face identical adversity. *)
    let n, s =
      make_scenario name ~n ~clients ~ops ~seed:(seed + (1000 * ci) + (100 * si))
        ~horizon sched
    in
    let report =
      Harness.run
        {
          s with
          Harness.detector =
            (match detector with
            | Oracle -> Harness.Oracle
            | Heartbeat -> Harness.Heartbeat chaos_heartbeat);
        }
    in
    {
      config = name;
      schedule = sched.label;
      detector;
      n;
      report;
      read_rate = rate report.Harness.reads_ok report.Harness.reads_failed;
      write_rate = rate report.Harness.writes_ok report.Harness.writes_failed;
    }
  in
  let cells = Parallel.map ?domains run_cell specs in
  {
    cells;
    safety_violations =
      List.fold_left
        (fun acc c -> acc + c.report.Harness.safety_violations)
        0 cells;
  }

(* --- amnesia crash-recovery campaign ------------------------------------ *)

type amnesia_cell = {
  a_config : Config.name;
  a_n : int;
  a_wal : Replication.Wal.policy;
  a_catch_up : bool;
  a_schedule : string;
  a_report : Harness.report;
  a_consistency : Consistency.report;
}

let run_amnesia ?(n = 45) ?(clients = 3) ?(ops = 25) ?(seed = 42)
    ?(horizon = 3000.0) ?(configs = default_configs)
    ?(wal = Replication.Wal.Sync_on_commit) ?(catch_up = true)
    ?(schedule = crashes_schedule) ?domains () =
  let run_cell (ci, name) =
    let n, s =
      make_scenario name ~n ~clients ~ops ~seed:(seed + (1000 * ci)) ~horizon
        schedule
    in
    let scenario =
      {
        s with
        Harness.crash_mode = Dsim.Network.Amnesia;
        wal;
        catch_up;
        check_consistency = true;
      }
    in
    let report = Harness.run scenario in
    {
      a_config = name;
      a_n = n;
      a_wal = wal;
      a_catch_up = catch_up;
      a_schedule = schedule.label;
      a_report = report;
      a_consistency = Consistency.check report.Harness.spans;
    }
  in
  Parallel.map ?domains run_cell (List.mapi (fun ci name -> (ci, name)) configs)

(* The unsafe configuration that must fail: volatile-suffix WAL, no
   catch-up, and a simultaneous blackout of every replica. *)
let run_amnesia_negative ?n ?(clients = 3) ?(ops = 25) ?seed ?horizon ?configs
    ?domains () =
  run_amnesia ?n ~clients ~ops ?seed ?horizon ?configs
    ~wal:(Replication.Wal.Async 60.0) ~catch_up:false
    ~schedule:blackout_schedule ?domains ()

let amnesia_violations cells =
  List.fold_left
    (fun acc c ->
      acc
      + List.length c.a_consistency.Consistency.violations
      + c.a_report.Harness.safety_violations)
    0 cells

let amnesia_table cells =
  let rows =
    List.map
      (fun c ->
        [
          Config.name_to_string c.a_config;
          string_of_int c.a_n;
          c.a_schedule;
          Replication.Wal.policy_to_string c.a_wal;
          (if c.a_catch_up then "on" else "off");
          Tablefmt.f4
            (rate c.a_report.Harness.reads_ok c.a_report.Harness.reads_failed);
          Tablefmt.f4
            (rate c.a_report.Harness.writes_ok c.a_report.Harness.writes_failed);
          string_of_int c.a_report.Harness.catchup_runs;
          string_of_int c.a_report.Harness.catchup_keys_installed;
          string_of_int c.a_report.Harness.wal_records_lost;
          string_of_int c.a_report.Harness.stale_incarnation_rejections;
          string_of_int c.a_report.Harness.stale_commits_nacked;
          string_of_int (List.length c.a_consistency.Consistency.violations);
        ])
      cells
  in
  Tablefmt.render
    ~header:
      [
        "config"; "n"; "schedule"; "wal"; "catchup"; "rd rate"; "wr rate";
        "rejoins"; "keys"; "wal lost"; "stale rej"; "stale nack"; "viol";
      ]
    ~rows

let p99 stats =
  if Stats.count stats = 0 then "-"
  else Printf.sprintf "%.1f" (Stats.percentile stats 0.99)

let table campaign =
  let rows =
    List.map
      (fun c ->
        [
          Config.name_to_string c.config;
          string_of_int c.n;
          c.schedule;
          detector_to_string c.detector;
          Tablefmt.f4 c.read_rate;
          Tablefmt.f4 c.write_rate;
          p99 c.report.Harness.read_latency;
          p99 c.report.Harness.write_latency;
          string_of_int c.report.Harness.retries;
          string_of_int c.report.Harness.deadline_exceeded;
          string_of_int c.report.Harness.messages_delivered;
          string_of_int c.report.Harness.safety_violations;
        ])
      campaign.cells
  in
  Tablefmt.render
    ~header:
      [
        "config"; "n"; "schedule"; "detector"; "rd rate"; "wr rate";
        "rd p99"; "wr p99"; "retries"; "ddl"; "msgs"; "viol";
      ]
    ~rows

(* Pair up oracle/heartbeat cells of the same (config, schedule). *)
let pairs campaign =
  List.filter_map
    (fun c ->
      if c.detector <> Oracle then None
      else
        List.find_opt
          (fun c' ->
            c'.detector = Heartbeat && c'.config = c.config
            && c'.schedule = c.schedule)
          campaign.cells
        |> Option.map (fun c' -> (c, c')))
    campaign.cells

let parity_table campaign =
  let rows =
    List.map
      (fun (o, h) ->
        [
          Config.name_to_string o.config;
          o.schedule;
          Tablefmt.f4 o.read_rate;
          Tablefmt.f4 h.read_rate;
          Printf.sprintf "%+.4f" (h.read_rate -. o.read_rate);
          Tablefmt.f4 o.write_rate;
          Tablefmt.f4 h.write_rate;
          Printf.sprintf "%+.4f" (h.write_rate -. o.write_rate);
        ])
      (pairs campaign)
  in
  Tablefmt.render
    ~header:
      [
        "config"; "schedule"; "rd oracle"; "rd hb"; "rd delta";
        "wr oracle"; "wr hb"; "wr delta";
      ]
    ~rows

(* Parity is only meaningful where the oracle itself can succeed: a
   write-all quorum under heavy churn fails with ground-truth knowledge
   too (P(all n up) ≈ availability^n), and comparing two near-zero rates
   measures sampling luck, not detector quality.  Components whose oracle
   rate is below 0.5 are skipped. *)
let crash_parity_gap campaign =
  let component oracle_rate hb_rate =
    if oracle_rate < 0.5 then 0.0 else Float.abs (oracle_rate -. hb_rate)
  in
  List.fold_left
    (fun acc (o, h) ->
      if o.schedule <> crashes_schedule.label then acc
      else
        Float.max acc
          (Float.max
             (component o.read_rate h.read_rate)
             (component o.write_rate h.write_rate)))
    0.0 (pairs campaign)
