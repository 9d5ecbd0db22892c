module Harness = Replication.Harness
module Shard_harness = Replication.Shard_harness
module Config = Arbitrary.Config

let configs =
  [ Config.Unmodified; Config.Mostly_read; Config.Mostly_write;
    Config.Arbitrary ]

let shard_counts = [ 1; 4; 16; 64 ]

let service_time = 8.0
let skew_theta = 0.99

type identity_cell = {
  id_config : Config.name;
  fingerprint_sharded : string;
  fingerprint_unsharded : string;
  identical : bool;
}

type campaign = {
  scaling : Campaign.cell list;
  skew : Campaign.cell list;
  identity : identity_cell;
  atomic_cell : Campaign.cell;
  nonatomic_cell : Campaign.cell;
  reconfig : Campaign.cell;
}

(* The saturating workload: a closed loop of 128 clients and 4096 total
   operations over 4096 keys.  [service_time] makes every replica a
   serial server, so the single-tree run is bottlenecked on its root
   (every read quorum contains it) while the client count caps the
   in-flight ops — queues stay short enough that a long coordinator
   timeout never fires and no retry traffic pollutes the capacity
   measurement. *)
let workload name ~theta =
  let n, s = Config_metrics.scenario name ~n:9 in
  ( n,
    {
      s with
      Harness.n_clients = 128;
      ops_per_client = 32;
      read_fraction = 0.5;
      key_space = 4096;
      zipf_theta = theta;
      think_time = 0.1;
      seed = 42;
      check_consistency = true;
      coordinator =
        {
          s.Harness.coordinator with
          Replication.Coordinator.timeout = 10_000.0;
          max_retries = 1;
        };
    } )

let sharded ~shards ~service_time base =
  { (Harness.one_tree base) with shards; service_time }

let line name ~shards ~theta =
  let n, base = workload name ~theta in
  { Scenario_line.config = name; n; sharded = sharded ~shards ~service_time base }

(* [Harness.report.duration] is the engine clock, which coasts to the
   horizon on trailing timeout events; the workload makespan is the last
   operation completion. *)
let makespan (c : Campaign.cell) = Array.fold_left Float.max 0.0 c.report.agg.completions

let completed (c : Campaign.cell) = Harness.completed c.report.agg
let shards (c : Campaign.cell) = c.line.sharded.shards

let throughput c =
  let d = makespan c in
  if d <= 0.0 then 0.0 else float_of_int (completed c) /. d

(* duration(S=1) / duration within the cell's configuration. *)
let speedup campaign c =
  let d = makespan c in
  let base =
    List.find
      (fun (b : Campaign.cell) -> b.line.config = c.Campaign.line.config && shards b = 1)
      campaign.scaling
  in
  if d <= 0.0 then 0.0 else makespan base /. d

let efficiency campaign c = speedup campaign c /. float_of_int (shards c)

let run_identity () =
  let name = Config.Arbitrary in
  let _, base = workload name ~theta:0.0 in
  let base = { base with Harness.n_clients = 4; ops_per_client = 50 } in
  let unsharded = Batching.fingerprint (Harness.run base) in
  let r = Harness.run_core (sharded ~shards:1 ~service_time:0.0 base) in
  let sharded_fp = Batching.fingerprint r.agg in
  {
    id_config = name;
    fingerprint_sharded = sharded_fp;
    fingerprint_unsharded = unsharded;
    identical = sharded_fp = unsharded;
  }

(* Cross-shard increment transactions over four shards, shard 1 lossy. *)
let atomicity_line ~atomic =
  let n = Config_metrics.feasible_n Config.Arbitrary 9 in
  let proto = Config_metrics.protocol_of Config.Arbitrary ~n in
  let base =
    {
      (Harness.txn_scenario ~proto) with
      Harness.ops_per_client = 50;
      key_space = 16;
      seed = 42;
      txn = Some { Harness.keys_per_txn = 2; atomic };
      shard_loss = [ (1, 0.3) ];
    }
  in
  {
    Scenario_line.config = Config.Arbitrary;
    n;
    sharded = { (Harness.one_tree base) with shards = 4 };
  }

let transactions (c : Campaign.cell) = Option.get c.report.agg.transactions

let conservation c =
  let t = transactions c in
  Consistency.check_conservation ~committed:t.committed_increments
    ~uncertain:t.uncertain_increments ~observed:t.observed_total

(* An online split plus merge over four shards. *)
let reconfig_line () =
  let n, s = Config_metrics.scenario Config.Arbitrary ~n:9 in
  let base =
    {
      s with
      Harness.n_clients = 4;
      ops_per_client = 60;
      key_space = 48;
      seed = 42;
      check_consistency = true;
    }
  in
  {
    Scenario_line.config = Config.Arbitrary;
    n;
    sharded =
      {
        (sharded ~shards:4 ~service_time:0.0 base) with
        reconfig =
          [
            { Harness.at = 30.0; action = Harness.Split 1 };
            { Harness.at = 90.0; action = Harness.Merge { into = 0; from_ = 3 } };
          ];
      };
  }

let run ?domains () =
  (* Every cell is independent: the (config, S) scaling grid, the skew
     row, both transaction cells and the reconfiguration cell run as one
     campaign. *)
  let cells =
    Campaign.run ?domains
      (List.concat_map
         (fun name ->
           List.map (fun shards -> ("scaling", line name ~shards ~theta:0.0)) shard_counts)
         configs
      @ List.map (fun name -> ("skew", line name ~shards:16 ~theta:skew_theta)) configs
      @ [
          ("atomic", atomicity_line ~atomic:true);
          ("non-atomic", atomicity_line ~atomic:false);
          ("reconfig", reconfig_line ());
        ])
  in
  let labelled l = List.filter (fun (c : Campaign.cell) -> c.label = l) cells in
  let one l = List.hd (labelled l) in
  {
    scaling = labelled "scaling";
    skew = labelled "skew";
    identity = run_identity ();
    atomic_cell = one "atomic";
    nonatomic_cell = one "non-atomic";
    reconfig = one "reconfig";
  }

let speedup_at campaign ~shards:s =
  List.fold_left
    (fun acc c -> if shards c = s then Float.max acc (speedup campaign c) else acc)
    0.0 campaign.scaling

let scaling_threshold = 0.7 *. 16.0

let config_name (c : Campaign.cell) = Config.name_to_string c.line.config

let gate campaign =
  let g = Gate.create () in
  let check cond = Gate.check g cond in
  let s16 = speedup_at campaign ~shards:16 in
  check (s16 >= scaling_threshold)
    "scaling: best S=16 speedup %.2f < %.2f (0.7 x ideal)" s16
    scaling_threshold;
  List.iter
    (fun (what, cells) ->
      List.iter
        (fun c ->
          let v = Campaign.violations [ c ] in
          check (v = 0) "%s %s S=%d: %d safety violations%s" what (config_name c) (shards c) v
            (Campaign.blame [ c ]))
        cells)
    [ ("scaling", campaign.scaling); ("skew", campaign.skew) ];
  check campaign.identity.identical
    "identity: S=1 fingerprint diverged from the unsharded harness";
  let atomic = transactions campaign.atomic_cell in
  check (Consistency.conserved (conservation campaign.atomic_cell))
    "atomicity: 2PC run violated increment conservation";
  check (atomic.partial_commits = 0) "atomicity: 2PC run reported %d partial commits"
    atomic.partial_commits;
  check
    ((conservation campaign.nonatomic_cell).phantom_increments > 0)
    "atomicity: negative control produced no phantom increments";
  let rc = campaign.reconfig and r = campaign.reconfig.report in
  check (Campaign.violations [ rc ] = 0) "reconfig: %d consistency violations%s"
    (Campaign.violations [ rc ]) (Campaign.blame [ rc ]);
  check r.map_well_formed "reconfig: final shard map not well-formed";
  check (r.migration_failures = 0) "reconfig: %d keys failed to migrate" r.migration_failures;
  check
    (r.splits >= 1 && r.merges >= 1)
    "reconfig: expected at least one split and one merge";
  Gate.verdict g

(* --- rendering ----------------------------------------------------------- *)

let ints_json xs =
  "[" ^ String.concat "," (List.map string_of_int (Array.to_list xs)) ^ "]"

let scale_cell_json campaign c =
  Printf.sprintf
    "{\"config\":\"%s\",\"shards\":%d,\"n\":%d,\"completed\":%d,\"duration\":%.3f,\"throughput\":%.4f,\"violations\":%d,\"speedup\":%.3f,\"efficiency\":%.3f}"
    (config_name c) (shards c) c.Campaign.line.n (completed c) (makespan c) (throughput c)
    (Campaign.violations [ c ]) (speedup campaign c) (efficiency campaign c)

let skew_cell_json (c : Campaign.cell) =
  let imb_max, imb_mean = Shard_harness.imbalance c.report in
  Printf.sprintf
    "{\"config\":\"%s\",\"shards\":%d,\"theta\":%.2f,\"completed\":%d,\"violations\":%d,\"per_shard_ops\":%s,\"imbalance_max\":%.1f,\"imbalance_mean\":%.2f,\"imbalance_ratio\":%.3f}"
    (config_name c) (shards c) c.line.sharded.base.zipf_theta (completed c)
    (Campaign.violations [ c ]) (ints_json c.report.per_shard_ops) imb_max imb_mean
    (Shard_harness.imbalance_ratio c.report)

let atomicity_json c =
  let t = transactions c and k = conservation c in
  Printf.sprintf
    "{\"atomic\":%b,\"committed\":%d,\"aborted\":%d,\"uncertain\":%d,\"partial_commits\":%d,\"phantoms\":%d,\"lost\":%d,\"conserved\":%b,\"cross_shard\":%d}"
    (Option.get c.Campaign.line.sharded.base.txn).atomic t.committed t.aborted t.uncertain
    t.partial_commits k.phantom_increments k.lost_increments (Consistency.conserved k)
    t.cross_shard_txns

let json campaign =
  let v = gate campaign in
  let rc = campaign.reconfig and r = campaign.reconfig.report in
  Printf.sprintf
    "{\"schema\":\"bench-shard/1\",\"service_time\":%.1f,\"scaling\":[%s],\"speedup_s16\":%.3f,\"scaling_threshold\":%.1f,\"skew\":[%s],\"identity\":{\"config\":\"%s\",\"sharded\":\"%s\",\"unsharded\":\"%s\",\"identical\":%b},\"atomicity\":{\"atomic\":%s,\"nonatomic\":%s},\"reconfig\":{\"completed\":%d,\"violations\":%d,\"splits\":%d,\"merges\":%d,\"migrated_keys\":%d,\"migration_failures\":%d,\"well_formed\":%b,\"active_shards\":%s},\"pass\":%b}"
    service_time
    (String.concat "," (List.map (scale_cell_json campaign) campaign.scaling))
    (speedup_at campaign ~shards:16)
    scaling_threshold
    (String.concat "," (List.map skew_cell_json campaign.skew))
    (Config.name_to_string campaign.identity.id_config)
    campaign.identity.fingerprint_sharded
    campaign.identity.fingerprint_unsharded campaign.identity.identical
    (atomicity_json campaign.atomic_cell)
    (atomicity_json campaign.nonatomic_cell)
    (completed rc) (Campaign.violations [ rc ]) r.splits r.merges r.migrated_keys
    r.migration_failures r.map_well_formed
    (ints_json (Array.of_list r.active_shards))
    v.pass

let table campaign =
  let f2 f c = Tablefmt.f2 (f c) in
  let viol c = string_of_int (Campaign.violations [ c ]) in
  let imbalance f (c : Campaign.cell) = Tablefmt.f2 (f (Shard_harness.imbalance c.report)) in
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Campaign.table
       [
         ("config", config_name);
         ("S", fun c -> string_of_int (shards c));
         ("ops", fun c -> string_of_int (completed c));
         ("makespan", f2 makespan);
         ("thpt", fun c -> Tablefmt.f4 (throughput c));
         ("speedup", f2 (speedup campaign));
         ("eff", f2 (efficiency campaign));
         ("viol", viol);
       ]
       campaign.scaling);
  Buffer.add_string b "\nZipfian skew (theta = 0.99):\n";
  Buffer.add_string b
    (Campaign.table
       [
         ("config", config_name);
         ("S", fun c -> string_of_int (shards c));
         ("theta", fun c -> Tablefmt.f2 c.line.sharded.base.zipf_theta);
         ("ops", fun c -> string_of_int (completed c));
         ("imb max", imbalance fst);
         ("imb mean", imbalance snd);
         ("max/mean", fun c -> Tablefmt.f2 (Shard_harness.imbalance_ratio c.report));
         ("viol", viol);
       ]
       campaign.skew);
  Printf.bprintf b "\nS=1 control: %s\n"
    (if campaign.identity.identical then "byte-identical to unsharded harness"
     else "DIVERGED");
  let atom c =
    let t = transactions c and k = conservation c in
    Printf.sprintf
      "%d committed, %d aborted (%d in-doubt, %d partial), phantoms %d, %s"
      t.committed t.aborted t.uncertain t.partial_commits k.phantom_increments
      (if Consistency.conserved k then "conserved" else "conservation VIOLATED")
  in
  Printf.bprintf b "2PC atomic:      %s\n" (atom campaign.atomic_cell);
  Printf.bprintf b "non-atomic ctrl: %s\n" (atom campaign.nonatomic_cell);
  let r = campaign.reconfig.report in
  Printf.bprintf b
    "reconfig: %d split(s) + %d merge(s), %d keys migrated (%d failures), map %s, %d violations\n"
    r.splits r.merges r.migrated_keys r.migration_failures
    (if r.map_well_formed then "well-formed" else "MALFORMED")
    (Campaign.violations [ campaign.reconfig ]);
  Buffer.contents b
