module Config = Arbitrary.Config
module Harness = Replication.Harness
module Replica = Replication.Replica
module Store = Replication.Store
module Failure = Dsim.Failure
module Engine = Dsim.Engine
module Network = Dsim.Network

(* The four fault-injection shapes of the membership campaign.  Donor and
   recipient crashes hit a plain provisioning rejoin mid-transfer; the
   partition isolates a spare in the middle of its promotion; rolling
   chains unfenced promote / re-promote steps and one real decommission
   while a background crash keeps the rejoin path busy. *)
type kind = Donor_crash | Recipient_crash | Partition_promotion | Rolling

let kind_to_string = function
  | Donor_crash -> "donor-crash"
  | Recipient_crash -> "recipient-crash"
  | Partition_promotion -> "partition-promotion"
  | Rolling -> "rolling"

let default_kinds =
  [ Donor_crash; Recipient_crash; Partition_promotion; Rolling ]

let default_configs =
  [ Config.Mostly_read; Config.Mostly_write; Config.Arbitrary; Config.Unmodified ]

(* Failure scripts are phrased against the identity assignment the run
   starts with: site p holds position p, sites n.. are spares.  The
   rejoining replica is the last occupant (site n-1); its first donor
   pick is the lowest live occupant, i.e. site 0 — which is exactly who
   the donor-crash script kills mid-transfer. *)
let rejoin_failures ~n ~crash_donor ~crash_recipient =
  [
    { Failure.time = 60.0; event = Failure.Crash (n - 1) };
    { Failure.time = 100.0; event = Failure.Recover (n - 1) };
  ]
  @ (if crash_donor then
       [
         { Failure.time = 103.0; event = Failure.Crash 0 };
         { Failure.time = 220.0; event = Failure.Recover 0 };
       ]
     else [])
  @
  if crash_recipient then
    [
      { Failure.time = 104.0; event = Failure.Crash (n - 1) };
      { Failure.time = 160.0; event = Failure.Recover (n - 1) };
    ]
  else []

let failures_of kind ~n =
  match kind with
  | Donor_crash -> rejoin_failures ~n ~crash_donor:true ~crash_recipient:false
  | Recipient_crash ->
    rejoin_failures ~n ~crash_donor:false ~crash_recipient:true
  | Partition_promotion ->
    (* isolate the spare (site n) shortly after its promotion starts *)
    [
      { Failure.time = 103.0; event = Failure.Partition [ [ n ] ] };
      { Failure.time = 200.0; event = Failure.Heal };
    ]
  | Rolling ->
    (* background rejoin churn while memberships roll *)
    [
      { Failure.time = 300.0; event = Failure.Crash (n - 1) };
      { Failure.time = 330.0; event = Failure.Recover (n - 1) };
    ]

let membership_of kind ~n =
  match kind with
  | Donor_crash | Recipient_crash -> []
  | Partition_promotion ->
    [ { Harness.at = 100.0; position = min 1 (n - 1); spare = n; fence = false } ]
  | Rolling ->
    (* roll position 0 out to the spare and back (unfenced: the displaced
       occupant keeps its history and is re-promoted), then properly
       decommission position 1's occupant onto the second spare *)
    [
      { Harness.at = 80.0; position = 0; spare = n; fence = false };
      { Harness.at = 500.0; position = 0; spare = 0; fence = false };
      { Harness.at = 900.0; position = min 1 (n - 1); spare = n + 1; fence = true };
    ]

type cell = {
  c_config : Config.name;
  c_kind : string;
  c_n : int;
  c_report : Harness.report;
}

let make_scenario name ~n ~clients ~ops ~seed ~horizon ~failures ~membership =
  let n = Config_metrics.feasible_n name n in
  ( n,
    {
      (Harness.churn_scenario ~proto:(Config_metrics.protocol_of name ~n)) with
      Harness.n_clients = clients;
      ops_per_client = ops;
      failures = failures ~n;
      seed;
      coordinator = Chaos.chaos_coordinator;
      horizon;
      (* one key per chunk: transfers span enough virtual time that the
         scripted mid-transfer crashes actually land mid-transfer *)
      churn =
        Some { spares = 2; membership = membership ~n; chunk_size = 1; fence = true };
    } )

let run ?(n = 45) ?(configs = default_configs) ?domains () =
  let specs =
    List.concat
      (List.mapi
         (fun ci name ->
           List.mapi (fun si kind -> (ci, name, si, kind)) default_kinds)
         configs)
  in
  let run_cell (ci, name, si, kind) =
    let n, scenario =
      make_scenario name ~n ~clients:3 ~ops:25
        ~seed:(42 + (1000 * ci) + (100 * si))
        ~horizon:3000.0 ~failures:(failures_of kind)
        ~membership:(membership_of kind)
    in
    {
      c_config = name;
      c_kind = kind_to_string kind;
      c_n = n;
      c_report = Harness.run scenario;
    }
  in
  Parallel.map ?domains run_cell specs

(* The control that must leak: every occupant blacks out at once under a
   volatile-suffix WAL, and provisioning fencing is OFF — each replica
   serves from its gutted store the moment it recovers, while (and even
   after) provisioning from donors that lost the same suffix. *)
let blackout_failures ~n =
  List.concat
    (List.init n (fun i ->
         [
           { Failure.time = 100.0; event = Failure.Crash i };
           { Failure.time = 140.0; event = Failure.Recover i };
         ]))

let run_negative ?(n = 45) ?(configs = default_configs) () =
  let run_cell (ci, name) =
    let n, s =
      make_scenario name ~n ~clients:3 ~ops:40 ~seed:(42 + (1000 * ci))
        ~horizon:3000.0 ~failures:blackout_failures
        ~membership:(fun ~n:_ -> [])
    in
    let scenario =
      {
        s with
        Harness.key_space = 4;
        wal = Replication.Wal.Async 60.0;
        churn = Option.map (fun c -> { c with Harness.spares = 0; fence = false }) s.churn;
      }
    in
    {
      c_config = name;
      c_kind = "blackout-unfenced";
      c_n = n;
      c_report = Harness.run scenario;
    }
  in
  Parallel.map run_cell (List.mapi (fun ci name -> (ci, name)) configs)

(* A sharded control plane churning: three independent tree instances
   (one per key shard), each under its own donor-crash rejoin plus a
   rolling membership script, seeded per shard.  Shards share nothing,
   so the campaign runs them as separate single-tree cells and the gate
   sums them. *)
let run_sharded ?(n = 45) () =
  let config = Config.Unmodified in
  let run_cell shard =
    let n, scenario =
      make_scenario config ~n ~clients:3 ~ops:25 ~seed:(42 + (17 * shard))
        ~horizon:3000.0 ~failures:(failures_of Donor_crash)
        ~membership:(membership_of Rolling)
    in
    {
      c_config = config;
      c_kind = Printf.sprintf "shard-%d" shard;
      c_n = n;
      c_report = Harness.run scenario;
    }
  in
  Parallel.map run_cell [ 0; 1; 2 ]

let violations cells =
  List.fold_left
    (fun acc c -> acc + c.c_report.Harness.safety_violations)
    0 cells

let table cells =
  let rows =
    List.map
      (fun c ->
        let a = c.c_report in
        [
          Config.name_to_string c.c_config;
          string_of_int c.c_n;
          c.c_kind;
          Tablefmt.f4 (Chaos.rate a.Harness.reads_ok a.Harness.reads_failed);
          Tablefmt.f4 (Chaos.rate a.Harness.writes_ok a.Harness.writes_failed);
          Printf.sprintf "%d/%d" a.Harness.promotions_done a.Harness.promotions_started;
          string_of_int a.Harness.decommissions_done;
          string_of_int a.Harness.provision_runs;
          string_of_int a.Harness.provision_chunks;
          string_of_int a.Harness.provision_resumes;
          string_of_int a.Harness.provision_donor_failovers;
          string_of_int a.Harness.failed_rejoins;
          string_of_int a.Harness.safety_violations;
        ])
      cells
  in
  Tablefmt.render
    ~header:
      [
        "config"; "n"; "scenario"; "rd rate"; "wr rate"; "promo"; "decomm";
        "prov"; "chunks"; "resumes"; "failover"; "stuck"; "viol";
      ]
    ~rows

(* --- cold-rejoin cost: provisioning vs per-key catch-up ------------------- *)

type rejoin_comparison = {
  rj_keys : int;
  rj_n : int;
  rj_catchup_rounds : int;
  rj_provision_rounds : int;
  rj_provision_chunks : int;
  rj_catchup_serving : bool;
  rj_provision_serving : bool;
  rj_speedup : float;
}

(* Identical worlds: seven UNMODIFIED replicas whose committed stores
   hold [keys] keys, the last replica amnesia-crashes cold (nothing in its
   WAL) and rejoins — through per-key quorum catch-up in one world, through
   chunked snapshot provisioning in the other.  The comparison counts
   protocol rounds, the unit both rejoin paths share. *)
let cold_rejoin ~keys ~chunk_size ~provisioned =
  let n = 7 in
  let proto = Config_metrics.protocol_of Config.Unmodified ~n in
  let engine = Engine.create ~seed:42 () in
  let net = Network.create ~engine ~n () in
  Network.set_crash_mode net Network.Amnesia;
  let recovery =
    if provisioned then
      Replica.recovery ~catch_up:false
        ~provision:
          (Replica.provision ~key_space:keys ~chunk_size
             ~donors:(fun () -> List.init n Fun.id)
             ())
        ()
    else
      Replica.recovery ~catch_up:true
        ~keys:(fun () -> List.init keys Fun.id)
        ~proto ()
  in
  let replicas =
    Array.init n (fun site -> Replica.create ~site ~net ~recovery ())
  in
  (* Populate committed state directly: the comparison measures rejoin
     transfer cost, not workload generation.  The WALs stay empty, so the
     crash leaves the rejoiner genuinely cold. *)
  Array.iter
    (fun r ->
      let store = Replica.store r in
      for key = 0 to keys - 1 do
        ignore (Store.install_flat store ~key ~version:1 ~sid:0 ~value:"v")
      done)
    replicas;
  let target = n - 1 in
  Failure.apply net
    [
      { Failure.time = 10.0; event = Failure.Crash target };
      { Failure.time = 20.0; event = Failure.Recover target };
    ];
  Engine.run ~until:2_000_000.0 engine;
  let r = replicas.(target) in
  ( n,
    Replica.catchup_rounds r,
    Replica.provision_rounds r,
    Replica.provision_chunks r,
    Replica.is_serving r )

let cold_rejoin_comparison ?(keys = 10_000) ?(chunk_size = 512) () =
  let rj_n, rj_catchup_rounds, _, _, rj_catchup_serving =
    cold_rejoin ~keys ~chunk_size ~provisioned:false
  in
  let _, _, rj_provision_rounds, rj_provision_chunks, rj_provision_serving =
    cold_rejoin ~keys ~chunk_size ~provisioned:true
  in
  {
    rj_keys = keys;
    rj_n;
    rj_catchup_rounds;
    rj_provision_rounds;
    rj_provision_chunks;
    rj_catchup_serving;
    rj_provision_serving;
    rj_speedup =
      (if rj_provision_rounds = 0 then 0.0
       else float_of_int rj_catchup_rounds /. float_of_int rj_provision_rounds);
  }
