module Config = Arbitrary.Config
module Harness = Replication.Harness
module Coordinator = Replication.Coordinator

type mode = Naive | Protected

let mode_to_string = function Naive -> "naive" | Protected -> "protected"

type kind = Flash_crowd | Slow_replica | Retry_storm

let kind_to_string = function
  | Flash_crowd -> "flash-crowd"
  | Slow_replica -> "slow-replica"
  | Retry_storm -> "retry-storm"

(* --- campaign geometry ---------------------------------------------------

   One fixed timeline for every cell, so goodput windows line up:

     warmup(1) .. [pre window] .. burst .. settle .. [post window] .. horizon

   The pre window ends when the flash crowd arrives; the post window starts
   long after the burst clients' {e offered work} is done (with healthy
   shedding they finish — succeed or fail fast — within a couple hundred
   time units), so whatever load remains there is self-sustained by the
   retry feedback loop, not by the trigger. *)

let horizon = 4000.0
let burst_at = 1000.0
let pre_window = (200.0, 1000.0)
let post_window = (2600.0, 3800.0)

(* Per-message replica service cost.  High enough that a replica is a real
   bottleneck (a quorum op costs a few service times end-to-end), low
   enough that the steady workload below leaves headroom. *)
let service_time = 4.0

(* Metastability needs enough {e independent} retry sources: each client
   is closed-loop (one op in flight), so the sustained retry pressure is
   roughly [clients × fanout / retry interval].  Thirty clients with long
   think times offer the same healthy load four impatient ones would, but
   once they are all stuck retrying they can hold every replica queue
   above saturation on their own. *)
let steady_clients = 30
let steady_think = 200.0

(* Aggressive client retry policy — the naive config's mistake and the
   protected config's stress test: effectively unbounded retries, no
   deadline, and an impatient backoff cap. *)
let overload_coordinator =
  {
    Coordinator.default_config with
    Coordinator.timeout = 30.0;
    max_retries = 50;
    deadline = Float.infinity;
    backoff =
      { Detect.Backoff.base = 2.0; factor = 1.5; max_delay = 10.0; jitter = 0.2 };
  }

let burst =
  {
    Harness.burst_at;
    burst_clients = 24;
    burst_ops = 20;
    burst_think = 1.0;
  }

let protections =
  {
    Harness.overload_defaults with
    Harness.queue_capacity = 24;
    shed_watermark = 6;
    retry_budget = Some { Detect.Budget.ratio = 0.1; burst = 5.0 };
    breaker =
      Some
        {
          Detect.Breaker.threshold = 5;
          cooldown = 150.0;
          cooldown_factor = 2.0;
          max_cooldown = 400.0;
        };
  }

let overload_for kind mode =
  let base =
    match mode with
    | Naive -> { Harness.overload_defaults with Harness.service_time }
    | Protected -> { protections with Harness.service_time }
  in
  match kind with
  | Flash_crowd ->
    (* A moderate crowd: short-lived extra load the protected system must
       absorb and the naive system merely survives or not. *)
    { base with Harness.burst = Some { burst with Harness.burst_clients = 12 } }
  | Retry_storm ->
    (* The metastable cell: a violent crowd whose retries (plus the steady
       clients') can keep the queues full after the crowd's work is done. *)
    { base with Harness.burst = Some burst }
  | Slow_replica ->
    (* No burst; one replica is pathologically slow.  The breaker must
       learn to route around it, the naive system keeps stumbling. *)
    { base with Harness.slow_sites = [ (0, 60.0) ] }

let goodput completions ~window:(t0, t1) =
  let hits =
    Array.fold_left
      (fun acc t -> if t >= t0 && t < t1 then acc + 1 else acc)
      0 completions
  in
  float_of_int hits /. (t1 -. t0)

let line kind mode =
  let n, s = Config_metrics.scenario Config.Arbitrary ~n:9 in
  Scenario_line.one_tree Config.Arbitrary
    ( n,
      {
        s with
        Harness.n_clients = steady_clients;
        (* Enough offered work that steady clients stay active through the
           post window; the horizon, not op exhaustion, ends the run. *)
        ops_per_client = 100;
        (* Read-heavy over a wide key space: per-key write locks must not be
           the bottleneck, the replica service queues must be — lock
           convoying is a different failure mode than the one under test. *)
        read_fraction = 0.8;
        key_space = 64;
        think_time = steady_think;
        seed = 42;
        coordinator = overload_coordinator;
        horizon;
        warmup = 1.0;
        check_consistency = true;
        overload = Some (overload_for kind mode);
      } )

(* The protected model is the one with a retry budget. *)
let mode (c : Campaign.cell) =
  match c.line.sharded.base.overload with
  | Some { retry_budget = Some _; _ } -> Protected
  | _ -> Naive

let pre_goodput (c : Campaign.cell) = goodput c.report.agg.completions ~window:pre_window
let post_goodput (c : Campaign.cell) = goodput c.report.agg.completions ~window:post_window

let recovery c =
  let pre = pre_goodput c in
  if pre > 0.0 then post_goodput c /. pre else 0.0

let run ?domains () =
  Campaign.run ?domains
    (List.concat_map
       (fun kind ->
         List.map (fun mode -> (kind_to_string kind, line kind mode)) [ Naive; Protected ])
       [ Flash_crowd; Slow_replica; Retry_storm ])

let find cells kind m =
  List.find (fun (c : Campaign.cell) -> c.label = kind_to_string kind && mode c = m) cells

(* --- acceptance gate ---------------------------------------------------- *)

let gate cells =
  let g = Gate.create () in
  let check cond = Gate.check g cond in
  let storm_naive = find cells Retry_storm Naive in
  let storm_prot = find cells Retry_storm Protected in
  let flash_prot = find cells Flash_crowd Protected in
  let slow_naive = find cells Slow_replica Naive in
  let slow_prot = find cells Slow_replica Protected in
  (* The negative control must actually demonstrate metastability: with no
     defenses, goodput long after the burst stays collapsed (>=50% below
     the pre-burst baseline). *)
  check
    (recovery storm_naive <= 0.5)
    "retry-storm/naive recovered to %.2f of baseline (want <= 0.5: metastable collapse)"
    (recovery storm_naive);
  (* With budget + breaker + shedding the same storm must not be
     metastable: post-burst goodput recovers to >=90% of baseline. *)
  check
    (recovery storm_prot >= 0.9)
    "retry-storm/protected recovered only to %.2f of baseline (want >= 0.9)"
    (recovery storm_prot);
  check
    (recovery flash_prot >= 0.9)
    "flash-crowd/protected recovered only to %.2f of baseline (want >= 0.9)"
    (recovery flash_prot);
  (* Routing around the slow replica must beat stumbling into it. *)
  check
    (Harness.completed slow_prot.report.agg >= Harness.completed slow_naive.report.agg)
    "slow-replica/protected completed %d ops < naive's %d"
    (Harness.completed slow_prot.report.agg) (Harness.completed slow_naive.report.agg);
  (* The protections must actually engage in the storm cell. *)
  check
    (Harness.count storm_prot.report.agg "replica.shed" > 0)
    "retry-storm/protected shed nothing (admission control never engaged)";
  check
    (Harness.count storm_prot.report.agg "coord.retries_suppressed" > 0)
    "retry-storm/protected suppressed no retries (budget never engaged)";
  (* Overload may cost goodput, never consistency. *)
  List.iter
    (fun (c : Campaign.cell) ->
      let v = Campaign.violations [ c ] in
      check (v = 0) "%s/%s: %d consistency violations (want 0)%s" c.label
        (mode_to_string (mode c)) v (Campaign.blame [ c ]))
    cells;
  Gate.verdict g

let table =
  let int f (c : Campaign.cell) = string_of_int (f c.report.agg) in
  let count name = int (fun r -> Harness.count r name) in
  Campaign.table
    [
      ("scenario", fun c -> c.label);
      ("mode", fun c -> mode_to_string (mode c));
      ("pre gp", fun c -> Tablefmt.f2 (pre_goodput c));
      ("post gp", fun c -> Tablefmt.f2 (post_goodput c));
      ("recovery", fun c -> Tablefmt.f2 (recovery c));
      ("ops ok", int Harness.completed);
      ("sheds", count "replica.shed");
      ("drops", count "net.dropped.overload");
      ("supp", count "coord.retries_suppressed");
      ("trips", count "breaker.trips");
      ("peakq", int (fun r -> r.queue_peak));
      ("viol", fun c -> string_of_int (Campaign.violations [ c ]));
    ]
