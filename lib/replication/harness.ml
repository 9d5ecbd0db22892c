module Engine = Dsim.Engine
module Network = Dsim.Network
module Latency = Dsim.Latency
module Failure = Dsim.Failure
module Rng = Dsutil.Rng
module Stats = Dsutil.Stats
module Protocol = Quorum.Protocol
module Shard_map = Arbitrary.Shard_map
module Relabel = Quorum.Relabel

type detector_mode = Oracle | Heartbeat of Detect.Heartbeat.config

(* A flash crowd: extra short-lived clients that pile in at [burst_at]. *)
type burst = {
  burst_at : float;
  burst_clients : int;
  burst_ops : int;
  burst_think : float;
}

type overload = {
  queue_capacity : int;  (** per-replica ingress bound; 0 = unbounded *)
  service_time : float;  (** per-message processing cost at each replica *)
  slow_sites : (int * float) list;  (** per-site service-time overrides *)
  shed_watermark : int;  (** replica admission watermark; 0 = off *)
  retry_budget : Detect.Budget.config option;
  breaker : Detect.Breaker.config option;
  burst : burst option;
}

type batching = {
  batch_size : int;  (** client ops per batch window (>= 1) *)
  group_commit : bool;  (** one WAL sync per batch at the replicas *)
  pipeline : int;  (** outstanding windows per client (>= 1) *)
}

type txn = { keys_per_txn : int; atomic : bool }

(* One scripted membership change: promote [spare] into [position] at
   virtual time [at]; with [fence] the displaced occupant is
   decommissioned (drain-fence-remove), without it the occupant becomes a
   re-promotable spare (a rolling restart step). *)
type membership_op = { at : float; position : int; spare : int; fence : bool }

type churn = {
  spares : int;
  membership : membership_op list;
  chunk_size : int;
  fence : bool;
}

type scenario = {
  proto : Protocol.t;
  n_clients : int;
  ops_per_client : int;
  read_fraction : float;
  key_space : int;
  zipf_theta : float;
  latency : Latency.t;
  loss_rate : float;
  think_time : float;
  failures : Failure.entry list;
  seed : int;
  use_locks : bool;
  coordinator : Coordinator.config;
  detector : detector_mode;
  horizon : float;
  warmup : float;
  crash_mode : Network.crash_mode;
  wal : Wal.policy;
  catch_up : bool;
  check_consistency : bool;
  overload : overload option;
  batching : batching option;
  txn : txn option;
  shard_loss : (int * float) list;
  churn : churn option;
}

let overload_defaults =
  {
    queue_capacity = 0;
    service_time = 0.0;
    slow_sites = [];
    shed_watermark = 0;
    retry_budget = None;
    breaker = None;
    burst = None;
  }

let batching_defaults = { batch_size = 1; group_commit = false; pipeline = 1 }
let txn_defaults = { keys_per_txn = 2; atomic = true }
let churn_defaults = { spares = 1; membership = []; chunk_size = 4; fence = true }

let default_scenario ~proto =
  {
    proto;
    n_clients = 4;
    ops_per_client = 50;
    read_fraction = 0.5;
    key_space = 8;
    zipf_theta = 0.0;
    latency = Latency.Exponential 1.0;
    loss_rate = 0.0;
    think_time = 1.0;
    failures = [];
    seed = 42;
    use_locks = true;
    coordinator = Coordinator.default_config;
    detector = Oracle;
    horizon = 100_000.0;
    warmup = 0.0;
    crash_mode = Network.Fail_stop;
    wal = Wal.Sync_on_commit;
    catch_up = true;
    check_consistency = false;
    overload = None;
    batching = None;
    txn = None;
    shard_loss = [];
    churn = None;
  }

type txn_report = {
  committed : int;
  aborted : int;
  uncertain : int;
  partial_commits : int;
  committed_increments : int;
  uncertain_increments : int;
  observed_total : int;
  conservation_ok : bool;
  cross_shard_txns : int;
}

let txn_scenario ~proto =
  {
    (default_scenario ~proto) with
    n_clients = 3;
    ops_per_client = 30;
    key_space = 6;
    think_time = 2.0;
    txn = Some txn_defaults;
  }

let churn_scenario ~proto =
  {
    (default_scenario ~proto) with
    n_clients = 3;
    ops_per_client = 40;
    think_time = 3.0;
    horizon = 3000.0;
    churn = Some churn_defaults;
  }

type counts = int array

type report = {
  duration : float;
  counts : counts;
  reads_ok : int;
  reads_failed : int;
  writes_ok : int;
  writes_failed : int;
  safety_violations : int;
  read_latency : Stats.t;
  write_latency : Stats.t;
  messages_sent : int;
  messages_delivered : int;
  replica_reads_served : int array;
  replica_prepares_seen : int array;
  replica_writes_applied : int array;
  replica_incarnations : int array;
  replicas_recovering : int;
  spans : Obs.Span.t list;
  queue_peak : int;
  completions : float array;
      (** virtual completion time of every successful operation, in
          completion order — the raw material for goodput-over-time
          windows *)
  wal_syncs : int;
  replica_status : string array;
  transactions : txn_report option;
  promotions_started : int;
  promotions_done : int;
  decommissions_done : int;
}

(* --- the report's counter snapshot ---------------------------------------- *)

(* Every name on the components' handle lists, sorted once.  A report sums
   each component's handles by position into an array aligned with these
   names, so taking it builds no registry and formats no string. *)
let counter_names =
  let names hs = List.map fst hs in
  Array.of_list
    (List.sort_uniq String.compare
       (List.concat
          [
            names Network.counters;
            names Coordinator.counters;
            names Replica.counters;
            names Detect.Breaker.counters;
            names Detect.Heartbeat.counters;
          ]))

let rec find name lo hi =
  if lo >= hi then invalid_arg ("Harness.count: no counter " ^ name)
  else
    let mid = (lo + hi) / 2 in
    let c = String.compare name counter_names.(mid) in
    if c = 0 then mid else if c < 0 then find name lo mid else find name (mid + 1) hi

let slot name = find name 0 (Array.length counter_names)

(* A component type's handle getters, each with the slot it adds to. *)
type 'a kind = { getters : ('a -> Obs.Metrics.counter) array; slots : int array }

let kind hs =
  {
    getters = Array.of_list (List.map snd hs);
    slots = Array.of_list (List.map (fun (name, _) -> slot name) hs);
  }

let net_kind = kind Network.counters
let coord_kind = kind Coordinator.counters
let replica_kind = kind Replica.counters
let breaker_kind = kind Detect.Breaker.counters
let heartbeat_kind = kind Detect.Heartbeat.counters

let add_counts counts k x =
  for i = 0 to Array.length k.slots - 1 do
    let s = k.slots.(i) in
    counts.(s) <- counts.(s) + (k.getters.(i) x).Obs.Metrics.value
  done

(* The kept fields' slots, looked up once. *)
let reads_ok_at = slot "coord.reads.ok"
let reads_failed_at = slot "coord.reads.failed"
let writes_ok_at = slot "coord.writes.ok"
let writes_failed_at = slot "coord.writes.failed"
let sent_at = slot "net.sent"
let delivered_at = slot "net.delivered"
let wal_syncs_at = slot "replica.wal.syncs"

(* The per-site figures read single handles of every replica. *)
let reads_served = List.assoc "replica.reads_served" Replica.counters
let prepares_seen = List.assoc "replica.prepares_seen" Replica.counters
let writes_applied = List.assoc "replica.writes_applied" Replica.counters

let dropped_slots =
  List.filter
    (fun k -> String.starts_with ~prefix:"net.dropped." counter_names.(k))
    (List.init (Array.length counter_names) Fun.id)

let count r name = r.counts.(slot name)
let counters r =
  List.mapi (fun k name -> (name, r.counts.(k))) (Array.to_list counter_names)

let messages_dropped r = List.fold_left (fun acc k -> acc + r.counts.(k)) 0 dropped_slots

type reconfig_action = Split of int | Merge of { into : int; from_ : int }

type reconfig = { at : float; action : reconfig_action }

type sharded = {
  base : scenario;
  shards : int;
  strategy : Shard_map.strategy;
  service_time : float;
  shard_failures : (int * Failure.entry list) list;
  reconfig : reconfig list;
}

let one_tree base =
  {
    base;
    shards = 1;
    strategy = Shard_map.Hash;
    service_time = 0.0;
    shard_failures = [];
    reconfig = [];
  }

type sharded_report = {
  agg : report;
  shards : int;
  active_shards : int list;
  per_shard_ops : int array;
  per_shard_keys : int array;
  migrated_keys : int;
  migration_failures : int;
  splits : int;
  merges : int;
  map_well_formed : bool;
  routing : int array;
}

(* Per-key newest successfully committed timestamp, for the freshness
   check: one checker spans every shard, since keys are globally unique. *)
type checker = { latest : (int, Timestamp.t) Hashtbl.t; mutable violations : int }

(* Coordinators at [site] on every shard's network, outside the client
   counters, spans and locks: the migration copies and the final
   transaction tally. *)
let service_coords ~nets ~protos ~site =
  Array.mapi (fun s net -> Coordinator.create ~site ~net ~proto:protos.(s) ()) nets

(* Online split/merge: at each [rc.at] the shard map flips and the moving
   keys are fenced, copied to the target instance by forced-timestamp
   state transfer, and released.  The migration coordinators sit at
   [mig_site], on every shard's network. *)
let schedule_reconfig ~engine ~locks ~smap ~nets ~protos ~mig_site ~migrated
    ~failed ~splits ~merges reconfig =
  let mig = service_coords ~nets ~protos ~site:mig_site in
  List.iter
    (fun rc ->
      let owner = Lock_manager.fresh_owner locks in
      Engine.schedule engine ~delay:rc.at (fun () ->
          let change =
            match rc.action with
            | Split shard -> Shard_map.plan_split smap ~shard
            | Merge { into; from_ } -> Shard_map.plan_merge smap ~into ~from_
          in
          let moved = change.Shard_map.moved in
          let src = mig.(change.Shard_map.source) in
          let dst = mig.(change.Shard_map.target) in
          (* Flip the routing AND enqueue the fence in one virtual instant.
             Per-key FIFO lock queues then give a clean cutover: every
             operation dispatched before this instant routed to the source
             and sits ahead of the fence, so it completes on the source
             before the copy reads it; every operation dispatched after
             routes to the target and blocks behind the fence until its key
             has been copied.  The source keeps its (now unreachable) copy,
             so nothing is ever read-before-written. *)
          Shard_map.commit smap change;
          let finish () =
            (match rc.action with Split _ -> incr splits | Merge _ -> incr merges);
            List.iter (fun key -> Lock_manager.release locks ~key ~owner) moved
          in
          let rec copy = function
            | [] -> finish ()
            | key :: rest -> copy_key ~attempts:0 key rest
          and copy_key ~attempts key rest =
            let retry () =
              if attempts < 40 then
                Engine.schedule engine ~delay:5.0 (fun () ->
                    copy_key ~attempts:(attempts + 1) key rest)
              else begin
                incr failed;
                copy rest
              end
            in
            Coordinator.read src ~key (function
              | Some { Coordinator.ts; value; _ } ->
                if ts = Timestamp.zero then copy rest
                else
                  (* Reinstall the value on the target shard without
                     minting a new version. *)
                  Coordinator.write dst ~key ~ts ~value (function
                    | Some _ ->
                      incr migrated;
                      copy rest
                    | None -> retry ())
              | None -> retry ())
          in
          (* All fence locks are requested in this same instant: sequential
             acquisition would leave later keys unfenced while earlier
             grants wait out in-flight holders. *)
          let granted = ref 0 in
          let total = List.length moved in
          if total = 0 then finish ()
          else
            List.iter
              (fun key ->
                Lock_manager.acquire locks ~key ~mode:Lock_manager.Exclusive ~owner
                  (fun () ->
                    incr granted;
                    if !granted = total then copy moved))
              moved))
    reconfig

(* Scripted membership changes ride the engine like failures do.
   [replicas] spans the whole site universe, spares included. *)
let schedule_membership ~engine ~locks ~relabel ~replicas ~key_space ~started
    ~promoted ~decommissioned membership =
  List.iter
    (fun (m : membership_op) ->
      Engine.schedule engine ~delay:m.at (fun () ->
          incr started;
          let outgoing =
            if m.fence then Some replicas.(Relabel.site_of relabel ~position:m.position)
            else None
          in
          Reconfig.promote ~locks ~relabel ~position:m.position
            ~spare:replicas.(m.spare) ?outgoing ~key_space (fun () ->
              incr promoted;
              if m.fence then incr decommissioned)))
    membership

(* --- transaction clients -------------------------------------------------- *)

let value_of v = if v = "" then 0 else int_of_string v

(* The [j]-th key, in key order, that [smap] routes to shard [s]. *)
let rec nth_key smap s j k =
  if Shard_map.route smap k <> s then nth_key smap s j (k + 1)
  else if j = 0 then k
  else nth_key smap s (j - 1) (k + 1)

(* Pick [count] distinct keys spread over as many distinct shards as the
   map allows: shuffle the active shards, then draw one random key from
   each in round-robin, rejecting duplicates.  On one shard: distinct
   uniform keys.  A key is drawn as an index among its shard's keys, so
   nothing lists them. *)
let pick_keys ~count rng smap =
  let shards = Array.of_list (Shard_map.active smap) in
  Rng.shuffle rng shards;
  let owned = Shard_map.counts smap in
  let n_sh = Array.length shards in
  let chosen = ref [] in
  for i = 0 to count - 1 do
    let s = shards.(i mod n_sh) in
    if owned.(s) > 0 then begin
      let draw () = nth_key smap s (Rng.int rng owned.(s)) 0 in
      let attempts = ref 0 in
      let key = ref (draw ()) in
      while List.mem !key !chosen && !attempts < 50 do
        key := draw ();
        incr attempts
      done;
      if not (List.mem !key !chosen) then chosen := !key :: !chosen
    end
  done;
  List.rev !chosen

let spans_shards smap keys =
  match keys with
  | [] -> false
  | first :: rest ->
    let s0 = Shard_map.route smap first in
    List.exists (fun k -> Shard_map.route smap k <> s0) rest

(* Read every chosen counter, write each back + 1, commit. *)
let increment_txn mgr ~keys k =
  let txn = Txn.begin_txn mgr in
  let rec step = function
    | [] -> Txn.commit txn k
    | key :: rest ->
      Txn.read txn ~key (function
        | None -> k (Txn.Aborted "read failed")
        | Some v ->
          Txn.write txn ~key ~value:(string_of_int (value_of v + 1));
          step rest)
  in
  step keys

(* The conservation tally of increment transactions:

     committed increments <= final counter total
                          <= committed + in-doubt increments

   [partial] transactions (the non-atomic control) count toward neither
   bound, so the phantoms they leave must break it. *)
let no_txns =
  {
    committed = 0;
    aborted = 0;
    uncertain = 0;
    partial_commits = 0;
    committed_increments = 0;
    uncertain_increments = 0;
    observed_total = 0;
    conservation_ok = true;
    cross_shard_txns = 0;
  }

let count_txn r ~keys = function
  | Txn.Committed ->
    { r with committed = r.committed + 1; committed_increments = r.committed_increments + keys }
  | Txn.In_doubt ->
    {
      r with
      aborted = r.aborted + 1;
      uncertain = r.uncertain + 1;
      uncertain_increments = r.uncertain_increments + keys;
    }
  | Txn.Partial _ -> { r with aborted = r.aborted + 1; partial_commits = r.partial_commits + 1 }
  | Txn.Aborted _ -> { r with aborted = r.aborted + 1 }

(* Heal every shard, turn loss off, and read every counter through fresh
   coordinators at [site]: one read batch per shard. *)
let tally_report ~engine ~smap ~nets ~protos ~n ~site r =
  Array.iter
    (fun net ->
      for s = 0 to n - 1 do
        Network.recover net s
      done;
      Network.heal net;
      Network.set_loss_rate net 0.0)
    nets;
  let readers = service_coords ~nets ~protos ~site in
  let observed = ref 0 in
  let pending = ref 0 in
  Array.iteri
    (fun s reader ->
      incr pending;
      let keys = Array.of_list (Shard_map.keys_of smap s) in
      Coordinator.read_batch reader ~keys ~pos:0 ~len:(Array.length keys) (fun o ->
          if Coordinator.outcome_ok o then
            for i = 0 to Coordinator.outcome_length o - 1 do
              observed := !observed + value_of (Coordinator.outcome_value o i)
            done;
          decr pending))
    readers;
  Engine.run engine;
  assert (!pending = 0);
  {
    r with
    observed_total = !observed;
    conservation_ok =
      !observed >= r.committed_increments
      && !observed <= r.committed_increments + r.uncertain_increments;
  }

(* One pipeline slot of a batched client.  A window is drawn in issue
   order into the [d_*] columns, then grouped by shard with a counting
   sort: the reads of shard [s] land in [r_*] positions
   [r_start.(s), r_start.(s) + r_count.(s)), the writes likewise in the
   [w_*] columns, each shard's run in issue order.  Every buffer is
   allocated with the slot and reused by each of its windows. *)
type window = {
  d_key : int array;
  d_read : bool array;
  d_value : string array;
  d_shard : int array;
  r_key : int array;
  r_expected : Timestamp.t array;  (** the checker's newest at issue *)
  r_shard : int array;
  w_key : int array;
  w_value : string array;
  w_shard : int array;
  r_count : int array;  (** per shard *)
  r_start : int array;
  w_count : int array;
  w_start : int array;
  cursor : int array;  (** per shard: the next free position while placing *)
  mutable parts : int;  (** read and write batches still in flight *)
}

let make_window ~size ~shards =
  {
    d_key = Array.make size 0;
    d_read = Array.make size false;
    d_value = Array.make size "";
    d_shard = Array.make size 0;
    r_key = Array.make size 0;
    r_expected = Array.make size Timestamp.zero;
    r_shard = Array.make size 0;
    w_key = Array.make size 0;
    w_value = Array.make size "";
    w_shard = Array.make size 0;
    r_count = Array.make shards 0;
    r_start = Array.make shards 0;
    w_count = Array.make shards 0;
    w_start = Array.make shards 0;
    cursor = Array.make shards 0;
    parts = 0;
  }

(* Group the window's first [n] drawn ops by shard (see [window]);
   [expected key] is read as each read is placed, and [parts] counts the
   non-empty runs. *)
let group_window w n ~expected =
  let shards = Array.length w.r_count in
  Array.fill w.r_count 0 shards 0;
  Array.fill w.w_count 0 shards 0;
  for j = 0 to n - 1 do
    let s = w.d_shard.(j) in
    if w.d_read.(j) then w.r_count.(s) <- w.r_count.(s) + 1
    else w.w_count.(s) <- w.w_count.(s) + 1
  done;
  let r = ref 0 and wr = ref 0 in
  w.parts <- 0;
  for s = 0 to shards - 1 do
    w.r_start.(s) <- !r;
    w.w_start.(s) <- !wr;
    r := !r + w.r_count.(s);
    wr := !wr + w.w_count.(s);
    if w.r_count.(s) > 0 then w.parts <- w.parts + 1;
    if w.w_count.(s) > 0 then w.parts <- w.parts + 1
  done;
  (* Reads first: their cursors start at [r_start]. *)
  Array.blit w.r_start 0 w.cursor 0 shards;
  for j = 0 to n - 1 do
    if w.d_read.(j) then begin
      let s = w.d_shard.(j) in
      let p = w.cursor.(s) in
      w.cursor.(s) <- p + 1;
      w.r_key.(p) <- w.d_key.(j);
      w.r_expected.(p) <- expected w.d_key.(j);
      w.r_shard.(p) <- s
    end
  done;
  Array.blit w.w_start 0 w.cursor 0 shards;
  for j = 0 to n - 1 do
    if not w.d_read.(j) then begin
      let s = w.d_shard.(j) in
      let p = w.cursor.(s) in
      w.cursor.(s) <- p + 1;
      w.w_key.(p) <- w.d_key.(j);
      w.w_value.(p) <- w.d_value.(j);
      w.w_shard.(p) <- s
    end
  done

let run_core ?obs sc =
  let b = sc.base in
  let check ok msg = if not ok then invalid_arg ("Harness.run: " ^ msg) in
  check (b.n_clients >= 1) "need a client";
  check (b.ops_per_client >= 0) "negative ops_per_client";
  (* Range checks are written [lo <= x && x <= hi] so that NaN fails them. *)
  check (b.key_space >= 1) "key_space must be >= 1";
  check (b.zipf_theta >= 0.0 && b.zipf_theta <= 2.0) "zipf_theta out of [0, 2]";
  check (b.read_fraction >= 0.0 && b.read_fraction <= 1.0)
    "read_fraction out of [0, 1]";
  check (sc.service_time >= 0.0) "negative service_time";
  (* [x >= 0.0] also refuses NaN. *)
  check (b.horizon >= 0.0 && b.warmup >= 0.0 && b.think_time >= 0.0)
    "negative horizon, warmup or think_time";
  Option.iter
    (fun bu ->
      check (bu.burst_clients >= 0 && bu.burst_ops >= 0) "negative burst_clients or burst_ops";
      check (bu.burst_at >= 0.0 && bu.burst_think >= 0.0) "negative burst_at or burst_think")
    (Option.bind b.overload (fun o -> o.burst));
  check (sc.reconfig = [] || b.use_locks) "reconfiguration requires use_locks";
  Option.iter
    (fun bt ->
      check (bt.batch_size >= 1 && bt.pipeline >= 1) "batch_size and pipeline must be >= 1")
    b.batching;
  Option.iter
    (fun tx ->
      check (tx.keys_per_txn >= 1 && tx.keys_per_txn <= b.key_space)
        "keys_per_txn must be in [1, key_space]";
      check (b.batching = None) "transactions and batching exclude each other")
    b.txn;
  (* Split targets exist from the start (their id is allocated when the
     split fires); until then they own no keys and see no traffic. *)
  let splits = List.filter (function { action = Split _; _ } -> true | _ -> false) sc.reconfig in
  let max_shards = sc.shards + List.length splits in
  List.iter
    (fun (s, _) -> check (s >= 0 && s < max_shards) "shard_failures index out of range")
    sc.shard_failures;
  List.iter
    (fun (s, _) -> check (s >= 0 && s < max_shards) "shard_loss index out of range")
    b.shard_loss;
  Option.iter
    (fun c ->
      check (max_shards <= 1) "churn needs a single shard";
      check (c.spares >= 0) "negative spares";
      let n = Protocol.universe_size b.proto in
      List.iter
        (fun (m : membership_op) ->
          check (m.position >= 0 && m.position < n) "membership position out of range";
          check (m.spare >= 0 && m.spare < n + c.spares) "membership spare out of range")
        c.membership)
    b.churn;
  (* A churn run wraps the tree in a relabel map over [n + spares] sites,
     and always runs amnesia crashes, client locks and provisioning in
     place of quorum catch-up: the membership flows need all three.  The
     map is shared between the wrapper and every fork of it, so a
     promotion's remap is visible to every coordinator at once. *)
  let b, churn, provision =
    match b.churn with
    | None -> (b, None, None)
    | Some c ->
      let relabel =
        Relabel.make
          ~universe:(Protocol.universe_size b.proto + c.spares)
          (Protocol.fork b.proto)
      in
      (* Donor candidates are the sites currently holding tree positions:
         spares may be arbitrarily stale, occupants answer for their
         positions' commits.  The closure reads the live map, so failover
         always aims at the membership of the moment. *)
      let donors () =
        List.init (Relabel.positions relabel) (fun p -> Relabel.site_of relabel ~position:p)
      in
      ( {
          b with
          proto = Relabel.pack relabel;
          use_locks = true;
          crash_mode = Network.Amnesia;
          catch_up = false;
        },
        Some (c, relabel),
        Some
          (Replica.provision ~key_space:b.key_space ~chunk_size:c.chunk_size
             ~fence:c.fence ~donors ()) )
  in
  let smap =
    Shard_map.create ~strategy:sc.strategy ~shards:sc.shards ~key_space:b.key_space
      ~seed:b.seed ()
  in
  (* One key distribution for the whole run: every client samples it with
     its own RNG stream. *)
  let keys = Workload.Zipf.create ~n:b.key_space ~theta:b.zipf_theta in
  let engine = Engine.create ~seed:b.seed () in
  (* A positive [service_time] sets every replica's service time. *)
  let overload =
    if sc.service_time > 0.0 then
      Some
        {
          (Option.value b.overload ~default:overload_defaults) with
          service_time = sc.service_time;
        }
    else b.overload
  in
  let n_burst =
    match overload with Some { burst = Some bu; _ } -> bu.burst_clients | _ -> 0
  in
  (* When consistency checking is requested, spans must be collected even
     if the caller brought no [obs] of their own: attach a memory sink to
     theirs, or to a private handle.  Attaching obs never perturbs the
     simulation (no randomness, no events), so checked and unchecked runs
     see the same schedule. *)
  let span_store = if b.check_consistency then Some (Obs.Sink.memory ()) else None in
  let obs =
    match (obs, span_store) with
    | _, None -> obs
    | Some o, Some m ->
      Obs.add_sink o (Obs.Sink.memory_sink m);
      Some o
    | None, Some m ->
      let o = Obs.create () in
      Obs.add_sink o (Obs.Sink.memory_sink m);
      Some o
  in
  Option.iter (fun o -> Obs.set_clock o (fun () -> Engine.now engine)) obs;
  let budget =
    match overload with
    | Some { retry_budget = Some c; _ } -> Some (Detect.Budget.create ~config:c ())
    | _ -> None
  in
  (* No batching is a window of one. *)
  let batching = Option.value b.batching ~default:batching_defaults in
  (* One tree instance per shard, all over the one engine: a forked
     protocol (private plan-cache scratch), its own network (latency
     stream, crash schedule, service queues), breaker and replicas.  Shards
     are built in id order, so the RNG-split sequence depends only on S. *)
  let n = Protocol.universe_size b.proto in
  (* Replicas, then clients, then burst clients; a resharding or
     transaction run adds the address of its migration and tally
     coordinators past them. *)
  let mig_site = n + b.n_clients + n_burst in
  let addresses =
    if sc.reconfig = [] && b.txn = None then mig_site else mig_site + 1
  in
  let create_shard s =
    let proto = Protocol.fork b.proto in
    let loss_rate =
      Option.value (List.assoc_opt s b.shard_loss) ~default:b.loss_rate
    in
    let net = Network.create ~engine ~n:addresses ~latency:b.latency ~loss_rate () in
    Network.set_crash_mode net b.crash_mode;
    Option.iter
      (fun o ->
        for site = 0 to n - 1 do
          let service_time =
            Option.value (List.assoc_opt site o.slow_sites) ~default:o.service_time
          in
          Network.set_service net ~site ~capacity:o.queue_capacity ~service_time ()
        done)
      overload;
    Option.iter (Network.attach_obs net) obs;
    let breaker =
      match overload with
      | Some { breaker = Some c; _ } ->
        let b = Detect.Breaker.create ~config:c ~n ~now:(fun () -> Engine.now engine) () in
        Option.iter
          (fun o -> Obs.Metrics.register_all (Obs.metrics o) Detect.Breaker.counters b)
          obs;
        Some b
      | _ -> None
    in
    let admission =
      Option.map
        (fun o -> Replica.admission ~shed_watermark:o.shed_watermark ~universe:n ())
        overload
    in
    let recovery =
      match b.crash_mode with
      | Network.Fail_stop -> None
      | Network.Amnesia ->
        (* Catch up over the shard's whole key space: WAL replay alone
           cannot know about keys whose records were lost. *)
        Some
          (Replica.recovery ~wal_policy:b.wal ~catch_up:b.catch_up
             ~keys:(fun () -> Shard_map.keys_of smap s)
             ~proto ?provision ())
    in
    let replicas =
      Array.init n (fun site ->
          Replica.create ~site ~net ?recovery ?admission
            ~group_commit:batching.group_commit ?obs ())
    in
    (proto, net, breaker, replicas)
  in
  let trees = Array.init max_shards create_shard in
  let protos = Array.map (fun (p, _, _, _) -> p) trees in
  let nets = Array.map (fun (_, net, _, _) -> net) trees in
  let breakers = Array.map (fun (_, _, br, _) -> br) trees in
  let replicas = Array.map (fun (_, _, _, reps) -> reps) trees in
  (* Transactions bring their own strict 2PL on the shared lock manager;
     their coordinators take no locks. *)
  let locks =
    if b.use_locks || b.txn <> None then Some (Lock_manager.create ~engine) else None
  in
  let coord_locks = if b.txn = None then locks else None in
  let tally = ref no_txns in
  let checker = { latest = Hashtbl.create 16; violations = 0 } in
  let clients_done = ref 0 in
  let monitors = ref [] in
  let per_shard_ops = Array.make max_shards 0 in
  (* Completion times go into a growable floatarray (flat stores): the
     list formulation costs five words per completed op. *)
  let completions = ref (Float.Array.create 64) in
  let n_completions = ref 0 in
  let record_completion shard =
    (if !n_completions = Float.Array.length !completions then begin
       let grown = Float.Array.create (2 * !n_completions) in
       Float.Array.blit !completions 0 grown 0 !n_completions;
       completions := grown
     end);
    Float.Array.set !completions !n_completions (Engine.now engine);
    incr n_completions;
    per_shard_ops.(shard) <- per_shard_ops.(shard) + 1
  in
  (* All clients finished: stop the heartbeat loops so the engine drains
     instead of pinging until the horizon. *)
  let client_finished () =
    incr clients_done;
    if !clients_done = b.n_clients + n_burst then
      List.iter Detect.Heartbeat.stop !monitors
  in
  let run_client ~site ~ops ~think ~start_delay =
    (* One coordinator per shard, all at the client's site address on that
       shard's network; every key is routed through the shard map at issue
       time. *)
    let coords =
      Array.init max_shards (fun s ->
          let view =
            match b.detector with
            | Oracle -> None
            | Heartbeat config ->
              let seq = ref 0 in
              let hb =
                Detect.Heartbeat.create ~engine ~n ~config
                  ~send_ping:(fun dst ->
                    incr seq;
                    Network.send nets.(s) ~src:site ~dst (Message.Ping { seq = !seq }))
                  ()
              in
              Option.iter
                (fun o -> Obs.Metrics.register_all (Obs.metrics o) Detect.Heartbeat.counters hb)
                obs;
              monitors := hb :: !monitors;
              Some (Detect.Heartbeat.view hb)
          in
          Coordinator.create ~site ~net:nets.(s) ~proto:protos.(s) ?locks:coord_locks
            ?view ?budget ?breaker:breakers.(s) ?obs ~config:b.coordinator ())
    in
    let rng = Rng.split (Engine.rng engine) in
    let gen = Workload.Generator.create ~rng ~read_fraction:b.read_fraction ~keys in
    let expected_now key =
      match Hashtbl.find checker.latest key with
      | exception Not_found -> Timestamp.zero
      | ts -> ts
    in
    (* The checker's update for a successful write's flat timestamp, which
       is boxed only when it becomes the key's newest. *)
    let note_write key ~version ~sid =
      let cur = expected_now key in
      if Timestamp.newer_flat version sid cur.Timestamp.version cur.Timestamp.sid then
        Hashtbl.replace checker.latest key (Timestamp.make ~version ~sid)
    in
    (* Operation client: ops are issued in windows of [batch_size], grouped
       per shard into one read batch plus one write batch per touched
       shard (every read batch in shard order, then every write batch),
       with up to [pipeline] windows outstanding.  Think time is drawn
       after a window completes, so a window of one issues one plain
       single-key operation and draws the RNG once per op.  Each slot owns
       its window buffers and its callbacks, so a window allocates
       neither. *)
    let run_ops bt =
      let remaining = ref ops in
      let slots = ref bt.pipeline in
      let retire () =
        decr slots;
        if !slots = 0 then client_finished ()
      in
      let slot () =
        let w = make_window ~size:bt.batch_size ~shards:max_shards in
        let rec window () =
          if !remaining = 0 then retire ()
          else begin
            let wsize = min bt.batch_size !remaining in
            remaining := !remaining - wsize;
            (* Draw the whole window up front, in issue order. *)
            for j = 0 to wsize - 1 do
              match Workload.Generator.next gen with
              | Workload.Generator.Read key ->
                w.d_key.(j) <- key;
                w.d_read.(j) <- true;
                w.d_shard.(j) <- Shard_map.route smap key
              | Workload.Generator.Write (key, value) ->
                w.d_key.(j) <- key;
                w.d_read.(j) <- false;
                w.d_value.(j) <- value;
                w.d_shard.(j) <- Shard_map.route smap key
            done;
            group_window w wsize ~expected:expected_now;
            for s = 0 to max_shards - 1 do
              if w.r_count.(s) > 0 then
                Coordinator.read_batch coords.(s) ~keys:w.r_key ~pos:w.r_start.(s)
                  ~len:w.r_count.(s) reads_done
            done;
            for s = 0 to max_shards - 1 do
              if w.w_count.(s) > 0 then
                Coordinator.write_batch coords.(s) ~keys:w.w_key ~values:w.w_value
                  ~pos:w.w_start.(s) ~len:w.w_count.(s) writes_done
            done
          end
        and reads_done o =
          let pos = Coordinator.outcome_pos o in
          if Coordinator.outcome_ok o then
            for i = 0 to Coordinator.outcome_length o - 1 do
              let expected = w.r_expected.(pos + i) in
              record_completion w.r_shard.(pos + i);
              if
                Timestamp.newer_flat expected.Timestamp.version expected.Timestamp.sid
                  (Coordinator.outcome_version o i) (Coordinator.outcome_sid o i)
              then checker.violations <- checker.violations + 1
            done;
          part_done ()
        and writes_done o =
          let pos = Coordinator.outcome_pos o in
          if Coordinator.outcome_ok o then
            for i = 0 to Coordinator.outcome_length o - 1 do
              record_completion w.w_shard.(pos + i);
              note_write w.w_key.(pos + i) ~version:(Coordinator.outcome_version o i)
                ~sid:(Coordinator.outcome_sid o i)
            done;
          part_done ()
        and part_done () =
          w.parts <- w.parts - 1;
          if w.parts = 0 then
            Engine.schedule engine
              ~delay:(Workload.Generator.think_time gen ~mean:think)
              window
        in
        window ()
      in
      for _ = 1 to bt.pipeline do
        slot ()
      done
    in
    (* Transaction client: [ops] increment transactions over the client's
       per-shard coordinators, each on keys drawn by [pick_keys]. *)
    let run_txns tx =
      let mgr =
        Txn.create_sharded_manager ~site ~engine ~coords ~route:(Shard_map.route smap)
          ~locks:(Option.get locks) ~atomic:tx.atomic ?obs ()
      in
      let rec go remaining =
        if remaining = 0 then client_finished ()
        else begin
          let keys = pick_keys ~count:tx.keys_per_txn rng smap in
          if spans_shards smap keys then
            tally := { !tally with cross_shard_txns = !tally.cross_shard_txns + 1 };
          increment_txn mgr ~keys (fun outcome ->
              tally := count_txn !tally ~keys:(List.length keys) outcome;
              Engine.schedule engine
                ~delay:(Workload.Generator.think_time gen ~mean:think)
                (fun () -> go (remaining - 1)))
        end
      in
      go ops
    in
    let start () =
      match b.txn with
      | Some tx -> run_txns tx
      | None -> run_ops batching
    in
    if start_delay > 0.0 then Engine.schedule engine ~delay:start_delay start
    else start ();
    coords
  in
  let coords =
    List.init b.n_clients (fun idx ->
        run_client ~site:(n + idx) ~ops:b.ops_per_client ~think:b.think_time
          ~start_delay:b.warmup)
  in
  (* The flash crowd joins at [burst_at] on its own network addresses, so
     steady-state clients keep theirs (and their RNG streams). *)
  let burst_coords =
    match overload with
    | Some { burst = Some bu; _ } ->
      List.init bu.burst_clients (fun idx ->
          run_client ~site:(n + b.n_clients + idx) ~ops:bu.burst_ops
            ~think:bu.burst_think ~start_delay:(b.warmup +. bu.burst_at))
    | _ -> []
  in
  let migrated = ref 0 and failed = ref 0 and splits = ref 0 and merges = ref 0 in
  (* Migration endpoints are created after every client, so runs without
     reconfiguration never allocate them. *)
  if sc.reconfig <> [] then
    schedule_reconfig ~engine ~locks:(Option.get locks) ~smap ~nets ~protos ~mig_site
      ~migrated ~failed ~splits ~merges sc.reconfig;
  let started = ref 0 and promoted = ref 0 and decommissioned = ref 0 in
  Option.iter
    (fun (c, relabel) ->
      schedule_membership ~engine ~locks:(Option.get locks) ~relabel
        ~replicas:replicas.(0) ~key_space:b.key_space ~started ~promoted
        ~decommissioned c.membership)
    churn;
  Array.iter (fun net -> Failure.apply net b.failures) nets;
  List.iter (fun (s, entries) -> Failure.apply nets.(s) entries) sc.shard_failures;
  Engine.run ~until:b.horizon engine;
  (* Every count is a sum of the components' counter handles: the handles
     an attached registry reads, so the report cannot disagree with it. *)
  let coords = List.concat_map Array.to_list (coords @ burst_coords) in
  let all_replicas = Array.concat (Array.to_list replicas) in
  let counts = Array.make (Array.length counter_names) 0 in
  List.iter (add_counts counts coord_kind) coords;
  Array.iter (add_counts counts replica_kind) all_replicas;
  Array.iter (add_counts counts net_kind) nets;
  Array.iter (Option.iter (add_counts counts breaker_kind)) breakers;
  List.iter (add_counts counts heartbeat_kind) !monitors;
  let per_replica h = Array.map (fun r -> (h r).Obs.Metrics.value) all_replicas in
  let latency pick = Stats.merge_all (List.map pick coords) in
  let agg =
    {
      duration = Engine.now engine;
      counts;
      reads_ok = counts.(reads_ok_at);
      reads_failed = counts.(reads_failed_at);
      writes_ok = counts.(writes_ok_at);
      writes_failed = counts.(writes_failed_at);
      safety_violations = checker.violations;
      read_latency = latency Coordinator.read_latency;
      write_latency = latency Coordinator.write_latency;
      messages_sent = counts.(sent_at);
      messages_delivered = counts.(delivered_at);
      replica_reads_served = per_replica reads_served;
      replica_prepares_seen = per_replica prepares_seen;
      replica_writes_applied = per_replica writes_applied;
      replica_incarnations = Array.map Replica.incarnation all_replicas;
      replicas_recovering =
        Array.fold_left
          (fun acc r -> if Replica.is_serving r then acc else acc + 1)
          0 all_replicas;
      spans = (match span_store with None -> [] | Some m -> Obs.Sink.memory_spans m);
      queue_peak =
        Array.fold_left
          (fun peak net ->
            let p = ref peak in
            for site = 0 to n - 1 do
              p := max !p (Network.queue_peak net site)
            done;
            !p)
          0 nets;
      completions = Array.init !n_completions (Float.Array.get !completions);
      wal_syncs = counts.(wal_syncs_at);
      replica_status = Array.map Replica.status_label all_replicas;
      transactions = None;
      promotions_started = !started;
      promotions_done = !promoted;
      decommissions_done = !decommissioned;
    }
  in
  (* The tally runs after the report is taken, so its traffic is not
     counted. *)
  let agg =
    match b.txn with
    | None -> agg
    | Some _ ->
      let t = tally_report ~engine ~smap ~nets ~protos ~n ~site:mig_site !tally in
      { agg with transactions = Some t }
  in
  {
    agg;
    shards = Shard_map.shards smap;
    active_shards = Shard_map.active smap;
    per_shard_ops;
    per_shard_keys = Shard_map.counts smap;
    migrated_keys = !migrated;
    migration_failures = !failed;
    splits = !splits;
    merges = !merges;
    map_well_formed = Shard_map.well_formed smap;
    routing = Shard_map.snapshot smap;
  }

let run ?obs scenario = (run_core ?obs (one_tree scenario)).agg

let completed r = r.reads_ok + r.writes_ok

let pp_txn_report ppf r =
  Format.fprintf ppf
    "@[<v>transactions: %d committed, %d aborted (%d in-doubt, %d partial)@,\
     cross-shard: %d@,\
     increments: %d committed + %d uncertain; observed total %d@,\
     conservation: %s@]"
    r.committed r.aborted r.uncertain r.partial_commits r.cross_shard_txns
    r.committed_increments r.uncertain_increments r.observed_total
    (if r.conservation_ok then "OK" else "VIOLATED")

let messages_per_op r =
  if completed r = 0 then 0.0
  else float_of_int r.messages_delivered /. float_of_int (completed r)

let max_over_total counts total =
  if total = 0 then 0.0
  else begin
    let m = Array.fold_left max 0 counts in
    float_of_int m /. float_of_int total
  end

let measured_read_load r = max_over_total r.replica_reads_served r.reads_ok
let measured_write_load r = max_over_total r.replica_prepares_seen r.writes_ok

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>duration=%.1f@,\
     reads: ok=%d failed=%d  writes: ok=%d failed=%d  retries=%d@,\
     safety violations=%d@,\
     read latency: mean=%.2f p99=%.2f   write latency: mean=%.2f p99=%.2f@,\
     messages: sent=%d delivered=%d dropped=%d (%.1f per op)@]"
    r.duration r.reads_ok r.reads_failed r.writes_ok r.writes_failed
    (count r "coord.retries") r.safety_violations
    (Stats.mean r.read_latency)
    (if Stats.count r.read_latency = 0 then 0.0
     else Stats.percentile r.read_latency 0.99)
    (Stats.mean r.write_latency)
    (if Stats.count r.write_latency = 0 then 0.0
     else Stats.percentile r.write_latency 0.99)
    r.messages_sent r.messages_delivered (messages_dropped r) (messages_per_op r)
