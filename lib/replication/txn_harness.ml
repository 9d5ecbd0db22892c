module Engine = Dsim.Engine
module Network = Dsim.Network
module Latency = Dsim.Latency
module Failure = Dsim.Failure
module Rng = Dsutil.Rng
module Protocol = Quorum.Protocol
module Shard_map = Arbitrary.Shard_map

type scenario = {
  proto : Protocol.t;
  shards : int;
  strategy : Shard_map.strategy;
  atomic : bool;
  n_clients : int;
  txns_per_client : int;
  keys_per_txn : int;
  key_space : int;
  latency : Latency.t;
  loss_rate : float;
  think_time : float;
  shard_failures : (int * Failure.entry list) list;
  shard_loss : (int * float) list;
  seed : int;
  config : Txn.config;
  horizon : float;
}

let default_scenario ~proto =
  {
    proto;
    shards = 1;
    strategy = Shard_map.Hash;
    atomic = true;
    n_clients = 3;
    txns_per_client = 30;
    keys_per_txn = 2;
    key_space = 6;
    latency = Latency.Exponential 1.0;
    loss_rate = 0.0;
    think_time = 2.0;
    shard_failures = [];
    shard_loss = [];
    seed = 42;
    config = Txn.default_config;
    horizon = 100_000.0;
  }

type report = {
  committed : int;
  aborted : int;
  uncertain : int;
  partial_commits : int;
  committed_increments : int;
  uncertain_increments : int;
  observed_total : int;
  conservation_ok : bool;
  cross_shard_txns : int;
  duration : float;
}

let value_of v = if v = "" then 0 else int_of_string v

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

let is_partial reason =
  String.length reason >= 10 && String.sub reason 0 10 = "non-atomic"

let run_with ?obs ~pick sc =
  List.iter
    (fun (s, _) ->
      if s < 0 || s >= sc.shards then
        invalid_arg "Txn_harness.run: shard_failures index out of range")
    sc.shard_failures;
  let smap =
    Shard_map.create ~strategy:sc.strategy ~shards:sc.shards ~key_space:sc.key_space
      ~seed:sc.seed ()
  in
  let engine = Engine.create ~seed:sc.seed () in
  Option.iter (fun o -> Obs.set_clock o (fun () -> Engine.now engine)) obs;
  (* Every shard forks the protocol, so concurrent runs over one scenario
     template never share quorum-plan scratch state. *)
  let n = Protocol.universe_size sc.proto in
  let create_shard s =
    let proto = Protocol.fork sc.proto in
    let loss_rate =
      Option.value (List.assoc_opt s sc.shard_loss) ~default:sc.loss_rate
    in
    let net =
      Network.create ~engine ~n:(n + sc.n_clients + 1) ~latency:sc.latency ~loss_rate ()
    in
    Option.iter (Network.attach_obs net) obs;
    for site = 0 to n - 1 do
      ignore (Replica.create ~site ~net ())
    done;
    (net, proto)
  in
  let endpoints = Array.init sc.shards create_shard in
  let locks = Lock_manager.create ~engine in
  let committed = ref 0 and aborted = ref 0 and uncertain = ref 0 in
  let partial_commits = ref 0 in
  let committed_increments = ref 0 and uncertain_increments = ref 0 in
  let cross_shard_txns = ref 0 in
  let route key = Shard_map.route smap key in
  let run_client idx =
    let mgr =
      Txn.create_sharded_manager ~site:(n + idx) ~endpoints ~route ~locks
        ~atomic:sc.atomic ?obs ~config:sc.config ()
    in
    let rng = Rng.split (Engine.rng engine) in
    let rec go remaining =
      if remaining > 0 then begin
        let keys = pick rng smap in
        if spans_shards smap keys then incr cross_shard_txns;
        increment_txn mgr ~keys (fun outcome ->
            (match outcome with
            | Txn.Committed ->
              incr committed;
              committed_increments := !committed_increments + List.length keys
            | Txn.Aborted reason ->
              incr aborted;
              (* The in-doubt window: the decision was commit but not every
                 ack arrived; effects may be visible. *)
              if reason = "commit acks incomplete (outcome uncertain)" then begin
                incr uncertain;
                uncertain_increments := !uncertain_increments + List.length keys
              end
              else if is_partial reason then
                (* Negative control: some shard legs applied, some did
                   not.  Deliberately NOT counted toward the uncertain
                   bound — the conservation check must catch the
                   phantoms these leave behind. *)
                incr partial_commits);
            Engine.schedule engine
              ~delay:(Rng.exponential rng sc.think_time)
              (fun () -> go (remaining - 1)))
      end
    in
    go sc.txns_per_client
  in
  for idx = 0 to sc.n_clients - 1 do
    run_client idx
  done;
  List.iter
    (fun (s, entries) -> Failure.apply (fst endpoints.(s)) entries)
    sc.shard_failures;
  Engine.run ~until:sc.horizon engine;
  (* Heal every shard, turn loss off, and tally the counters through
     quorum reads on fresh, uninstrumented endpoints. *)
  Array.iter
    (fun (net, _) ->
      for site = 0 to n - 1 do
        Network.recover net site
      done;
      Network.heal net;
      Network.set_loss_rate net 0.0)
    endpoints;
  let readers =
    Array.map
      (fun (net, proto) -> Quorum_rpc.create ~site:(n + sc.n_clients) ~net ~proto ())
      endpoints
  in
  let observed = ref 0 in
  let pending = ref sc.key_space in
  for key = 0 to sc.key_space - 1 do
    Quorum_rpc.query readers.(route key) ~key (fun r ->
        (match r with Some (_, v) -> observed := !observed + value_of v | None -> ());
        decr pending)
  done;
  Engine.run engine;
  assert (!pending = 0);
  {
    committed = !committed;
    aborted = !aborted;
    uncertain = !uncertain;
    partial_commits = !partial_commits;
    committed_increments = !committed_increments;
    uncertain_increments = !uncertain_increments;
    observed_total = !observed;
    conservation_ok =
      !observed >= !committed_increments
      && !observed <= !committed_increments + !uncertain_increments;
    cross_shard_txns = !cross_shard_txns;
    duration = Engine.now engine;
  }

let run ?obs s =
  if s.keys_per_txn < 1 || s.keys_per_txn > s.key_space then
    invalid_arg "Txn_harness.run: keys_per_txn must be in [1, key_space]";
  let pick rng _ =
    let keys = Array.init s.key_space Fun.id in
    Rng.shuffle rng keys;
    Array.to_list (Array.sub keys 0 s.keys_per_txn)
  in
  run_with ?obs ~pick s

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>transactions: %d committed, %d aborted (%d in-doubt)@,\
     increments: %d committed + %d uncertain; observed total %d@,\
     conservation: %s@]"
    r.committed r.aborted r.uncertain r.committed_increments
    r.uncertain_increments r.observed_total
    (if r.conservation_ok then "OK" else "VIOLATED")
