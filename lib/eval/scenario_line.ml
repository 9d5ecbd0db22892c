module H = Replication.Harness
module F = Dsim.Failure

type t = { config : Arbitrary.Config.name; n : int; sharded : H.sharded }

let one_tree config (n, s) = { config; n; sharded = H.one_tree s }

(* --- value codecs --------------------------------------------------------- *)

(* [parse] raises on a malformed value; {!set} reports it under the key. *)
type 'a codec = { print : 'a -> string; parse : string -> 'a }

let int = { print = string_of_int; parse = int_of_string }
let bool = { print = string_of_bool; parse = bool_of_string }

(* The shortest %g rendering that reads back to the same float. *)
let fl x =
  let rec go p =
    let s = Printf.sprintf "%.*g" p x in
    if p >= 17 || float_of_string s = x then s else go (p + 1)
  in
  go 15

let ff = float_of_string
let float = { print = fl; parse = ff }

let enum choices =
  {
    print = (fun v -> fst (List.find (fun (_, v') -> v' = v) choices));
    parse = (fun s -> List.assoc (String.lowercase_ascii s) choices);
  }

let list sep c =
  {
    print = (fun xs -> String.concat (String.make 1 sep) (List.map c.print xs));
    parse = (function "" -> [] | s -> List.map c.parse (String.split_on_char sep s));
  }

(* Structured values are colon-separated parts; [%[^:]] reads a float's
   text, which [float_of_string] then parses ([inf] included). *)
let parts = String.split_on_char ':'
let scan fmt f s = Scanf.sscanf s (fmt ^^ "%!") f

let latency =
  let open Dsim.Latency in
  {
    print =
      (function
      | Constant c -> "const:" ^ fl c
      | Uniform (lo, hi) -> Printf.sprintf "uniform:%s:%s" (fl lo) (fl hi)
      | Exponential m -> "exp:" ^ fl m);
    parse =
      (fun s ->
        match parts s with
        | [ "const"; c ] -> Constant (ff c)
        | [ "uniform"; lo; hi ] -> Uniform (ff lo, ff hi)
        | [ "exp"; m ] -> Exponential (ff m)
        | _ -> raise Exit);
  }

let entries =
  let groups = list '/' (list '+' int) in
  list ','
    {
      print =
        (fun { F.time; event } ->
          fl time
          ^
          match event with
          | F.Crash i -> Printf.sprintf ":crash:%d" i
          | F.Recover i -> Printf.sprintf ":recover:%d" i
          | F.Partition g -> ":partition:" ^ groups.print g
          | F.Heal -> ":heal");
      parse =
        (fun s ->
          let event =
            match List.tl (parts s) with
            | [ "crash"; i ] -> F.Crash (int_of_string i)
            | [ "recover"; i ] -> F.Recover (int_of_string i)
            | [ "partition"; g ] -> F.Partition (groups.parse g)
            | [ "heal" ] -> F.Heal
            | _ -> raise Exit
          in
          { F.time = ff (List.hd (parts s)); event });
    }

let site_floats =
  list ','
    {
      print = (fun (i, x) -> Printf.sprintf "%d:%s" i (fl x));
      parse = scan "%d:%[^:]" (fun i x -> (i, ff x));
    }

let detector =
  {
    print = (function H.Oracle -> "oracle" | H.Heartbeat h -> "heartbeat:" ^ fl h.period);
    parse =
      (function
      | "oracle" -> H.Oracle
      | s -> scan "heartbeat:%[^:]" (fun p -> H.Heartbeat { period = ff p }) s);
  }

let wal =
  let open Replication.Wal in
  {
    print = (function Async lag -> "async:" ^ fl lag | p -> policy_to_string p);
    parse =
      (function
      | "commit" -> Sync_on_commit
      | "prepare" -> Sync_on_prepare
      | s -> scan "async:%[^:]" (fun lag -> Async (ff lag)) s);
  }

let membership =
  list ','
    {
      print =
        (fun (m : H.membership_op) ->
          Printf.sprintf "%s:%d:%d:%B" (fl m.at) m.position m.spare m.fence);
      parse =
        scan "%[^:]:%d:%d:%B" (fun at position spare fence ->
            { H.at = ff at; position; spare; fence });
    }

let reconfig =
  list ','
    {
      print =
        (fun (r : H.reconfig) ->
          match r.action with
          | H.Split s -> Printf.sprintf "%s:split:%d" (fl r.at) s
          | H.Merge m -> Printf.sprintf "%s:merge:%d:%d" (fl r.at) m.into m.from_);
      parse =
        (fun s ->
          let at t action = { H.at = ff t; action } in
          match parts s with
          | [ t; "split"; sh ] -> at t (H.Split (int_of_string sh))
          | [ t; "merge"; i; f ] ->
            at t (H.Merge { into = int_of_string i; from_ = int_of_string f })
          | _ -> raise Exit);
    }

let shard_entries =
  list ';'
    {
      print = (fun (sh, es) -> Printf.sprintf "%d@%s" sh (entries.print es));
      parse = scan "%d@%s" (fun sh es -> (sh, entries.parse es));
    }

let config =
  enum
    (List.map
       (fun c -> (String.lowercase_ascii (Arbitrary.Config.name_to_string c), c))
       Arbitrary.Config.all_names)

(* --- places: where a key lives in a sharded scenario ---------------------- *)

type 'a place = {
  read : H.sharded -> 'a option;  (** [None]: an enclosing option record is absent *)
  current : H.sharded -> 'a;  (** absent records read as their defaults *)
  write : H.sharded -> 'a -> H.sharded;  (** creates absent records *)
}

let root = { read = Option.some; current = Fun.id; write = (fun _ v -> v) }

let sub p get put =
  {
    read = (fun s -> Option.map get (p.read s));
    current = (fun s -> get (p.current s));
    write = (fun s v -> p.write s (put (p.current s) v));
  }

(* An option record, reached through [get]/[put] from [p]. *)
let opt default p get put =
  let p = sub p get put in
  {
    read = (fun s -> Option.join (p.read s));
    current = (fun s -> Option.value (p.current s) ~default);
    write = (fun s v -> p.write s (Some v));
  }

let base = sub root (fun s -> s.H.base) (fun s x -> { s with H.base = x })
let coord = sub base (fun b -> b.H.coordinator) (fun b x -> { b with coordinator = x })
let backoff =
  sub coord (fun c -> c.Replication.Coordinator.backoff) (fun c x -> { c with backoff = x })

let overload =
  opt H.overload_defaults base (fun b -> b.H.overload) (fun b x -> { b with overload = x })

let budget =
  opt Detect.Budget.default_config overload (fun o -> o.H.retry_budget) (fun o x ->
      { o with retry_budget = x })

let breaker =
  opt Detect.Breaker.default_config overload (fun o -> o.H.breaker) (fun o x ->
      { o with breaker = x })

let no_burst = { H.burst_at = 0.0; burst_clients = 0; burst_ops = 0; burst_think = 1.0 }
let burst = opt no_burst overload (fun o -> o.H.burst) (fun o x -> { o with burst = x })

let batching =
  opt H.batching_defaults base (fun b -> b.H.batching) (fun b x -> { b with batching = x })

let txn = opt H.txn_defaults base (fun b -> b.H.txn) (fun b x -> { b with txn = x })
let churn = opt H.churn_defaults base (fun b -> b.H.churn) (fun b x -> { b with churn = x })

(* --- the field table ------------------------------------------------------- *)

type field = {
  key : string;
  get : H.sharded -> string option;  (** [None]: the field's option record is absent *)
  put : H.sharded -> string -> H.sharded;
}

(* The key of the field [get]/[put] reach inside [p]'s record, values in
   codec [c]. *)
let f key c p get put =
  let p = sub p get put in
  { key; get = (fun s -> Option.map c.print (p.read s)); put = (fun s v -> p.write s (c.parse v)) }

let fields =
  let open H in
  let module C = Replication.Coordinator in
  let module Bo = Detect.Backoff in
  let module Bu = Detect.Budget in
  let module Br = Detect.Breaker in
  [
    f "n_clients" int base (fun b -> b.n_clients) (fun b x -> { b with n_clients = x });
    f "ops_per_client" int base (fun b -> b.ops_per_client) (fun b x ->
        { b with ops_per_client = x });
    f "read_fraction" float base (fun b -> b.read_fraction) (fun b x ->
        { b with read_fraction = x });
    f "key_space" int base (fun b -> b.key_space) (fun b x -> { b with key_space = x });
    f "zipf_theta" float base (fun b -> b.zipf_theta) (fun b x -> { b with zipf_theta = x });
    f "latency" latency base (fun b -> b.latency) (fun b x -> { b with latency = x });
    f "loss_rate" float base (fun b -> b.loss_rate) (fun b x -> { b with loss_rate = x });
    f "think_time" float base (fun b -> b.think_time) (fun b x -> { b with think_time = x });
    f "failures" entries base (fun b -> b.failures) (fun b x -> { b with failures = x });
    f "seed" int base (fun b -> b.seed) (fun b x -> { b with seed = x });
    f "use_locks" bool base (fun b -> b.use_locks) (fun b x -> { b with use_locks = x });
    f "coordinator.timeout" float coord (fun c -> c.C.timeout) (fun c x -> { c with timeout = x });
    f "coordinator.max_retries" int coord (fun c -> c.C.max_retries) (fun c x ->
        { c with max_retries = x });
    f "coordinator.read_repair" bool coord (fun c -> c.C.read_repair) (fun c x ->
        { c with read_repair = x });
    f "coordinator.adaptive_timeout" bool coord (fun c -> c.C.adaptive_timeout) (fun c x ->
        { c with adaptive_timeout = x });
    f "coordinator.deadline" float coord (fun c -> c.C.deadline) (fun c x ->
        { c with deadline = x });
    f "coordinator.backoff.base" float backoff (fun p -> p.Bo.base) (fun p x ->
        { p with base = x });
    f "coordinator.backoff.factor" float backoff (fun p -> p.Bo.factor) (fun p x ->
        { p with factor = x });
    f "coordinator.backoff.max_delay" float backoff (fun p -> p.Bo.max_delay) (fun p x ->
        { p with max_delay = x });
    f "coordinator.backoff.jitter" float backoff (fun p -> p.Bo.jitter) (fun p x ->
        { p with jitter = x });
    f "detector" detector base (fun b -> b.detector) (fun b x -> { b with detector = x });
    f "horizon" float base (fun b -> b.horizon) (fun b x -> { b with horizon = x });
    f "warmup" float base (fun b -> b.warmup) (fun b x -> { b with warmup = x });
    f "crash_mode"
      (enum [ ("failstop", Dsim.Network.Fail_stop); ("amnesia", Dsim.Network.Amnesia) ])
      base (fun b -> b.crash_mode) (fun b x -> { b with crash_mode = x });
    f "wal" wal base (fun b -> b.wal) (fun b x -> { b with wal = x });
    f "catch_up" bool base (fun b -> b.catch_up) (fun b x -> { b with catch_up = x });
    f "check_consistency" bool base (fun b -> b.check_consistency) (fun b x ->
        { b with check_consistency = x });
    f "overload.queue_capacity" int overload (fun o -> o.queue_capacity) (fun o x ->
        { o with queue_capacity = x });
    f "overload.service_time" float overload (fun (o : overload) -> o.service_time) (fun o x ->
        { o with service_time = x });
    f "overload.slow_sites" site_floats overload (fun o -> o.slow_sites) (fun o x ->
        { o with slow_sites = x });
    f "overload.shed_watermark" int overload (fun o -> o.shed_watermark) (fun o x ->
        { o with shed_watermark = x });
    f "overload.retry_budget.ratio" float budget (fun c -> c.Bu.ratio) (fun c x ->
        { c with ratio = x });
    f "overload.retry_budget.burst" float budget (fun c -> c.Bu.burst) (fun c x ->
        { c with burst = x });
    f "overload.breaker.threshold" int breaker (fun c -> c.Br.threshold) (fun c x ->
        { c with threshold = x });
    f "overload.breaker.cooldown" float breaker (fun c -> c.Br.cooldown) (fun c x ->
        { c with cooldown = x });
    f "overload.breaker.cooldown_factor" float breaker (fun c -> c.Br.cooldown_factor) (fun c x ->
        { c with cooldown_factor = x });
    f "overload.breaker.max_cooldown" float breaker (fun c -> c.Br.max_cooldown) (fun c x ->
        { c with max_cooldown = x });
    f "overload.burst.burst_at" float burst (fun u -> u.burst_at) (fun u x ->
        { u with burst_at = x });
    f "overload.burst.burst_clients" int burst (fun u -> u.burst_clients) (fun u x ->
        { u with burst_clients = x });
    f "overload.burst.burst_ops" int burst (fun u -> u.burst_ops) (fun u x ->
        { u with burst_ops = x });
    f "overload.burst.burst_think" float burst (fun u -> u.burst_think) (fun u x ->
        { u with burst_think = x });
    f "batching.batch_size" int batching (fun t -> t.batch_size) (fun t x ->
        { t with batch_size = x });
    f "batching.group_commit" bool batching (fun t -> t.group_commit) (fun t x ->
        { t with group_commit = x });
    f "batching.pipeline" int batching (fun t -> t.pipeline) (fun t x -> { t with pipeline = x });
    f "txn.keys_per_txn" int txn (fun t -> t.keys_per_txn) (fun t x -> { t with keys_per_txn = x });
    f "txn.atomic" bool txn (fun t -> t.atomic) (fun t x -> { t with atomic = x });
    f "shard_loss" site_floats base (fun b -> b.shard_loss) (fun b x -> { b with shard_loss = x });
    f "churn.spares" int churn (fun c -> c.spares) (fun c x -> { c with spares = x });
    f "churn.membership" membership churn (fun c -> c.membership) (fun c x ->
        { c with membership = x });
    f "churn.chunk_size" int churn (fun c -> c.chunk_size) (fun c x -> { c with chunk_size = x });
    f "churn.fence" bool churn (fun (c : churn) -> c.fence) (fun c x -> { c with fence = x });
    f "shards" int root (fun s -> s.shards) (fun s x -> { s with shards = x });
    f "strategy"
      (enum (List.map (fun s -> (Arbitrary.Shard_map.strategy_to_string s, s)) [ Hash; Range ]))
      root (fun s -> s.strategy) (fun s x -> { s with strategy = x });
    f "service_time" float root (fun (s : sharded) -> s.service_time) (fun s x ->
        { s with service_time = x });
    f "shard_failures" shard_entries root (fun s -> s.shard_failures) (fun s x ->
        { s with shard_failures = x });
    f "reconfig" reconfig root (fun s -> s.reconfig) (fun s x -> { s with reconfig = x });
  ]

let keys = List.map (fun f -> f.key) fields

(* --- lines ------------------------------------------------------------------ *)

let fail fmt = Printf.ksprintf invalid_arg ("Scenario_line: " ^^ fmt)

let parse_as key parse v =
  try parse v
  with Failure _ | Invalid_argument _ | Not_found | Exit | Scanf.Scan_failure _ | End_of_file ->
    fail "bad value %S for key %S" v key

let set t key v =
  match List.find_opt (fun f -> f.key = key) fields with
  | None -> fail "unknown key %S" key
  | Some f -> { t with sharded = parse_as key (f.put t.sharded) v }

let to_string t =
  let default = H.one_tree (H.default_scenario ~proto:t.sharded.base.proto) in
  let word f =
    match f.get t.sharded with
    | Some v when Some v <> f.get default -> Some (f.key ^ "=" ^ v)
    | _ -> None
  in
  String.concat " "
    (("config=" ^ config.print t.config) :: ("n=" ^ int.print t.n) :: List.filter_map word fields)

let of_string line =
  let words =
    String.split_on_char ' ' (String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) line)
  in
  let pairs =
    List.filter_map
      (function
        | "" -> None
        | w -> (
          match String.index_opt w '=' with
          | Some i -> Some (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
          | None -> fail "%S is not key=value" w))
      words
  in
  let rec no_repeats = function
    | [] -> ()
    | (k, _) :: rest -> if List.mem_assoc k rest then fail "repeated key %S" k else no_repeats rest
  in
  no_repeats pairs;
  let required key c =
    match List.assoc_opt key pairs with
    | Some v -> parse_as key c.parse v
    | None -> fail "missing key %S" key
  in
  let name = required "config" config in
  let n, s = Config_metrics.scenario name ~n:(required "n" int) in
  List.fold_left
    (fun t (k, v) -> if k = "config" || k = "n" then t else set t k v)
    (one_tree name (n, s))
    pairs
