(* replica-ctl: command-line front end to the arbitrary tree-structured
   replica control protocol library.

     replica-ctl tree --spec 1-3-5
     replica-ctl analyze --config arbitrary -n 100 -p 0.8
     replica-ctl quorums --spec 1-3-5
     replica-ctl plan -n 100 -p 0.8 --read-fraction 0.7
     replica-ctl figures --section fig2
     replica-ctl simulate --config arbitrary -n 65 --ops 200 --mtbf 200
     replica-ctl chaos --crash-mode amnesia --wal commit --check-consistency
     replica-ctl run 'config=arbitrary n=8 n_clients=2 ops_per_client=20 seed=3'
*)

open Cmdliner

(* --- shared arguments ---------------------------------------------------- *)

(* A case-insensitive choice among named values; an unknown name is
   reported with the list of choices.  A value prints as its name, found
   by physical equality, so the values need not be comparable (chaos
   schedules and figure sections are closures). *)
let choice_conv ~what choices =
  let parse s =
    match List.assoc_opt (String.lowercase_ascii s) choices with
    | Some v -> Ok v
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown %s %S (%s)" what s
             (String.concat "|" (List.map fst choices))))
  in
  let print ppf v =
    Format.pp_print_string ppf (fst (List.find (fun (_, v') -> v' == v) choices))
  in
  Arg.conv (parse, print)

let opt_arg c default name ~docv doc = Arg.(value & opt c default & info [ name ] ~docv ~doc)
let switch name doc = Arg.(value & flag & info [ name ] ~doc)

let spec_arg =
  opt_arg Arg.(some string) None "spec" ~docv:"SPEC"
    "Tree specification in the paper's notation, e.g. $(b,1-3-5): a leading 1 is a \
     logical root, the other numbers are physical level sizes."

let config_arg =
  opt_arg
    Arg.(
      some
        (choice_conv ~what:"configuration"
           Arbitrary.Config.
             [
               ("binary", Binary); ("unmodified", Unmodified); ("arbitrary", Arbitrary);
               ("hqc", Hqc); ("mostly-read", Mostly_read); ("mostly-write", Mostly_write);
             ]))
    None "config" ~docv:"NAME" "One of the six §4 configurations to build the tree from."

let n_arg = opt_arg Arg.int 65 "n" ~docv:"N" "Number of replicas."

(* A probability: a float in [0, 1]. *)
let probability_conv =
  let parse s =
    match float_of_string_opt s with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok p
    | _ -> Error (`Msg (Printf.sprintf "%S is not a probability in [0, 1]" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let p_arg = opt_arg probability_conv 0.7 "p" ~docv:"P" "Per-replica availability probability."

let metrics_json_arg =
  opt_arg Arg.(some string) None "metrics-json" ~docv:"PATH"
    "Attach the observability layer to the run and write a snapshot of every counter \
     and histogram (plus span accounting) to PATH as JSON."

let spans_jsonl_arg =
  opt_arg Arg.(some string) None "spans-jsonl" ~docv:"PATH"
    "Stream every completed operation span to PATH as JSON lines (one object per \
     operation: phases, quorums, retries, outcome)."

(* Build the optional observability context for a simulation command.
   Returns the obs handle to thread into the harness and a finalizer that
   writes the requested artifacts once the run completes. *)
let obs_setup ~metrics_json ~spans_jsonl =
  if metrics_json = None && spans_jsonl = None then (None, ignore)
  else
    let obs = Obs.create () in
    let wrote path = Format.printf "wrote %s@." path in
    let spans =
      Option.map
        (fun path ->
          let sink, close = Eval.Export.file_sink ~path in
          Obs.add_sink obs sink;
          (path, close))
        spans_jsonl
    in
    let finish () =
      Option.iter (fun (path, close) -> Obs.flush obs; close (); wrote path) spans;
      Option.iter (fun path -> Eval.Export.write_metrics_json ~path obs; wrote path) metrics_json
    in
    (Some obs, finish)

let tree_of ~spec ~config ~n =
  match (spec, config) with
  | Some s, _ -> Arbitrary.Tree.of_spec s
  | None, Some c -> Arbitrary.Config.build c ~n
  | None, None -> Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n

(* User mistakes (bad specs, n out of range, BINARY/HQC where an arbitrary
   tree is required, a bad scenario line) surface as [Invalid_argument];
   report and fail cleanly instead of crashing with a backtrace. *)
let fail msg =
  Format.eprintf "replica-ctl: %s@." msg;
  exit 1

let or_fail f = try f () with Invalid_argument msg -> fail msg

(* --- tree, analyze, quorums, plan ----------------------------------------- *)

let tree_cmd =
  let run spec config n dot =
    or_fail @@ fun () ->
    let tree = tree_of ~spec ~config ~n in
    if dot then print_string (Arbitrary.Tree_dot.to_dot tree)
    else begin
      Format.printf "%a@." Arbitrary.Tree.pp tree;
      Format.printf "spec: %s@." (Arbitrary.Tree.to_spec tree);
      Format.printf "satisfies assumption 3.1: %b@." (Arbitrary.Tree.satisfies_assumption tree)
    end
  in
  Cmd.v
    (Cmd.info "tree" ~doc:"Build a tree and print its level structure.")
    Term.(
      const run $ spec_arg $ config_arg $ n_arg
      $ switch "dot" "Emit Graphviz DOT instead of text.")

let analyze_cmd =
  let run spec config n p =
    or_fail @@ fun () ->
    let tree = tree_of ~spec ~config ~n in
    Format.printf "%a@." Arbitrary.Analysis.pp_summary (Arbitrary.Analysis.summarize tree ~p);
    Format.printf "write operation availability (incl. version-phase read): %.4f@."
      (Arbitrary.Analysis.write_operation_availability tree ~p)
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Closed-form costs, availability and loads of a tree (§3.2).")
    Term.(const run $ spec_arg $ config_arg $ n_arg $ p_arg)

let quorums_cmd =
  let run spec config n =
    or_fail @@ fun () ->
    let tree = tree_of ~spec ~config ~n in
    let print qs = Seq.iter (fun q -> Format.printf "  %a@." Dsutil.Bitset.pp q) qs in
    if Arbitrary.Tree.n tree > 16 then
      Format.printf "(tree has %d replicas; enumeration is only for small trees)@."
        (Arbitrary.Tree.n tree)
    else begin
      Format.printf "read quorums (m(R) = %.0f):@." (Arbitrary.Analysis.num_read_quorums tree);
      print (Arbitrary.Quorums.enumerate_read_quorums tree);
      Format.printf "write quorums (m(W) = %d):@." (Arbitrary.Analysis.num_write_quorums tree);
      print (Arbitrary.Quorums.enumerate_write_quorums tree)
    end
  in
  Cmd.v
    (Cmd.info "quorums" ~doc:"Enumerate the read and write quorums of a tree.")
    Term.(const run $ spec_arg $ config_arg $ n_arg)

let plan_cmd =
  let run n p read_fraction =
    or_fail @@ fun () ->
    let spectrum = Arbitrary.Planner.spectrum ~n ~p ~read_fraction () in
    Format.printf "best trees for n=%d, p=%.2f, %.0f%% reads:@." n p (100.0 *. read_fraction);
    List.iteri
      (fun i (tree, score) ->
        if i < 5 then
          Format.printf "  %d. score %.4f  |K_phy|=%-3d  %s@." (i + 1) score
            (Arbitrary.Tree.num_physical_levels tree)
            (Arbitrary.Tree.to_spec tree))
      spectrum
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Pick the tree configuration for a read/write mix (§3.3).")
    Term.(
      const run $ n_arg $ p_arg
      $ opt_arg Arg.float 0.5 "read-fraction" ~docv:"F" "Fraction of operations that are reads.")

(* --- figures -------------------------------------------------------------- *)

let figures_cmd =
  let sections =
    Eval.Figures.
      [
        ("all", all); ("table1", table1); ("fig2", fun () -> fig2 ());
        ("fig3", fun () -> fig3 ()); ("fig4", fun () -> fig4 ());
        ("limits", fun () -> limits ()); ("related", fun () -> related_work ());
        ("shapes", shape_checks);
      ]
  in
  let run section export =
    Option.iter
      (fun dir -> List.iter (Format.printf "wrote %s@.") (Eval.Export.write_all ~dir ()))
      export;
    print_string (section ())
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's tables and figures.")
    Term.(
      const run
      $ opt_arg
          (choice_conv ~what:"section" sections)
          (List.assoc "all" sections) "section" ~docv:"SECTION"
          "One of: all, table1, fig2, fig3, fig4, limits, related, shapes."
      $ opt_arg Arg.(some string) None "export" ~docv:"DIR"
          "Write the figure series as CSV plus a gnuplot script into DIR.")

(* --- trace ------------------------------------------------------------------ *)

let trace_cmd =
  let run spec config n ops max_lines seed =
    or_fail @@ fun () ->
    let tree = tree_of ~spec ~config ~n in
    let proto = Arbitrary.Quorums.protocol tree in
    let n_replicas = Arbitrary.Tree.n tree in
    let engine = Dsim.Engine.create ~seed () in
    let net = Dsim.Network.create ~engine ~n:(n_replicas + 1) () in
    let _replicas =
      Array.init n_replicas (fun site -> Replication.Replica.create ~site ~net ())
    in
    let coord = Replication.Coordinator.create ~site:n_replicas ~net ~proto () in
    (* Every site's handler is wrapped to log each delivery before it runs;
       the last [max_lines] lines are kept. *)
    let lines = Queue.create () in
    for site = 0 to n_replicas do
      Option.iter
        (fun h ->
          Dsim.Network.set_handler net ~site (fun ~src msg ->
              Queue.add
                (Format.asprintf "%10.3f  deliver %d->%d %a" (Dsim.Engine.now engine) src site
                   Replication.Message.pp msg)
                lines;
              if Queue.length lines > max_lines then ignore (Queue.pop lines);
              h ~src msg))
        (Dsim.Network.handler net ~site)
    done;
    let rec go i =
      if i < ops then begin
        if i mod 2 = 0 then
          Replication.Coordinator.write coord ~key:(i / 2)
            ~value:(Printf.sprintf "v%d" i) (fun _ -> go (i + 1))
        else Replication.Coordinator.read coord ~key:(i / 2) (fun _ -> go (i + 1))
      end
    in
    go 0;
    Dsim.Engine.run engine;
    Queue.iter print_endline lines
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a few operations, alternating writes and reads, and print every message \
          delivery: virtual time, sender, receiver and message.")
    Term.(
      const run $ spec_arg $ config_arg $ n_arg
      $ opt_arg Arg.int 3 "ops" ~docv:"OPS" "Operations to trace."
      $ opt_arg Arg.int 60 "max" ~docv:"LINES" "Trace lines to print (from the end)."
      $ opt_arg Arg.int 42 "seed" ~docv:"SEED" "Random seed.")

(* --- scenarios: one line, seven presets ---------------------------------- *)

module H = Replication.Harness
module Line = Eval.Scenario_line

(* Flags that set exactly one scenario field, by its line key.  An entry
   whose key carries a value ([key=value]) is a switch that sets it. *)
let field_flags =
  [
    ("clients", "n_clients", "Client count.");
    ("ops", "ops_per_client", "Operations per client.");
    ("txns", "ops_per_client", "Transactions per client.");
    ("seed", "seed", "Random seed.");
    ("horizon", "horizon", "Simulation horizon (virtual time).");
    ("loss", "loss_rate", "Message loss rate.");
    ("read-fraction", "read_fraction", "Fraction of reads.");
    ("keys-per-txn", "txn.keys_per_txn", "Keys read+written per transaction.");
    ("pipeline", "batching.pipeline", "Outstanding batch windows per client.");
    ("group-commit", "batching.group_commit=true", "One WAL sync per batch.");
    ("shards", "shards", "Partition the keyspace over S independent tree instances.");
    ("shard-strategy", "strategy", "Key partitioning: $(b,hash) (default) or $(b,range).");
    ("crash-mode", "crash_mode", "What a crash destroys: $(b,failstop) or $(b,amnesia).");
    ("check-consistency", "check_consistency=true", "Check every span offline; exit 1 if stale.");
    ("queue-capacity", "overload.queue_capacity", "Bound on every replica queue (0 = none).");
    ("service-time", "overload.service_time", "Per-message replica service cost.");
    ("shed-watermark", "overload.shed_watermark", "Queue depth replicas shed above (0 = off).");
    ("max-retries", "coordinator.max_retries", "Client retry budget per operation.");
    ("burst-ops", "overload.burst.burst_ops", "Operations per burst client.");
    ("chunk-size", "churn.chunk_size", "Keys per snapshot chunk of the provisioning transfer.");
  ]

(* The (key, value) settings of the named table flags on the command line.
   The field's codec checks a value as the flag is parsed, so a malformed
   one is a usage error. *)
let field_args flags =
  let probe = lazy (Line.of_string "config=unmodified n=3") in
  let checked key =
    let parse v =
      match Line.set (Lazy.force probe) key v with
      | _ -> Ok v
      | exception Invalid_argument m -> Error (`Msg m)
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let arg fl =
    let _, key, doc = List.find (fun (f, _, _) -> f = fl) field_flags in
    match String.split_on_char '=' key with
    | [ key; v ] -> Term.(const (fun on -> if on then [ (key, v) ] else []) $ switch fl doc)
    | _ ->
      Term.(
        const (Option.fold ~none:[] ~some:(fun v -> [ (key, v) ]))
        $ opt_arg (Arg.some (checked key)) None fl ~docv:(String.uppercase_ascii fl) doc)
  in
  List.fold_left (fun acc fl -> Term.(const ( @ ) $ acc $ arg fl)) (Term.const []) flags

(* A preset's base line with the table flags applied. *)
let apply kvs t = List.fold_left (fun t (k, v) -> Line.set t k v) t kvs
let line name base kvs = apply kvs (Line.one_tree name base)

let with_base (t : Line.t) f = { t with sharded = { t.sharded with base = f t.sharded.base } }

let with_shard_failures (t : Line.t) f =
  let shard_failures = List.init t.sharded.shards (fun i -> (i, f i)) in
  { t with sharded = { t.sharded with shard_failures } }

let over (t : Line.t) =
  Printf.sprintf "%s over %d replicas" (Arbitrary.Config.name_to_string t.config) t.n

let on_off b = if b then "on" else "off"

(* Runs [t], prints [header] and then the report sections the scenario's
   fields select.  A freshness violation under churn or a consistency
   violation exits 1. *)
let report ?obs ~header (t : Line.t) =
  let sc = t.sharded in
  let b = sc.base in
  let r = H.run_core ?obs sc in
  let a = r.agg in
  let count = H.count a in
  let ints xs = String.concat ";" (List.map string_of_int xs) in
  Format.printf "%s@." header;
  if b.txn = None && b.churn = None then Format.printf "%a@." H.pp_report a;
  Option.iter
    (fun (bt : H.batching) ->
      Format.printf "batching: batch=%d pipeline=%d batches=%d coalesced=%d wal syncs=%d@."
        bt.batch_size bt.pipeline (count "coord.batches") (count "net.coalesced")
        a.wal_syncs)
    b.batching;
  if sc.shards > 1 || sc.reconfig <> [] then
    Format.printf
      "sharding: shards=%d strategy=%s active=[%s]@.per-shard ops=[%s] keys=[%s] imbalance=%.2f@."
      r.shards
      (Arbitrary.Shard_map.strategy_to_string sc.strategy)
      (ints r.active_shards)
      (ints (Array.to_list r.per_shard_ops))
      (ints (Array.to_list r.per_shard_keys))
      (Replication.Shard_harness.imbalance_ratio r);
  if b.crash_mode = Dsim.Network.Amnesia then
    Format.printf
      "recovery: rejoins=%d keys-caught-up=%d abandoned=%d wal-replayed=%d wal-lost=%d \
       stale-rejected=%d stale-nacked=%d still-recovering=%d@."
      (count "replica.catchup.runs") (count "replica.catchup.keys_installed")
      (count "replica.catchup.abandoned") (count "replica.wal.replayed")
      (count "replica.wal.lost") (count "coord.stale_inc.rejected")
      (count "replica.stale_inc.nacked") a.replicas_recovering;
  Option.iter
    (fun (o : H.overload) ->
      Format.printf "overload: sheds=%d busy=%d suppressed=%d drops=%d trips=%d peak-queue=%d@."
        (count "replica.shed") (count "coord.busy_received")
        (count "coord.retries_suppressed") (count "net.dropped.overload")
        (count "breaker.trips") a.queue_peak;
      let burst_at = match o.burst with Some bu -> bu.burst_at | None -> b.horizon /. 4.0 in
      let goodput window = Eval.Overload.goodput a.completions ~window in
      let pre = goodput (b.horizon *. 0.05, burst_at)
      and post = goodput (b.horizon *. 0.65, b.horizon *. 0.95) in
      Format.printf "goodput: pre-burst=%.3f post-burst=%.3f recovery=%.2f@." pre post
        (if pre > 0.0 then post /. pre else 0.0))
    b.overload;
  Option.iter (Format.printf "%a@." H.pp_txn_report) a.transactions;
  if b.churn <> None then begin
    Format.printf "clients: reads ok=%d failed=%d writes ok=%d failed=%d@." a.reads_ok
      a.reads_failed a.writes_ok a.writes_failed;
    Format.printf
      "provisioning: runs=%d chunks=%d resumes=%d donor-failovers=%d rounds=%d stale=%d \
       failed-rejoins=%d@."
      (count "provision.runs") (count "provision.chunks") (count "provision.resumes")
      (count "provision.donor_failovers") (count "provision.rounds")
      (count "provision.stale") (count "replica.rejoin.failed");
    Format.printf "membership: promotions=%d/%d decommissions=%d@.status: [%s]@.violations: %d@."
      a.promotions_done a.promotions_started a.decommissions_done
      (String.concat ";" (Array.to_list a.replica_status))
      a.safety_violations;
    if a.safety_violations > 0 then fail "freshness violated under churn"
  end;
  if b.check_consistency then begin
    let c = Eval.Consistency.check a.spans in
    Format.printf "consistency: %a@." Eval.Consistency.pp c;
    if not (Eval.Consistency.ok c) then fail "consistency violated"
  end

let default_config = Option.value ~default:Arbitrary.Config.Arbitrary
let mtbf_arg doc = opt_arg Arg.(some float) None "mtbf" ~docv:"T" doc

let run_cmd =
  let run line =
    or_fail @@ fun () ->
    let t = Line.of_string line in
    report ~header:(over t ^ ":") t
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run the harness scenario one line describes and print its report.")
    Term.(
      const run
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"LINE"
              ~doc:
                "$(b,config=)NAME $(b,n=)N, then any $(b,key=value) words \
                 (docs/PROTOCOL.md, \"Scenario lines\")."))

(* --- presets: a base scenario, the table flags, and the derived flags ------ *)

let simulate_cmd =
  let run config n kvs mtbf mttr preset batch metrics_json spans_jsonl =
    let name = default_config config in
    or_fail @@ fun () ->
    let n, s = Eval.Config_metrics.scenario name ~n in
    let t = line name (n, { s with ops_per_client = 100 }) kvs in
    let t =
      with_base t (fun b ->
          let b =
            match preset with
            | None -> b
            | Some (p : Workload.Presets.t) ->
              { b with read_fraction = p.read_fraction; zipf_theta = p.zipf_theta }
          in
          if batch < 1 then b
          else
            let bt = Option.value b.batching ~default:H.batching_defaults in
            { b with batching = Some { bt with batch_size = batch } })
    in
    (* Shard i's failure schedule draws from seed+1+i, so shard 0 of a
       sharded run churns exactly like the unsharded run (seed+1). *)
    let seed = t.sharded.base.seed in
    let failures i =
      Option.fold mtbf ~none:[] ~some:(fun mtbf ->
          Dsim.Failure.random_crash_recovery
            ~rng:(Dsutil.Rng.create (seed + 1 + i))
            ~n ~horizon:10_000.0 ~mtbf ~mttr)
    in
    let obs, obs_finish = obs_setup ~metrics_json ~spans_jsonl in
    report ?obs ~header:(over t ^ ":") (with_shard_failures t failures);
    obs_finish ()
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run clients against the protocol on the simulated network.")
    Term.(
      const run $ config_arg $ n_arg
      $ field_args
          [ "clients"; "ops"; "read-fraction"; "loss"; "seed"; "pipeline"; "group-commit";
            "shards"; "shard-strategy" ]
      $ mtbf_arg "Mean time between per-replica failures (enables churn)."
      $ opt_arg Arg.float 30.0 "mttr" ~docv:"T" "Mean time to repair (with --mtbf)."
      $ opt_arg
          (Arg.some
             (choice_conv ~what:"preset"
                (List.map (fun p -> (p.Workload.Presets.name, p)) Workload.Presets.all)))
          None "preset" ~docv:"NAME"
          "Workload preset: update-heavy, read-mostly, read-only or write-heavy (overrides \
           --read-fraction)."
      $ opt_arg Arg.int 0 "batch" ~docv:"B"
          "Client ops per batch window (0 = unset: a window of one, the report's batching \
           line only with $(b,--pipeline) or $(b,--group-commit))."
      $ metrics_json_arg $ spans_jsonl_arg)

let txn_cmd =
  let run config n kvs mtbf metrics_json spans_jsonl =
    let name = default_config config in
    or_fail @@ fun () ->
    let n = Eval.Config_metrics.feasible_n name n in
    let t = line name (n, H.txn_scenario ~proto:(Eval.Config_metrics.protocol_of name ~n)) kvs in
    let failures seed mtbf =
      Dsim.Failure.random_crash_recovery ~rng:(Dsutil.Rng.create (seed + 1)) ~n ~horizon:2000.0
        ~mtbf ~mttr:(mtbf /. 4.0)
    in
    let t =
      with_base t (fun b ->
          Option.fold mtbf ~none:b ~some:(fun m -> { b with failures = failures b.seed m }))
    in
    let obs, obs_finish = obs_setup ~metrics_json ~spans_jsonl in
    report ?obs ~header:(over t ^ ":") t;
    obs_finish ()
  in
  Cmd.v
    (Cmd.info "txn"
       ~doc:
         "Run multi-key increment transactions (2PL + cross-key 2PC) and check the \
          conservation invariant.")
    Term.(
      const run $ config_arg $ n_arg
      $ field_args [ "clients"; "txns"; "keys-per-txn"; "loss"; "seed" ]
      $ mtbf_arg "Mean time between failures (enables churn)."
      $ metrics_json_arg $ spans_jsonl_arg)

let chaos_cmd =
  let schedules =
    List.map
      (fun sc -> (sc.Eval.Chaos.label, sc))
      Eval.Chaos.
        [
          crashes_schedule; partitions_schedule; loss_schedule; combined_schedule;
          blackout_schedule;
        ]
  in
  let run config n kvs schedule wal wal_lag no_catch_up =
    or_fail @@ fun () ->
    let name = default_config config in
    let t =
      apply kvs (Eval.Chaos.line name ~n ~clients:3 ~ops:25 ~seed:42 ~horizon:3000.0 schedule)
    in
    let wal =
      match wal with
      | `Commit -> Replication.Wal.Sync_on_commit
      | `Prepare -> Replication.Wal.Sync_on_prepare
      | `Async -> Replication.Wal.Async wal_lag
    in
    let b = t.sharded.base in
    let t = with_base t (fun b -> { b with failures = []; wal; catch_up = not no_catch_up }) in
    (* Shard i draws its schedule from seed+i: shard 0 of a sharded run
       fails exactly like the unsharded run. *)
    let failures i =
      schedule.Eval.Chaos.entries ~rng:(Dsutil.Rng.create (b.seed + i)) ~n:t.n ~horizon:b.horizon
    in
    report (with_shard_failures t failures)
      ~header:
        (Printf.sprintf "%s: schedule=%s crash-mode=%s wal=%s catch-up=%s" (over t)
           schedule.label
           (if b.crash_mode = Dsim.Network.Amnesia then "amnesia" else "failstop")
           (Replication.Wal.policy_to_string wal)
           (on_off (not no_catch_up)))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run one chaos cell: a failure schedule against the replication stack, optionally \
          with amnesia crash-recovery and offline consistency checking.")
    Term.(
      const run $ config_arg $ n_arg
      $ field_args
          [ "clients"; "ops"; "seed"; "horizon"; "crash-mode"; "check-consistency"; "shards";
            "shard-strategy" ]
      $ opt_arg
          (choice_conv ~what:"schedule" schedules)
          Eval.Chaos.crashes_schedule "schedule" ~docv:"NAME"
          "Failure schedule: $(b,crashes), $(b,partitions), $(b,loss), $(b,combined) or \
           $(b,blackout) (all replicas down at once)."
      $ opt_arg
          (choice_conv ~what:"WAL policy"
             [ ("commit", `Commit); ("prepare", `Prepare); ("async", `Async) ])
          `Commit "wal" ~docv:"POLICY"
          "Stable-storage policy under amnesia: $(b,commit) (fsync on commit), \
           $(b,prepare) (fsync on prepare too) or $(b,async) (background flush; a crash \
           loses the un-flushed suffix)."
      $ opt_arg Arg.float 60.0 "wal-lag" ~docv:"T"
          "Flush lag of the $(b,async) WAL policy (virtual time)."
      $ switch "no-catch-up"
          "Serve immediately after WAL replay without quorum catch-up (the unsafe \
           negative-control configuration).")

let overload_cmd =
  let run config n kvs retry_budget breaker burst_clients =
    or_fail @@ fun () ->
    let name = default_config config in
    let n, s = Eval.Config_metrics.scenario name ~n in
    let burst = { H.burst_at = 0.0; burst_clients; burst_ops = 20; burst_think = 1.0 } in
    let base =
      {
        s with
        n_clients = 12;
        ops_per_client = 100;
        read_fraction = 0.8;
        key_space = 64;
        think_time = 50.0;
        coordinator =
          { Replication.Coordinator.default_config with timeout = 30.0; max_retries = 10 };
        horizon = 4000.0;
        warmup = 1.0;
        overload = Some { H.overload_defaults with service_time = 4.0; burst = Some burst };
      }
    in
    let t = line name (n, base) kvs in
    let b = t.sharded.base in
    let o = Option.get b.overload in
    let o =
      {
        o with
        retry_budget = Option.map (fun ratio -> { Detect.Budget.ratio; burst = 5.0 }) retry_budget;
        breaker = (if breaker then Some Detect.Breaker.default_config else None);
        burst =
          (if burst_clients = 0 then None
           else Option.map (fun (bu : H.burst) -> { bu with burst_at = b.horizon /. 4.0 }) o.burst);
      }
    in
    report
      (with_base t (fun b -> { b with overload = Some o }))
      ~header:
        (Printf.sprintf "%s: capacity=%d service=%.1f watermark=%d budget=%s breaker=%s burst=%d"
           (over t) o.queue_capacity o.service_time o.shed_watermark
           (Option.fold retry_budget ~none:"off" ~some:(Printf.sprintf "%.2f"))
           (on_off breaker) burst_clients)
  in
  Cmd.v
    (Cmd.info "overload"
       ~doc:
         "Drive a flash crowd into the replication stack with a configurable overload \
          model: bounded replica queues, load shedding, a global retry budget and a \
          per-site circuit breaker.")
    Term.(
      const run $ config_arg $ n_arg
      $ field_args
          [ "clients"; "ops"; "seed"; "horizon"; "queue-capacity"; "service-time";
            "shed-watermark"; "burst-ops"; "max-retries" ]
      $ opt_arg Arg.(some float) None "retry-budget" ~docv:"RATIO"
          "Enable the global retry budget: tokens deposited per first attempt (e.g. 0.1 \
           caps retries at 10% of attempts)."
      $ switch "breaker"
          "Enable the shared per-site circuit breaker that steers quorum assembly away \
           from overloaded replicas."
      $ opt_arg Arg.int 24 "burst-clients" ~docv:"C"
          "Flash-crowd size joining at a quarter of the horizon (0 = none).")

(* The membership presets run the churn campaign's cell
   ({!Eval.Churn.line}). *)
let churn_cmd cmd ~doc script =
  let run config n kvs (failures, membership, fence) =
    or_fail @@ fun () ->
    let name = default_config config in
    let t =
      apply kvs
        (Eval.Churn.line name ~n ~clients:3 ~ops:25 ~seed:42 ~horizon:3000.0 ~failures
           ~membership)
    in
    let t =
      with_base t (fun b ->
          { b with churn = Option.map (fun (c : H.churn) -> { c with fence }) b.churn })
    in
    report t
      ~header:
        (Printf.sprintf "%s (+%d spares): fence=%s" (over t)
           (Option.get t.sharded.base.churn).spares (on_off fence))
  in
  Cmd.v (Cmd.info cmd ~doc)
    Term.(
      const run $ config_arg $ n_arg
      $ field_args [ "clients"; "ops"; "seed"; "horizon"; "chunk-size" ]
      $ script)

(* Position [position]'s occupant is replaced by the first spare at [at]. *)
let flow_args cmd ~fence =
  let flow position at ~n =
    if position < 0 || position >= n then invalid_arg (cmd ^ ": --position out of range");
    [ { H.at; position; spare = n; fence } ]
  in
  Term.(
    const (fun position at -> (at, flow position at))
    $ opt_arg Arg.int 1 "position" ~docv:"P" "Tree position whose occupant is replaced."
    $ opt_arg Arg.float 100.0 "at" ~docv:"T" "Virtual time the membership flow starts.")

let provision_cmd =
  churn_cmd "provision"
    ~doc:
      "Crash a replica and rejoin it through chunked snapshot + WAL-tail provisioning, \
       optionally killing the donor or the recipient mid-transfer to exercise failover \
       and resume."
    (* The rejoiner is the last occupant; its first donor pick is the
       lowest live occupant (site 0) — whom --crash-donor kills. *)
    Term.(
      const (fun no_fence crash_donor crash_recipient ->
          ( Eval.Churn.rejoin_failures ~crash_donor ~crash_recipient,
            (fun ~n:_ -> []),
            not no_fence ))
      $ switch "no-fence"
          "Serve while provisioning instead of fencing until the WAL tail lands (the unsafe \
           negative-control configuration)."
      $ switch "crash-donor"
          "Crash the rejoiner's donor mid-transfer, forcing a donor failover with a resume \
           from the last durable chunk mark."
      $ switch "crash-recipient"
          "Crash the rejoiner again mid-transfer; it must resume from its last durable \
           chunk mark rather than refetch from chunk 0.")

let promote_cmd =
  churn_cmd "promote"
    ~doc:
      "Promote a spare site into a tree position while clients run: bulk snapshot \
       provisioning from the outgoing occupant, a locked fenced delta, then the position \
       flip.  The displaced occupant becomes a re-promotable spare."
    Term.(
      const (fun (at, flow) partition ->
          let failures ~n =
            if not partition then []
            else
              Dsim.Failure.
                [
                  { time = at +. 3.0; event = Partition [ [ n ] ] };
                  { time = at +. 100.0; event = Heal };
                ]
          in
          (failures, flow, true))
      $ flow_args "promote" ~fence:false
      $ switch "partition"
          "Partition the spare away mid-bulk-transfer; the promotion stalls and completes \
           after the heal.")

let decommission_cmd =
  churn_cmd "decommission"
    ~doc:
      "Drain-fence-remove a position's occupant: promote a spare into the position and \
       permanently fence the outgoing site (it nacks every quorum role afterwards)."
    Term.(
      const (fun (_, flow) -> ((fun ~n:_ -> []), flow, true))
      $ flow_args "decommission" ~fence:true)

let () =
  let info =
    Cmd.info "replica-ctl" ~version:"1.0.0"
      ~doc:
        "Arbitrary tree-structured replica control: build trees, analyze them, plan \
         configurations, regenerate the paper's figures, and run simulations."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            tree_cmd; analyze_cmd; quorums_cmd; plan_cmd; figures_cmd; simulate_cmd; txn_cmd;
            trace_cmd; chaos_cmd; overload_cmd; provision_cmd; promote_cmd; decommission_cmd;
            run_cmd;
          ]))
