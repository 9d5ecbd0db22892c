(* replica-ctl: command-line front end to the arbitrary tree-structured
   replica control protocol library.

     replica-ctl tree --spec 1-3-5
     replica-ctl analyze --config arbitrary -n 100 -p 0.8
     replica-ctl quorums --spec 1-3-5
     replica-ctl plan -n 100 -p 0.8 --read-fraction 0.7
     replica-ctl figures --section fig2
     replica-ctl simulate --config arbitrary -n 65 --ops 200 --mtbf 200
     replica-ctl chaos --crash-mode amnesia --wal commit --check-consistency
*)

open Cmdliner

(* --- shared arguments ---------------------------------------------------- *)

(* A case-insensitive choice among named values; an unknown name is
   reported with the list of choices.  A value prints as its name, found
   by physical equality, so the values need not be comparable (chaos
   schedules hold closures). *)
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

let config_conv =
  choice_conv ~what:"configuration"
    Arbitrary.Config.
      [
        ("binary", Binary); ("unmodified", Unmodified); ("arbitrary", Arbitrary);
        ("hqc", Hqc); ("mostly-read", Mostly_read); ("mostly-write", Mostly_write);
      ]

let spec_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spec" ] ~docv:"SPEC"
        ~doc:
          "Tree specification in the paper's notation, e.g. $(b,1-3-5): a \
           leading 1 is a logical root, the other numbers are physical \
           level sizes.")

let config_arg =
  Arg.(
    value
    & opt (some config_conv) None
    & info [ "config" ] ~docv:"NAME"
        ~doc:"One of the six §4 configurations to build the tree from.")

let n_arg =
  Arg.(
    value & opt int 65
    & info [ "n" ] ~docv:"N" ~doc:"Number of replicas.")

(* A probability: a float in [0, 1]. *)
let probability_conv =
  let parse s =
    match float_of_string_opt s with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok p
    | _ -> Error (`Msg (Printf.sprintf "%S is not a probability in [0, 1]" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let p_arg =
  Arg.(
    value & opt probability_conv 0.7
    & info [ "p" ] ~docv:"P" ~doc:"Per-replica availability probability.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* Flags several subcommands share, each with its own default. *)
let clients_arg ?(doc = "Client count.") default =
  Arg.(value & opt int default & info [ "clients" ] ~docv:"C" ~doc)

let ops_arg ?(doc = "Operations per client.") default =
  Arg.(value & opt int default & info [ "ops" ] ~docv:"OPS" ~doc)

let horizon_arg default =
  Arg.(
    value & opt float default
    & info [ "horizon" ] ~docv:"T" ~doc:"Simulation horizon (virtual time).")

let loss_arg =
  Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"L" ~doc:"Message loss rate.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"S"
        ~doc:
          "Partition the keyspace over S independent tree instances \
           (multi-tree control plane).")

let shard_strategy_conv =
  choice_conv ~what:"strategy"
    (List.map
       (fun st -> (Arbitrary.Shard_map.strategy_to_string st, st))
       [ Arbitrary.Shard_map.Hash; Arbitrary.Shard_map.Range ])

let shard_strategy_arg =
  Arg.(
    value
    & opt shard_strategy_conv Arbitrary.Shard_map.Hash
    & info [ "shard-strategy" ] ~docv:"STRATEGY"
        ~doc:"Key partitioning: $(b,hash) (default) or $(b,range).")

(* Runs [base] over [shards] tree instances, shard i under [failures i]. *)
let run_shards ?obs ~shards ~strategy ~failures base =
  Replication.Shard_harness.run ?obs
    {
      (Replication.Harness.one_tree base) with
      shards;
      strategy;
      shard_failures = List.init shards (fun i -> (i, failures i));
    }

(* The sharding trailer printed by simulate/chaos when S > 1: routing and
   balance, so skew is visible from the CLI. *)
let pp_shard_summary ppf (strategy, r) =
  let module Sh = Replication.Shard_harness in
  Format.fprintf ppf "sharding: shards=%d strategy=%s active=[%s]@,"
    r.Sh.shards
    (Arbitrary.Shard_map.strategy_to_string strategy)
    (String.concat ";" (List.map string_of_int r.Sh.active_shards));
  Format.fprintf ppf "per-shard ops=[%s] keys=[%s] imbalance=%.2f"
    (String.concat ";"
       (List.map string_of_int (Array.to_list r.Sh.per_shard_ops)))
    (String.concat ";"
       (List.map string_of_int (Array.to_list r.Sh.per_shard_keys)))
    (Sh.imbalance_ratio r)

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"PATH"
        ~doc:
          "Attach the observability layer to the run and write a snapshot \
           of every counter and histogram (plus span accounting) to \
           PATH as JSON.")

let spans_jsonl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spans-jsonl" ] ~docv:"PATH"
        ~doc:
          "Stream every completed operation span to PATH as JSON lines \
           (one object per operation: phases, quorums, retries, outcome).")

(* Build the optional observability context for a simulation command.
   Returns the obs handle to thread into the harness and a finalizer that
   writes the requested artifacts once the run completes. *)
let obs_setup ~metrics_json ~spans_jsonl =
  match (metrics_json, spans_jsonl) with
  | None, None -> (None, fun () -> ())
  | _ ->
    let obs = Obs.create () in
    let close_spans =
      match spans_jsonl with
      | None -> fun () -> ()
      | Some path ->
        let sink, close = Eval.Export.file_sink ~path in
        Obs.add_sink obs sink;
        fun () ->
          Obs.flush obs;
          close ();
          Format.printf "wrote %s@." path
    in
    let finish () =
      close_spans ();
      match metrics_json with
      | None -> ()
      | Some path ->
        Eval.Export.write_metrics_json ~path obs;
        Format.printf "wrote %s@." path
    in
    (Some obs, finish)

let tree_of ~spec ~config ~n =
  match (spec, config) with
  | Some s, _ -> Arbitrary.Tree.of_spec s
  | None, Some c -> Arbitrary.Config.build c ~n
  | None, None -> Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n

(* User mistakes (bad specs, n out of range, BINARY/HQC where an arbitrary
   tree is required) surface as [Invalid_argument]; report and fail
   cleanly instead of crashing with a backtrace. *)
let or_fail f =
  try f () with Invalid_argument msg ->
    Format.eprintf "replica-ctl: %s@." msg;
    exit 1

(* --- tree ----------------------------------------------------------------- *)

let tree_cmd =
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of text.")
  in
  let run spec config n dot =
    or_fail @@ fun () ->
    let tree = tree_of ~spec ~config ~n in
    if dot then print_string (Arbitrary.Tree_dot.to_dot tree)
    else begin
      Format.printf "%a@." Arbitrary.Tree.pp tree;
      Format.printf "spec: %s@." (Arbitrary.Tree.to_spec tree);
      Format.printf "satisfies assumption 3.1: %b@."
        (Arbitrary.Tree.satisfies_assumption tree)
    end
  in
  Cmd.v
    (Cmd.info "tree" ~doc:"Build a tree and print its level structure.")
    Term.(const run $ spec_arg $ config_arg $ n_arg $ dot_arg)

(* --- analyze -------------------------------------------------------------- *)

let analyze_cmd =
  let run spec config n p =
    or_fail @@ fun () ->
    let tree = tree_of ~spec ~config ~n in
    Format.printf "%a@." Arbitrary.Analysis.pp_summary
      (Arbitrary.Analysis.summarize tree ~p);
    Format.printf
      "write operation availability (incl. version-phase read): %.4f@."
      (Arbitrary.Analysis.write_operation_availability tree ~p)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Closed-form costs, availability and loads of a tree (§3.2).")
    Term.(const run $ spec_arg $ config_arg $ n_arg $ p_arg)

(* --- quorums -------------------------------------------------------------- *)

let quorums_cmd =
  let run spec config n =
    or_fail @@ fun () ->
    let tree = tree_of ~spec ~config ~n in
    if Arbitrary.Tree.n tree > 16 then
      Format.printf "(tree has %d replicas; enumeration is only for small trees)@."
        (Arbitrary.Tree.n tree)
    else begin
      Format.printf "read quorums (m(R) = %.0f):@."
        (Arbitrary.Analysis.num_read_quorums tree);
      Seq.iter
        (fun q -> Format.printf "  %a@." Dsutil.Bitset.pp q)
        (Arbitrary.Quorums.enumerate_read_quorums tree);
      Format.printf "write quorums (m(W) = %d):@."
        (Arbitrary.Analysis.num_write_quorums tree);
      Seq.iter
        (fun q -> Format.printf "  %a@." Dsutil.Bitset.pp q)
        (Arbitrary.Quorums.enumerate_write_quorums tree)
    end
  in
  Cmd.v
    (Cmd.info "quorums" ~doc:"Enumerate the read and write quorums of a tree.")
    Term.(const run $ spec_arg $ config_arg $ n_arg)

(* --- plan ----------------------------------------------------------------- *)

let plan_cmd =
  let read_fraction_arg =
    Arg.(
      value & opt float 0.5
      & info [ "read-fraction" ] ~docv:"F"
          ~doc:"Fraction of operations that are reads.")
  in
  let run n p read_fraction =
    or_fail @@ fun () ->
    let spectrum = Arbitrary.Planner.spectrum ~n ~p ~read_fraction () in
    Format.printf "best trees for n=%d, p=%.2f, %.0f%% reads:@." n p
      (100.0 *. read_fraction);
    List.iteri
      (fun i (tree, score) ->
        if i < 5 then
          Format.printf "  %d. score %.4f  |K_phy|=%-3d  %s@." (i + 1) score
            (Arbitrary.Tree.num_physical_levels tree)
            (Arbitrary.Tree.to_spec tree))
      spectrum
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Pick the tree configuration for a read/write mix (§3.3).")
    Term.(const run $ n_arg $ p_arg $ read_fraction_arg)

(* --- figures -------------------------------------------------------------- *)

let figures_cmd =
  let export_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "export" ] ~docv:"DIR"
          ~doc:"Write the figure series as CSV plus a gnuplot script into DIR.")
  in
  let section_arg =
    Arg.(
      value & opt string "all"
      & info [ "section" ] ~docv:"SECTION"
          ~doc:"One of: all, table1, fig2, fig3, fig4, limits, related, shapes.")
  in
  let run section export =
    (match export with
    | Some dir ->
      let files = Eval.Export.write_all ~dir () in
      List.iter (Format.printf "wrote %s@.") files
    | None -> ());
    match String.lowercase_ascii section with
    | "all" -> print_string (Eval.Figures.all ())
    | "table1" -> print_string (Eval.Figures.table1 ())
    | "fig2" -> print_string (Eval.Figures.fig2 ())
    | "fig3" -> print_string (Eval.Figures.fig3 ())
    | "fig4" -> print_string (Eval.Figures.fig4 ())
    | "limits" -> print_string (Eval.Figures.limits ())
    | "related" -> print_string (Eval.Figures.related_work ())
    | "shapes" -> print_string (Eval.Figures.shape_checks ())
    | s -> Format.eprintf "unknown section %S@." s
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's tables and figures.")
    Term.(const run $ section_arg $ export_arg)

(* --- txn ------------------------------------------------------------------ *)

let txn_cmd =
  let txns_arg =
    Arg.(
      value & opt int 30
      & info [ "txns" ] ~docv:"T" ~doc:"Transactions per client.")
  in
  let keys_arg =
    Arg.(
      value & opt int 2
      & info [ "keys-per-txn" ] ~docv:"K" ~doc:"Keys read+written per transaction.")
  in
  let mtbf_arg =
    Arg.(
      value & opt (some float) None
      & info [ "mtbf" ] ~docv:"T" ~doc:"Mean time between failures (enables churn).")
  in
  let run config n clients txns keys loss mtbf seed metrics_json spans_jsonl =
    let name = Option.value config ~default:Arbitrary.Config.Arbitrary in
    or_fail @@ fun () ->
    let proto = Eval.Config_metrics.protocol_of name ~n in
    let n_replicas = Quorum.Protocol.universe_size proto in
    let failures =
      match mtbf with
      | None -> []
      | Some mtbf ->
        Dsim.Failure.random_crash_recovery
          ~rng:(Dsutil.Rng.create (seed + 1))
          ~n:n_replicas ~horizon:2000.0 ~mtbf ~mttr:(mtbf /. 4.0)
    in
    let s = Replication.Harness.txn_scenario ~proto in
    let obs, obs_finish = obs_setup ~metrics_json ~spans_jsonl in
    let report =
      Replication.Harness.run ?obs
        {
          s with
          Replication.Harness.n_clients = clients;
          ops_per_client = txns;
          txn = Some { Replication.Harness.keys_per_txn = keys; atomic = true };
          loss_rate = loss;
          failures;
          seed;
        }
    in
    Format.printf "%s over %d replicas:@.%a@."
      (Arbitrary.Config.name_to_string name)
      n_replicas Replication.Harness.pp_txn_report
      (Option.get report.Replication.Harness.transactions);
    obs_finish ()
  in
  Cmd.v
    (Cmd.info "txn"
       ~doc:
         "Run multi-key increment transactions (2PL + cross-key 2PC) and \
          check the conservation invariant.")
    Term.(
      const run $ config_arg $ n_arg $ clients_arg 3 $ txns_arg $ keys_arg
      $ loss_arg $ mtbf_arg $ seed_arg $ metrics_json_arg $ spans_jsonl_arg)

(* --- trace ------------------------------------------------------------------ *)

let trace_cmd =
  let max_arg =
    Arg.(
      value & opt int 60
      & info [ "max" ] ~docv:"LINES" ~doc:"Trace lines to print (from the end).")
  in
  let run spec config n ops max_lines seed =
    or_fail @@ fun () ->
    let tree = tree_of ~spec ~config ~n in
    let proto = Arbitrary.Quorums.protocol tree in
    let n_replicas = Arbitrary.Tree.n tree in
    let engine = Dsim.Engine.create ~seed () in
    let net = Dsim.Network.create ~engine ~n:(n_replicas + 1) () in
    let trace = Dsim.Trace.create () in
    Dsim.Network.attach_trace net
      ~describe:(Format.asprintf "%a" Replication.Message.pp)
      trace;
    let _replicas =
      Array.init n_replicas (fun site -> Replication.Replica.create ~site ~net ())
    in
    let coord = Replication.Coordinator.create ~site:n_replicas ~net ~proto () in
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
    print_endline (Dsim.Trace.dump trace ~max:max_lines)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a few operations and dump the message-level trace.")
    Term.(
      const run $ spec_arg $ config_arg $ n_arg
      $ ops_arg ~doc:"Operations to trace." 3
      $ max_arg $ seed_arg)

(* --- simulate ------------------------------------------------------------- *)

let simulate_cmd =
  let read_fraction_arg =
    Arg.(
      value & opt float 0.5
      & info [ "read-fraction" ] ~docv:"F" ~doc:"Fraction of reads.")
  in
  let mtbf_arg =
    Arg.(
      value & opt (some float) None
      & info [ "mtbf" ] ~docv:"T"
          ~doc:"Mean time between per-replica failures (enables churn).")
  in
  let mttr_arg =
    Arg.(
      value & opt float 30.0
      & info [ "mttr" ] ~docv:"T" ~doc:"Mean time to repair (with --mtbf).")
  in
  let preset_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "preset" ] ~docv:"NAME"
          ~doc:
            "Workload preset: update-heavy, read-mostly, read-only or \
             write-heavy (overrides --read-fraction).")
  in
  let batch_arg =
    Arg.(
      value & opt int 0
      & info [ "batch" ] ~docv:"B"
          ~doc:
            "Client ops per batch window (0 = classic one-op loop; 1 is \
             byte-identical to 0 by construction).")
  in
  let pipeline_arg =
    Arg.(
      value & opt int 1
      & info [ "pipeline" ] ~docv:"P"
          ~doc:"Outstanding batch windows per client (with --batch).")
  in
  let group_commit_arg =
    Arg.(
      value & flag
      & info [ "group-commit" ]
          ~doc:
            "One WAL durability point per batch at the replicas (with \
             --batch).")
  in
  let run config n clients ops read_fraction loss mtbf mttr seed preset batch
      pipeline group_commit shards strategy metrics_json
      spans_jsonl =
    let read_fraction, zipf_theta =
      match preset with
      | None -> (read_fraction, 0.0)
      | Some name -> (
        match Workload.Presets.by_name name with
        | Some p ->
          (p.Workload.Presets.read_fraction, p.Workload.Presets.zipf_theta)
        | None ->
          Format.eprintf "unknown preset %S; available: %s@." name
            (String.concat ", "
               (List.map (fun p -> p.Workload.Presets.name) Workload.Presets.all));
          exit 1)
    in
    let name = Option.value config ~default:Arbitrary.Config.Arbitrary in
    or_fail @@ fun () ->
    let n_replicas, s = Eval.Config_metrics.scenario name ~n in
    (* Per-shard failure schedules draw from seed+1+shard, so shard 0 of a
       sharded run churns exactly like the unsharded run (seed+1) — the
       S=1 byte-identity carries through --mtbf. *)
    let failures_for shard =
      match mtbf with
      | None -> []
      | Some mtbf ->
        Dsim.Failure.random_crash_recovery
          ~rng:(Dsutil.Rng.create (seed + 1 + shard))
          ~n:n_replicas ~horizon:10_000.0 ~mtbf ~mttr
    in
    let batching =
      if batch < 1 then None
      else Some { Replication.Harness.batch_size = batch; group_commit; pipeline }
    in
    let base =
      {
        s with
        Replication.Harness.n_clients = clients;
        ops_per_client = ops;
        read_fraction;
        zipf_theta;
        loss_rate = loss;
        seed;
        batching;
      }
    in
    let obs, obs_finish = obs_setup ~metrics_json ~spans_jsonl in
    let sharded =
      run_shards ?obs ~shards ~strategy ~failures:failures_for base
    in
    let report = sharded.Replication.Harness.agg in
    Format.printf "%s over %d replicas:@.%a@."
      (Arbitrary.Config.name_to_string name)
      n_replicas Replication.Harness.pp_report report;
    if batch >= 1 then
      Format.printf "batching: batch=%d pipeline=%d batches=%d coalesced=%d wal syncs=%d@."
        batch pipeline report.Replication.Harness.batches
        report.Replication.Harness.coalesced_ops
        report.Replication.Harness.wal_syncs;
    if shards > 1 then
      Format.printf "@[<v>%a@]@." pp_shard_summary (strategy, sharded);
    obs_finish ()
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run clients against the protocol on the simulated network.")
    Term.(
      const run $ config_arg $ n_arg $ clients_arg 4 $ ops_arg 100 $ read_fraction_arg
      $ loss_arg $ mtbf_arg $ mttr_arg $ seed_arg $ preset_arg $ batch_arg
      $ pipeline_arg $ group_commit_arg $ shards_arg
      $ shard_strategy_arg $ metrics_json_arg $ spans_jsonl_arg)

(* --- chaos ---------------------------------------------------------------- *)

let chaos_cmd =
  let all_schedules =
    [
      Eval.Chaos.crashes_schedule; Eval.Chaos.partitions_schedule;
      Eval.Chaos.loss_schedule; Eval.Chaos.combined_schedule;
      Eval.Chaos.blackout_schedule;
    ]
  in
  let schedule_conv =
    choice_conv ~what:"schedule"
      (List.map (fun sc -> (sc.Eval.Chaos.label, sc)) all_schedules)
  in
  let schedule_arg =
    Arg.(
      value
      & opt schedule_conv Eval.Chaos.crashes_schedule
      & info [ "schedule" ] ~docv:"NAME"
          ~doc:
            "Failure schedule: $(b,crashes), $(b,partitions), $(b,loss), \
             $(b,combined) or $(b,blackout) (all replicas down at once).")
  in
  let crash_mode_conv =
    choice_conv ~what:"crash mode"
      [ ("failstop", Dsim.Network.Fail_stop); ("amnesia", Dsim.Network.Amnesia) ]
  in
  let crash_mode_arg =
    Arg.(
      value
      & opt crash_mode_conv Dsim.Network.Fail_stop
      & info [ "crash-mode" ] ~docv:"MODE"
          ~doc:
            "What a crash destroys: $(b,failstop) (memory survives, the \
             paper's model) or $(b,amnesia) (volatile state lost; replicas \
             recover via WAL replay and quorum catch-up).")
  in
  let wal_conv =
    choice_conv ~what:"WAL policy"
      [ ("commit", `Commit); ("prepare", `Prepare); ("async", `Async) ]
  in
  let wal_arg =
    Arg.(
      value & opt wal_conv `Commit
      & info [ "wal" ] ~docv:"POLICY"
          ~doc:
            "Stable-storage policy under amnesia: $(b,commit) (fsync on \
             commit), $(b,prepare) (fsync on prepare too) or $(b,async) \
             (background flush; a crash loses the un-flushed suffix).")
  in
  let wal_lag_arg =
    Arg.(
      value & opt float 60.0
      & info [ "wal-lag" ] ~docv:"T"
          ~doc:"Flush lag of the $(b,async) WAL policy (virtual time).")
  in
  let no_catch_up_arg =
    Arg.(
      value & flag
      & info [ "no-catch-up" ]
          ~doc:
            "Serve immediately after WAL replay without quorum catch-up \
             (the unsafe negative-control configuration).")
  in
  let check_consistency_arg =
    Arg.(
      value & flag
      & info [ "check-consistency" ]
          ~doc:
            "Collect every operation span and verify per-key regularity \
             offline; exit non-zero on any violation.")
  in
  let run config n clients ops seed horizon schedule crash_mode wal wal_lag
      no_catch_up check_consistency shards strategy =
    or_fail @@ fun () ->
    let name = Option.value config ~default:Arbitrary.Config.Arbitrary in
    let n, s =
      Eval.Chaos.make_scenario name ~n ~clients ~ops ~seed ~horizon schedule
    in
    (* Shard s draws its schedule from seed+s: shard 0 of a sharded run
       fails exactly like the unsharded run. *)
    let entries_for shard =
      schedule.Eval.Chaos.entries ~rng:(Dsutil.Rng.create (seed + shard)) ~n
        ~horizon
    in
    let wal_policy =
      match wal with
      | `Commit -> Replication.Wal.Sync_on_commit
      | `Prepare -> Replication.Wal.Sync_on_prepare
      | `Async -> Replication.Wal.Async wal_lag
    in
    let catch_up = not no_catch_up in
    let base =
      {
        s with
        Replication.Harness.failures = [];
        crash_mode;
        wal = wal_policy;
        catch_up;
        check_consistency;
      }
    in
    let sharded = run_shards ~shards ~strategy ~failures:entries_for base in
    let report = sharded.Replication.Harness.agg in
    Format.printf "%s over %d replicas: schedule=%s crash-mode=%a wal=%a \
                   catch-up=%s@."
      (Arbitrary.Config.name_to_string name)
      n schedule.Eval.Chaos.label
      (Arg.conv_printer crash_mode_conv)
      crash_mode Replication.Wal.pp_policy wal_policy
      (if catch_up then "on" else "off");
    Format.printf "%a@." Replication.Harness.pp_report report;
    if shards > 1 then
      Format.printf "@[<v>%a@]@." pp_shard_summary (strategy, sharded);
    if crash_mode = Dsim.Network.Amnesia then
      Format.printf
        "recovery: rejoins=%d keys-caught-up=%d abandoned=%d wal-replayed=%d \
         wal-lost=%d stale-rejected=%d stale-nacked=%d still-recovering=%d@."
        report.Replication.Harness.catchup_runs
        report.Replication.Harness.catchup_keys_installed
        report.Replication.Harness.catchup_abandoned
        report.Replication.Harness.wal_records_replayed
        report.Replication.Harness.wal_records_lost
        report.Replication.Harness.stale_incarnation_rejections
        report.Replication.Harness.stale_commits_nacked
        report.Replication.Harness.replicas_recovering;
    if check_consistency then begin
      let c = Eval.Consistency.check report.Replication.Harness.spans in
      Format.printf "consistency: %a@." Eval.Consistency.pp c;
      if not (Eval.Consistency.ok c) then begin
        Format.eprintf "replica-ctl: consistency violated@.";
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run one chaos cell: a failure schedule against the replication \
          stack, optionally with amnesia crash-recovery and offline \
          consistency checking.")
    Term.(
      const run $ config_arg $ n_arg $ clients_arg 3 $ ops_arg 25 $ seed_arg
      $ horizon_arg 3000.0 $ schedule_arg $ crash_mode_arg $ wal_arg $ wal_lag_arg
      $ no_catch_up_arg $ check_consistency_arg $ shards_arg
      $ shard_strategy_arg)

(* --- overload ------------------------------------------------------------- *)

let overload_cmd =
  let queue_capacity_arg =
    Arg.(
      value & opt int 0
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:"Bound on every replica's ingress queue (0 = unbounded).")
  in
  let service_time_arg =
    Arg.(
      value & opt float 4.0
      & info [ "service-time" ] ~docv:"S"
          ~doc:"Per-message replica service cost (what makes overload possible).")
  in
  let shed_watermark_arg =
    Arg.(
      value & opt int 0
      & info [ "shed-watermark" ] ~docv:"N"
          ~doc:
            "Queue depth above which replicas shed client work with a Busy \
             nack (0 = no shedding).")
  in
  let retry_budget_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "retry-budget" ] ~docv:"RATIO"
          ~doc:
            "Enable the global retry budget: tokens deposited per first \
             attempt (e.g. 0.1 caps retries at 10% of attempts).")
  in
  let breaker_arg =
    Arg.(
      value & flag
      & info [ "breaker" ]
          ~doc:
            "Enable the shared per-site circuit breaker that steers quorum \
             assembly away from overloaded replicas.")
  in
  let burst_clients_arg =
    Arg.(
      value & opt int 24
      & info [ "burst-clients" ] ~docv:"C"
          ~doc:"Flash-crowd size joining at a quarter of the horizon (0 = none).")
  in
  let burst_ops_arg =
    Arg.(
      value & opt int 20
      & info [ "burst-ops" ] ~docv:"OPS" ~doc:"Operations per burst client.")
  in
  let max_retries_arg =
    Arg.(
      value & opt int 10
      & info [ "max-retries" ] ~docv:"K" ~doc:"Client retry budget per operation.")
  in
  let run config n clients ops seed horizon queue_capacity service_time
      shed_watermark retry_budget breaker burst_clients burst_ops max_retries =
    or_fail @@ fun () ->
    let name = Option.value config ~default:Arbitrary.Config.Arbitrary in
    let n, s = Eval.Config_metrics.scenario name ~n in
    let burst_at = horizon /. 4.0 in
    let overload =
      {
        Replication.Harness.queue_capacity;
        service_time;
        slow_sites = [];
        shed_watermark;
        retry_budget =
          Option.map
            (fun ratio -> { Detect.Budget.ratio; burst = 5.0 })
            retry_budget;
        breaker = (if breaker then Some Detect.Breaker.default_config else None);
        burst =
          (if burst_clients = 0 then None
           else
             Some
               {
                 Replication.Harness.burst_at;
                 burst_clients;
                 burst_ops;
                 burst_think = 1.0;
               });
      }
    in
    let report =
      Replication.Harness.run
        {
          s with
          Replication.Harness.n_clients = clients;
          ops_per_client = ops;
          read_fraction = 0.8;
          key_space = 64;
          think_time = 50.0;
          seed;
          coordinator =
            {
              Replication.Coordinator.default_config with
              Replication.Coordinator.timeout = 30.0;
              max_retries;
              deadline = Float.infinity;
            };
          horizon;
          warmup = 1.0;
          overload = Some overload;
        }
    in
    Format.printf "%s over %d replicas: capacity=%d service=%.1f watermark=%d \
                   budget=%s breaker=%s burst=%d@."
      (Arbitrary.Config.name_to_string name)
      n queue_capacity service_time shed_watermark
      (match retry_budget with
      | None -> "off"
      | Some r -> Printf.sprintf "%.2f" r)
      (if breaker then "on" else "off")
      burst_clients;
    Format.printf "%a@." Replication.Harness.pp_report report;
    let goodput window =
      Eval.Overload.goodput report.Replication.Harness.completions ~window
    in
    let pre = goodput (horizon *. 0.05, burst_at)
    and post = goodput (horizon *. 0.65, horizon *. 0.95) in
    Format.printf
      "overload: sheds=%d busy=%d suppressed=%d drops=%d trips=%d peak-queue=%d@."
      report.Replication.Harness.replica_sheds
      report.Replication.Harness.busy_received
      report.Replication.Harness.retries_suppressed
      report.Replication.Harness.overload_drops
      report.Replication.Harness.breaker_trips
      report.Replication.Harness.queue_peak;
    Format.printf "goodput: pre-burst=%.3f post-burst=%.3f recovery=%.2f@." pre
      post
      (if pre > 0.0 then post /. pre else 0.0)
  in
  Cmd.v
    (Cmd.info "overload"
       ~doc:
         "Drive a flash crowd into the replication stack with a configurable \
          overload model: bounded replica queues, load shedding, a global \
          retry budget and a per-site circuit breaker.")
    Term.(
      const run $ config_arg $ n_arg
      $ clients_arg ~doc:"Steady client count." 12
      $ ops_arg ~doc:"Operations per steady client." 100
      $ seed_arg $ horizon_arg 4000.0 $ queue_capacity_arg $ service_time_arg
      $ shed_watermark_arg $ retry_budget_arg $ breaker_arg
      $ burst_clients_arg $ burst_ops_arg $ max_retries_arg)

(* --- membership: provision / promote / decommission ----------------------- *)

(* Shared driver: runs the campaign's churn cell ({!Eval.Churn.make_scenario})
   with this command's chunk size and fencing, prints the provisioning /
   membership counters and fails the process on any freshness
   violation. *)
let run_churn ~name ~chunk_size ~fence (n, s) =
  let module H = Replication.Harness in
  let a =
    H.run { s with H.churn = Option.map (fun c -> { c with H.chunk_size; fence }) s.H.churn }
  in
  Format.printf "%s over %d replicas (+2 spares): fence=%s@."
    (Arbitrary.Config.name_to_string name)
    n
    (if fence then "on" else "off");
  Format.printf "clients: reads ok=%d failed=%d writes ok=%d failed=%d@."
    a.H.reads_ok a.H.reads_failed a.H.writes_ok a.H.writes_failed;
  Format.printf
    "provisioning: runs=%d chunks=%d resumes=%d donor-failovers=%d rounds=%d \
     stale=%d failed-rejoins=%d@."
    a.H.provision_runs a.H.provision_chunks a.H.provision_resumes
    a.H.provision_donor_failovers a.H.provision_rounds a.H.provision_stale
    a.H.failed_rejoins;
  Format.printf "membership: promotions=%d/%d decommissions=%d@."
    a.H.promotions_done a.H.promotions_started a.H.decommissions_done;
  Format.printf "status: [%s]@."
    (String.concat ";" (Array.to_list a.H.replica_status));
  Format.printf "violations: %d@." a.H.safety_violations;
  if a.H.safety_violations > 0 then begin
    Format.eprintf "replica-ctl: freshness violated under churn@.";
    exit 1
  end

let chunk_size_arg =
  Arg.(
    value & opt int 1
    & info [ "chunk-size" ] ~docv:"K"
        ~doc:"Keys per snapshot chunk of the provisioning transfer.")

let no_fence_arg =
  Arg.(
    value & flag
    & info [ "no-fence" ]
        ~doc:
          "Serve while provisioning instead of fencing until the WAL tail \
           lands (the unsafe negative-control configuration).")

let provision_cmd =
  let crash_donor_arg =
    Arg.(
      value & flag
      & info [ "crash-donor" ]
          ~doc:
            "Crash the rejoiner's donor mid-transfer, forcing a donor \
             failover with a resume from the last durable chunk mark.")
  in
  let crash_recipient_arg =
    Arg.(
      value & flag
      & info [ "crash-recipient" ]
          ~doc:
            "Crash the rejoiner again mid-transfer; it must resume from its \
             last durable chunk mark rather than refetch from chunk 0.")
  in
  let run config n clients ops seed horizon chunk_size no_fence crash_donor
      crash_recipient =
    or_fail @@ fun () ->
    let name = Option.value config ~default:Arbitrary.Config.Arbitrary in
    (* The rejoiner is the last occupant; its first donor pick is the
       lowest live occupant (site 0) — whom --crash-donor kills. *)
    let failures ~n =
      Eval.Churn.rejoin_failures ~n ~crash_donor ~crash_recipient
    in
    Eval.Churn.make_scenario name ~n ~clients ~ops ~seed ~horizon ~failures
      ~membership:(fun ~n:_ -> [])
    |> run_churn ~name ~chunk_size ~fence:(not no_fence)
  in
  Cmd.v
    (Cmd.info "provision"
       ~doc:
         "Crash a replica and rejoin it through chunked snapshot + WAL-tail \
          provisioning, optionally killing the donor or the recipient \
          mid-transfer to exercise failover and resume.")
    Term.(
      const run $ config_arg $ n_arg $ clients_arg 3 $ ops_arg 25
      $ seed_arg $ horizon_arg 3000.0 $ chunk_size_arg $ no_fence_arg
      $ crash_donor_arg $ crash_recipient_arg)

let position_arg =
  Arg.(
    value & opt int 1
    & info [ "position" ] ~docv:"P"
        ~doc:"Tree position whose occupant is replaced.")

let at_arg =
  Arg.(
    value & opt float 100.0
    & info [ "at" ] ~docv:"T" ~doc:"Virtual time the membership flow starts.")

let promote_cmd =
  let partition_arg =
    Arg.(
      value & flag
      & info [ "partition" ]
          ~doc:
            "Partition the spare away mid-bulk-transfer; the promotion \
             stalls and completes after the heal.")
  in
  let run config n clients ops seed horizon chunk_size position at partition =
    or_fail @@ fun () ->
    let name = Option.value config ~default:Arbitrary.Config.Arbitrary in
    let failures ~n =
      if partition then
        [
          { Dsim.Failure.time = at +. 3.0; event = Dsim.Failure.Partition [ [ n ] ] };
          { Dsim.Failure.time = at +. 100.0; event = Dsim.Failure.Heal };
        ]
      else []
    in
    let membership ~n =
      if position < 0 || position >= n then
        invalid_arg "promote: --position out of range";
      [ { Replication.Harness.at; position; spare = n; fence = false } ]
    in
    Eval.Churn.make_scenario name ~n ~clients ~ops ~seed ~horizon ~failures
      ~membership
    |> run_churn ~name ~chunk_size ~fence:true
  in
  Cmd.v
    (Cmd.info "promote"
       ~doc:
         "Promote a spare site into a tree position while clients run: bulk \
          snapshot provisioning from the outgoing occupant, a locked fenced \
          delta, then the position flip.  The displaced occupant becomes a \
          re-promotable spare.")
    Term.(
      const run $ config_arg $ n_arg $ clients_arg 3 $ ops_arg 25
      $ seed_arg $ horizon_arg 3000.0 $ chunk_size_arg $ position_arg $ at_arg
      $ partition_arg)

let decommission_cmd =
  let run config n clients ops seed horizon chunk_size position at =
    or_fail @@ fun () ->
    let name = Option.value config ~default:Arbitrary.Config.Arbitrary in
    let membership ~n =
      if position < 0 || position >= n then
        invalid_arg "decommission: --position out of range";
      [ { Replication.Harness.at; position; spare = n; fence = true } ]
    in
    Eval.Churn.make_scenario name ~n ~clients ~ops ~seed ~horizon
      ~failures:(fun ~n:_ -> []) ~membership
    |> run_churn ~name ~chunk_size ~fence:true
  in
  Cmd.v
    (Cmd.info "decommission"
       ~doc:
         "Drain-fence-remove a position's occupant: promote a spare into the \
          position and permanently fence the outgoing site (it nacks every \
          quorum role afterwards).")
    Term.(
      const run $ config_arg $ n_arg $ clients_arg 3 $ ops_arg 25
      $ seed_arg $ horizon_arg 3000.0 $ chunk_size_arg $ position_arg $ at_arg)

let () =
  let info =
    Cmd.info "replica-ctl" ~version:"1.0.0"
      ~doc:
        "Arbitrary tree-structured replica control: build trees, analyze \
         them, plan configurations, regenerate the paper's figures, and run \
         simulations."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            tree_cmd; analyze_cmd; quorums_cmd; plan_cmd; figures_cmd;
            simulate_cmd; txn_cmd; trace_cmd; chaos_cmd; overload_cmd;
            provision_cmd; promote_cmd; decommission_cmd;
          ]))
