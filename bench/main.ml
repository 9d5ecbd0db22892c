(* The full benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's experiment index), compares the
   analytic model against full protocol executions on the simulator,
   produces the instrumented baseline (BENCH_baseline.json), and finishes
   with bechamel micro-benchmarks of the hot paths.

   Run with: dune exec bench/main.exe              # everything
             dune exec bench/main.exe -- --smoke   # baseline only (CI gate)
             dune exec bench/main.exe -- --hotpath # hot paths only (CI perf gate)
             dune exec bench/main.exe -- --shard   # shard scaling only (CI gate)

   The baseline section is a gate, not just a report: it exits non-zero
   when the measured per-site loads drift more than 10% from Equation 3.2,
   when span accounting leaks, or when the JSON payload fails its
   structural check. *)

open Bechamel

let hr title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* --- experiment regeneration -------------------------------------------- *)

let analytic_sections () =
  hr "T1 | Table 1 and the worked example of §3.4";
  print_string (Eval.Figures.table1 ());
  hr "F2 | Figure 2: communication costs";
  print_string (Eval.Figures.fig2 ());
  hr "F3 | Figure 3: (expected) system loads of read operations";
  print_string (Eval.Figures.fig3 ());
  hr "F4 | Figure 4: (expected) system loads of write operations";
  print_string (Eval.Figures.fig4 ());
  hr "P1 | Limit availabilities of §3.3";
  print_string (Eval.Figures.limits ());
  hr "§1 | Related-work comparison";
  print_string (Eval.Figures.related_work ());
  hr "§4 | Qualitative shape checks";
  print_string (Eval.Figures.shape_checks ())

let simulation_sections () =
  hr "A1 | Ablation: measured (simulated) vs analytic";
  print_string (Eval.Simulate.cost_load_table ~n:65 ~ops:400 ());
  print_newline ();
  print_string (Eval.Simulate.cost_sweep ());
  print_newline ();
  print_string (Eval.Simulate.latency_table ());
  print_newline ();
  print_string (Eval.Simulate.availability_table ~n:65 ~trials:3000 ());
  print_newline ();
  print_string (Eval.Simulate.failure_availability_table ~n:33 ~patterns:40 ())

let txn_section () =
  hr "§2.2 | Transactions: 2PL + cross-key 2PC (increment workload)";
  let proto =
    Arbitrary.Quorums.protocol (Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n:24)
  in
  let s = Replication.Txn_harness.default_scenario ~proto in
  Format.printf "failure-free:@.  %a@." Replication.Txn_harness.pp_report
    (Replication.Txn_harness.run s);
  let rng = Dsutil.Rng.create 5 in
  let failures =
    Dsim.Failure.random_crash_recovery ~rng ~n:24 ~horizon:400.0 ~mtbf:150.0
      ~mttr:40.0
  in
  Format.printf "churn + 2%% loss:@.  %a@." Replication.Txn_harness.pp_report
    (Replication.Txn_harness.run
       { s with Replication.Txn_harness.failures; loss_rate = 0.02; n_clients = 4 })

let generalized_section () =
  hr "Extension: per-level (r,w) thresholds (Generalized protocol)";
  let tree = Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n:64 in
  let p = 0.7 in
  let rows =
    List.map
      (fun (name, g) ->
        [
          name;
          string_of_int (Arbitrary.Generalized.read_cost g);
          Printf.sprintf "%.2f" (Arbitrary.Generalized.write_cost_avg g);
          Printf.sprintf "%.4f" (Arbitrary.Generalized.read_load g);
          Printf.sprintf "%.4f" (Arbitrary.Generalized.write_load g);
          Printf.sprintf "%.4f" (Arbitrary.Generalized.read_availability g ~p);
          Printf.sprintf "%.4f" (Arbitrary.Generalized.write_availability g ~p);
        ])
      [
        ("classic (paper)", Arbitrary.Generalized.classic tree);
        ("level-majority", Arbitrary.Generalized.level_majority tree);
      ]
  in
  print_string
    (Eval.Tablefmt.render
       ~header:
         [ "thresholds"; "rd cost"; "wr cost"; "rd load"; "wr load";
           "rd avail"; "wr avail" ]
       ~rows);
  Format.printf
    "(algorithm-1 tree, n=64, p=%.1f: majority thresholds cut the write cost@.    \ and lift write availability, paying with read cost — a knob the@.    \ paper's 1-of/all-of rule does not expose)@." p

let placement_section () =
  hr "Ablation: replica placement under heterogeneous availability";
  let tree = Arbitrary.Tree.figure1 () in
  let p = [| 0.95; 0.95; 0.95; 0.6; 0.6; 0.6; 0.6; 0.6 |] in
  let show name a =
    Format.printf "  %-22s read avail %.4f   write avail %.4f@." name
      (Arbitrary.Placement.availability_of tree ~p a
         Arbitrary.Placement.Read_availability)
      (Arbitrary.Placement.availability_of tree ~p a
         Arbitrary.Placement.Write_availability)
  in
  Format.printf
    "figure-1 tree, three 0.95-sites among five 0.6-sites; where they sit:@.";
  show "identity" (Arbitrary.Placement.identity tree);
  show "spread (read-greedy)"
    (Arbitrary.Placement.greedy tree ~p Arbitrary.Placement.Read_availability);
  show "concentrate (wr-greedy)"
    (Arbitrary.Placement.greedy tree ~p Arbitrary.Placement.Write_availability);
  show "exhaustive (reads)"
    (Arbitrary.Placement.exhaustive tree ~p Arbitrary.Placement.Read_availability);
  Format.printf
    "  -> reads want reliable sites SPREAD one per level; writes want them@.    \   CONCENTRATED on one level. The paper's uniform-p model hides this.@."

let planner_section () =
  hr "§3.3 | Planner spectrum (n=100, p=0.8)";
  let rows =
    List.map
      (fun read_fraction ->
        let tree = Arbitrary.Planner.plan ~n:100 ~p:0.8 ~read_fraction () in
        let s = Arbitrary.Analysis.summarize tree ~p:0.8 in
        [
          Printf.sprintf "%.2f" read_fraction;
          string_of_int (Arbitrary.Tree.num_physical_levels tree);
          string_of_int s.Arbitrary.Analysis.rd_cost;
          Printf.sprintf "%.2f" s.Arbitrary.Analysis.wr_cost_avg;
          Printf.sprintf "%.4f" s.Arbitrary.Analysis.expected_rd_load;
          Printf.sprintf "%.4f" s.Arbitrary.Analysis.expected_wr_load;
        ])
      [ 0.01; 0.25; 0.5; 0.75; 0.99 ]
  in
  print_string
    (Eval.Tablefmt.render
       ~header:
         [ "read frac"; "|K_phy|"; "rd cost"; "wr cost"; "E[L_RD]"; "E[L_WR]" ]
       ~rows);
  (* The extension-aware planner may pick level-majority thresholds. *)
  Format.printf "@.with generalized thresholds (write-heavy mix):@.";
  let g = Arbitrary.Planner.plan_generalized ~n:100 ~p:0.8 ~read_fraction:0.1 () in
  Format.printf "  tree %s  thresholds r=%s w=%s@."
    (Arbitrary.Tree.to_spec (Arbitrary.Generalized.tree g))
    (String.concat "," (List.map string_of_int (Arbitrary.Generalized.read_thresholds g)))
    (String.concat "," (List.map string_of_int (Arbitrary.Generalized.write_thresholds g)))

(* --- instrumented baseline (gate) --------------------------------------- *)

let baseline_path = "BENCH_baseline.json"

(* Cheap structural check of the payload we just wrote: schema marker,
   every configuration present, object closed.  Catches truncated or
   garbled writes without a JSON parser. *)
let baseline_json_valid json =
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec at i = i + nl <= jl && (String.sub json i nl = needle || at (i + 1)) in
    at 0
  in
  String.length json > 2
  && String.sub json 0 1 = "{"
  && json.[String.length json - 1] = '}'
  && contains "\"schema\":\"bench-baseline/1\""
  && contains "\"max_load_error\""
  && contains "\"spans\""
  && List.for_all
       (fun (name, _, _) ->
         contains (Printf.sprintf "\"config\":\"%s\"" (Arbitrary.Config.name_to_string name)))
       Eval.Baseline.default_cases

let baseline_section () =
  hr "B0 | Baseline: instrumented workloads vs Equation 3.2";
  let seed = Eval.Baseline.default_seed and n = Eval.Baseline.default_n in
  let rows = Eval.Baseline.measure_all ~seed ~n () in
  print_string (Eval.Baseline.table rows);
  let err = Eval.Baseline.max_load_error rows in
  let leaks = Eval.Baseline.span_leaks rows in
  Printf.printf "\nmax per-site load deviation vs closed form: %.1f%% (gate: 10%%)\n"
    (100.0 *. err);
  Printf.printf "span accounting: %d leaked (gate: 0)\n" leaks;
  let json = Eval.Baseline.to_json ~seed ~n rows in
  let oc = open_out baseline_path in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  let valid = baseline_json_valid json in
  Printf.printf "wrote %s (%d bytes, structural check %s)\n" baseline_path
    (String.length json + 1)
    (if valid then "OK" else "FAILED");
  let ok = err <= 0.10 && leaks = 0 && valid in
  if not ok then begin
    print_endline "BASELINE GATE FAILED";
    exit 1
  end

(* --- hot-path benchmark (BENCH_hotpath.json) ----------------------------- *)

let hotpath_path = "BENCH_hotpath.json"

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let ops_per_sec ~iters f =
  for _ = 1 to iters / 10 do
    ignore (f ())
  done;
  let (), dt = wall (fun () -> for _ = 1 to iters do ignore (f ()) done) in
  if dt <= 0.0 then 0.0 else float_of_int iters /. dt

let pair_json ~cached ~uncached =
  Printf.sprintf
    "{\"cached_ops_s\":%.1f,\"uncached_ops_s\":%.1f,\"speedup\":%.3f}" cached
    uncached
    (if uncached <= 0.0 then 0.0 else cached /. uncached)

(* Cached (Plan_cache) vs reference quorum assembly on the §4 ARBITRARY
   tree at n=65, on the failure-free fast path (alive = universe) and a
   degraded slow path (one replica of the deepest level down — both
   quorum kinds still exist, but every per-level scan must filter). *)
let quorum_hotpath () =
  let name k (cached, uncached) =
    Printf.printf "  %-28s cached %12.0f ops/s   uncached %12.0f ops/s   (%.1fx)\n"
      k cached uncached
      (if uncached <= 0.0 then 0.0 else cached /. uncached);
    (cached, uncached)
  in
  let tree = Arbitrary.Config.build Arbitrary.Config.Arbitrary ~n:65 in
  let n = Arbitrary.Tree.n tree in
  let plan = Arbitrary.Plan_cache.create tree in
  let full = Quorum.Protocol.all_alive (Arbitrary.Quorums.protocol tree) in
  let degraded = Dsutil.Bitset.copy full in
  let levels = Arbitrary.Tree.physical_levels tree in
  let deepest = List.nth levels (List.length levels - 1) in
  Dsutil.Bitset.remove degraded (Arbitrary.Tree.replicas_at tree deepest).(0);
  let rng = Dsutil.Rng.create 11 in
  let iters = 200_000 in
  let run cached reference =
    (ops_per_sec ~iters cached, ops_per_sec ~iters reference)
  in
  let rd =
    name "read (failure-free)"
      (run
         (fun () -> Arbitrary.Plan_cache.read_quorum plan ~alive:full ~rng)
         (fun () -> Arbitrary.Quorums.read_quorum tree ~alive:full ~rng))
  in
  let wr =
    name "write (failure-free)"
      (run
         (fun () -> Arbitrary.Plan_cache.write_quorum plan ~alive:full ~rng)
         (fun () -> Arbitrary.Quorums.write_quorum tree ~alive:full ~rng))
  in
  let rd_d =
    name "read (degraded)"
      (run
         (fun () -> Arbitrary.Plan_cache.read_quorum plan ~alive:degraded ~rng)
         (fun () -> Arbitrary.Quorums.read_quorum tree ~alive:degraded ~rng))
  in
  let wr_d =
    name "write (degraded)"
      (run
         (fun () -> Arbitrary.Plan_cache.write_quorum plan ~alive:degraded ~rng)
         (fun () -> Arbitrary.Quorums.write_quorum tree ~alive:degraded ~rng))
  in
  let json (c, u) = pair_json ~cached:c ~uncached:u in
  ( Printf.sprintf
      "{\"n\":%d,\"iters\":%d,\"read\":%s,\"write\":%s,\"read_degraded\":%s,\"write_degraded\":%s}"
      n iters (json rd) (json wr) (json rd_d) (json wr_d),
    fst rd >= snd rd && fst wr >= snd wr )

(* The §4 workload scenario every hot-path probe runs: single client,
   2000 ops, seed 42.  [read_fraction] picks the op mix. *)
let hotpath_scenario ~read_fraction name =
  let n = Eval.Config_metrics.feasible_n name 33 in
  let proto = Eval.Config_metrics.protocol_of name ~n in
  let s = Replication.Harness.default_scenario ~proto in
  ( {
      s with
      Replication.Harness.n_clients = 1;
      ops_per_client = 2000;
      read_fraction;
      think_time = 0.1;
      seed = 42;
    },
    n )

(* End-to-end simulated operations per wall-clock second for each §4
   workload configuration (mixed 50/50, single client).  The seed column
   was recorded by this same probe at the pre-flattening head (commit
   c0b3564); the flat-representation work claims >= 1.3x on at least one
   configuration. *)
let e2e_seed_ops_s =
  [
    (Arbitrary.Config.Unmodified, 95479.0);
    (Arbitrary.Config.Mostly_read, 26043.0);
    (Arbitrary.Config.Mostly_write, 60458.0);
    (Arbitrary.Config.Arbitrary, 87317.0);
  ]

let e2e_hotpath () =
  let cases =
    List.map
      (fun (name, seed_rate) ->
        let scenario, n = hotpath_scenario ~read_fraction:0.5 name in
        (* Steady state: one warm-up run (lazy plan/table initialization,
           allocator ramp-up), then best of three timed runs — wall clock
           on a shared box is noisy and a single cold shot under-reads by
           10-20%.  The seed column is a pre-warmed measurement too, so
           the comparison is like for like. *)
        ignore (Replication.Harness.run scenario);
        let rate = ref 0.0 in
        let ops = ref 0 in
        for _ = 1 to 3 do
          let r, dt = wall (fun () -> Replication.Harness.run scenario) in
          ops :=
            r.Replication.Harness.reads_ok + r.Replication.Harness.reads_failed
            + r.Replication.Harness.writes_ok
            + r.Replication.Harness.writes_failed;
          if dt > 0.0 then rate := Float.max !rate (float_of_int !ops /. dt)
        done;
        let rate = !rate and ops = !ops in
        let speedup = rate /. seed_rate in
        Printf.printf "  %-12s n=%-3d %10.0f simulated ops/s   (seed %.0f, %.2fx)\n"
          (Arbitrary.Config.name_to_string name)
          n rate seed_rate speedup;
        ( Printf.sprintf
            "{\"config\":\"%s\",\"n\":%d,\"ops\":%d,\"ops_s\":%.1f,\"seed_ops_s\":%.1f,\"speedup\":%.3f}"
            (Arbitrary.Config.name_to_string name)
            n ops rate seed_rate speedup,
          speedup ))
      e2e_seed_ops_s
  in
  let best = List.fold_left (fun acc (_, s) -> Float.max acc s) 0.0 cases in
  Printf.printf "  best speedup vs seed %.2fx (gate: >= 1.3x on some config)\n" best;
  (Printf.sprintf "[%s]" (String.concat "," (List.map fst cases)), best >= 1.3)

(* Minor-heap words allocated per completed operation on the failure-free
   read-only and write-only §4 workloads.  [Gc.minor_words] counts
   allocated words, not time, so unlike wall clock the number is
   deterministic for a given compiler — safe to gate against the recorded
   seed column (measured by this same probe at the pre-flattening head,
   commit c0b3564).  A warm-up run keeps lazy table/plan initialization
   out of the measured window. *)
let alloc_seed_w_op =
  [
    (* config, read-path words/op, write-path words/op *)
    (Arbitrary.Config.Unmodified, 895.4, 2850.2);
    (Arbitrary.Config.Mostly_read, 365.4, 12300.7);
    (Arbitrary.Config.Mostly_write, 2600.7, 3296.8);
    (Arbitrary.Config.Arbitrary, 1324.5, 2580.5);
  ]

let alloc_hotpath () =
  let words_per_op ~read_fraction name =
    let scenario, _ = hotpath_scenario ~read_fraction name in
    ignore (Replication.Harness.run scenario);
    let w0 = Gc.minor_words () in
    let r = Replication.Harness.run scenario in
    let dw = Gc.minor_words () -. w0 in
    let ops = Replication.Harness.completed r in
    if ops = 0 then infinity else dw /. float_of_int ops
  in
  let cases =
    List.map
      (fun (name, seed_rd, seed_wr) ->
        let rd = words_per_op ~read_fraction:1.0 name in
        let wr = words_per_op ~read_fraction:0.0 name in
        let red x seed = 100.0 *. (1.0 -. (x /. seed)) in
        Printf.printf
          "  %-12s read %8.1f w/op (seed %8.1f, -%2.0f%%)   write %8.1f w/op (seed %8.1f, -%2.0f%%)\n"
          (Arbitrary.Config.name_to_string name)
          rd seed_rd (red rd seed_rd) wr seed_wr (red wr seed_wr);
        ( Printf.sprintf
            "{\"config\":\"%s\",\"read_w_op\":%.1f,\"seed_read_w_op\":%.1f,\"write_w_op\":%.1f,\"seed_write_w_op\":%.1f}"
            (Arbitrary.Config.name_to_string name)
            rd seed_rd wr seed_wr,
          rd <= 0.5 *. seed_rd && wr <= 0.5 *. seed_wr ))
      alloc_seed_w_op
  in
  let ok = List.for_all snd cases in
  Printf.printf
    "  alloc gate (>= 50%% fewer minor words/op, both paths, every config): %s\n"
    (if ok then "OK" else "FAILED");
  (Printf.sprintf "[%s]" (String.concat "," (List.map fst cases)), ok)

(* Batched vs unbatched end-to-end throughput on the same §4 workloads:
   batching collapses per-op quorum rounds, 2PC exchanges and think
   events into per-window ones, so the simulator retires far fewer
   events per client op.  Gated claims: at least one configuration
   speeds up >= 5x, no run ever reports a safety violation, and the
   batch-size-1 control reproduces the unbatched run byte-for-byte. *)
let batch_hotpath () =
  let knobs = Eval.Batching.default_knobs in
  let ops = 2000 in
  let results =
    List.map
      (fun name ->
        let n = Eval.Config_metrics.feasible_n name 33 in
        let plain, batched =
          Eval.Batching.pair ~knobs ~name ~n:33 ~ops ~seed:42 ()
        in
        let r_u, dt_u = wall (fun () -> Replication.Harness.run plain) in
        let r_b, dt_b = wall (fun () -> Replication.Harness.run batched) in
        let count r =
          r.Replication.Harness.reads_ok + r.Replication.Harness.reads_failed
          + r.Replication.Harness.writes_ok
          + r.Replication.Harness.writes_failed
        in
        let rate r dt = if dt <= 0.0 then 0.0 else float_of_int (count r) /. dt in
        let ru = rate r_u dt_u and rb = rate r_b dt_b in
        let speedup = if ru <= 0.0 then 0.0 else rb /. ru in
        let violations =
          r_u.Replication.Harness.safety_violations
          + r_b.Replication.Harness.safety_violations
        in
        Printf.printf
          "  %-12s n=%-3d %10.0f ops/s unbatched  %10.0f ops/s batched  (%.1fx)  batches=%d coalesced=%d\n"
          (Arbitrary.Config.name_to_string name)
          n ru rb speedup r_b.Replication.Harness.batches
          r_b.Replication.Harness.coalesced_ops;
        ( Printf.sprintf
            "{\"config\":\"%s\",\"n\":%d,\"ops\":%d,\"unbatched_ops_s\":%.1f,\"batched_ops_s\":%.1f,\"speedup\":%.3f,\"batches\":%d,\"coalesced\":%d,\"safety_violations\":%d}"
            (Arbitrary.Config.name_to_string name)
            n ops ru rb speedup r_b.Replication.Harness.batches
            r_b.Replication.Harness.coalesced_ops violations,
          (speedup, violations) ))
      [
        Arbitrary.Config.Unmodified; Arbitrary.Config.Mostly_read;
        Arbitrary.Config.Mostly_write; Arbitrary.Config.Arbitrary;
      ]
  in
  (* Determinism control on one configuration: a batch-1/pipeline-1 run
     must fingerprint identically to the unbatched run. *)
  let plain, batch1 =
    Eval.Batching.pair ~knobs:Eval.Batching.identity_knobs
      ~name:Arbitrary.Config.Arbitrary ~n:33 ~ops:200 ~seed:7 ()
  in
  let identical =
    Eval.Batching.fingerprint (Replication.Harness.run plain)
    = Eval.Batching.fingerprint (Replication.Harness.run batch1)
  in
  let best =
    List.fold_left (fun acc (_, (s, _)) -> Float.max acc s) 0.0 results
  in
  let violations = List.fold_left (fun acc (_, (_, v)) -> acc + v) 0 results in
  Printf.printf
    "  best speedup %.1fx (gate: >= 5x)   safety violations %d (gate: 0)   batch-1 control %s\n"
    best violations
    (if identical then "byte-identical" else "DIVERGED");
  ( Printf.sprintf
      "{\"batch_size\":%d,\"pipeline\":%d,\"group_commit\":%b,\"cases\":[%s],\"best_speedup\":%.3f,\"batch1_identical\":%b}"
      knobs.Eval.Batching.batch_size knobs.Eval.Batching.pipeline
      knobs.Eval.Batching.group_commit
      (String.concat "," (List.map fst results))
      best identical,
    best >= 5.0 && violations = 0 && identical )

(* Chaos campaign wall-clock at 1 vs N domains, plus the determinism
   claim the driver makes: rendered output must be byte-identical. *)
let campaign_hotpath () =
  let campaign domains =
    wall (fun () ->
        Eval.Chaos.run ~n:15 ~clients:2 ~ops:8 ~horizon:800.0
          ~schedules:[ Eval.Chaos.crashes_schedule; Eval.Chaos.loss_schedule ]
          ~domains ())
  in
  let c1, w1 = campaign 1 in
  let nd = max 2 (Eval.Parallel.default_domains ()) in
  let cn, wn = campaign nd in
  let identical =
    Eval.Chaos.table c1 = Eval.Chaos.table cn
    && Eval.Chaos.parity_table c1 = Eval.Chaos.parity_table cn
  in
  let cells = List.length c1.Eval.Chaos.cells in
  Printf.printf
    "  campaign (%d cells): %.2fs at 1 domain, %.2fs at %d domains (%.2fx), output %s\n"
    cells w1 wn nd
    (if wn <= 0.0 then 0.0 else w1 /. wn)
    (if identical then "byte-identical" else "DIVERGED");
  ( Printf.sprintf
      "{\"cells\":%d,\"wall_s_1_domain\":%.4f,\"domains\":%d,\"wall_s_n_domains\":%.4f,\"speedup\":%.3f,\"identical\":%b}"
      cells w1 nd wn
      (if wn <= 0.0 then 0.0 else w1 /. wn)
      identical,
    identical )

(* Zipfian shard-imbalance probe: one S=16 cell at θ=0.99, the compact
   form of the skew report the shard campaign (--shard) expands on. *)
let shard_hotpath () =
  let name = Arbitrary.Config.Arbitrary in
  let n = Eval.Config_metrics.feasible_n name 9 in
  let proto = Eval.Config_metrics.protocol_of name ~n in
  let s = Replication.Harness.default_scenario ~proto in
  let base =
    {
      s with
      Replication.Harness.n_clients = 32;
      ops_per_client = 16;
      read_fraction = 0.5;
      key_space = 1024;
      zipf_theta = 0.99;
      think_time = 0.1;
      seed = 11;
    }
  in
  let sc =
    {
      Replication.Shard_harness.base;
      shards = 16;
      strategy = Arbitrary.Shard_map.Hash;
      service_time = 0.0;
      shard_failures = [];
      reconfig = [];
    }
  in
  let r, w = wall (fun () -> Replication.Shard_harness.run sc) in
  let imb_max, imb_mean = Replication.Shard_harness.imbalance r in
  let ratio = Replication.Shard_harness.imbalance_ratio r in
  let violations =
    r.Replication.Shard_harness.agg.Replication.Harness.safety_violations
  in
  Printf.printf
    "  shard skew (S=16, zipf 0.99): per-shard ops max %.0f mean %.1f \
     imbalance %.2fx, %d violations (%.2fs)\n"
    imb_max imb_mean ratio violations w;
  ( Printf.sprintf
      "{\"shards\":16,\"zipf_theta\":0.99,\"ops_max\":%.0f,\"ops_mean\":%.2f,\"imbalance_ratio\":%.3f,\"violations\":%d}"
      imb_max imb_mean ratio violations,
    violations = 0 )

let hotpath_json_valid json =
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec at i = i + nl <= jl && (String.sub json i nl = needle || at (i + 1)) in
    at 0
  in
  String.length json > 2
  && String.sub json 0 1 = "{"
  && json.[String.length json - 1] = '}'
  && contains "\"schema\":\"bench-hotpath/3\""
  && contains "\"quorum\""
  && contains "\"e2e\""
  && contains "\"alloc\""
  && contains "\"batch\""
  && contains "\"campaign\""
  && contains "\"shard\""

let hotpath_section () =
  hr "B1 | Hot paths: plan cache, simulator throughput, multicore campaign";
  let quorum_json, cache_floor_ok = quorum_hotpath () in
  let e2e_json, e2e_ok = e2e_hotpath () in
  let alloc_json, alloc_ok = alloc_hotpath () in
  let batch_json, batch_ok = batch_hotpath () in
  let campaign_json, identical = campaign_hotpath () in
  let shard_json, shard_ok = shard_hotpath () in
  let json =
    Printf.sprintf
      "{\"schema\":\"bench-hotpath/3\",\"cores\":%d,\"quorum\":%s,\"e2e\":%s,\"alloc\":%s,\"batch\":%s,\"campaign\":%s,\"shard\":%s}"
      (Domain.recommended_domain_count ())
      quorum_json e2e_json alloc_json batch_json campaign_json shard_json
  in
  let oc = open_out hotpath_path in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  let valid = hotpath_json_valid json in
  Printf.printf "wrote %s (%d bytes, structural check %s)\n" hotpath_path
    (String.length json + 1)
    (if valid then "OK" else "FAILED");
  (* Gated claims: the cached path must not be slower than the reference
     it replaced; minor-heap words/op must be at least halved vs the
     recorded seed numbers ([Gc.minor_words] is deterministic, so this
     holds on any machine); e2e throughput must beat the recorded seed rate
     >= 1.3x on some config (the one same-box wall-clock gate — the seed
     column was measured by this probe on the reference box); batching
     must deliver its relative speedup without safety violations;
     parallel output must match sequential output; the skew probe must
     stay violation-free; and the payload must be well-formed. *)
  if
    not
      (valid && cache_floor_ok && e2e_ok && alloc_ok && batch_ok && identical
     && shard_ok)
  then begin
    print_endline "HOTPATH GATE FAILED";
    exit 1
  end

(* --- shard-scaling benchmark (BENCH_shard.json) -------------------------- *)

let shard_path = "BENCH_shard.json"

let shard_json_valid json =
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec at i = i + nl <= jl && (String.sub json i nl = needle || at (i + 1)) in
    at 0
  in
  String.length json > 2
  && String.sub json 0 1 = "{"
  && json.[String.length json - 1] = '}'
  && contains "\"schema\":\"bench-shard/1\""
  && contains "\"scaling\""
  && contains "\"speedup_s16\""
  && contains "\"skew\""
  && contains "\"identity\""
  && contains "\"atomicity\""
  && contains "\"reconfig\""
  && contains "\"pass\""

let shard_section () =
  hr "S1 | Shard scaling: multi-tree control plane over one engine";
  let campaign, w = wall (fun () -> Eval.Sharding.run ()) in
  print_string (Eval.Sharding.table campaign);
  Printf.printf "\ncampaign wall-clock %.2fs\n" w;
  let json = Eval.Sharding.json campaign in
  let oc = open_out shard_path in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  let valid = shard_json_valid json in
  Printf.printf "wrote %s (%d bytes, structural check %s)\n" shard_path
    (String.length json + 1)
    (if valid then "OK" else "FAILED");
  let v = Eval.Sharding.gate campaign in
  List.iter (Printf.printf "  GATE: %s\n") v.Eval.Sharding.failures;
  if not (valid && v.Eval.Sharding.pass) then begin
    print_endline "SHARD GATE FAILED";
    exit 1
  end

(* --- bechamel micro-benchmarks ------------------------------------------ *)

let bench_tests () =
  let rng = Dsutil.Rng.create 7 in
  let tree = Arbitrary.Config.algorithm1 ~n:100 in
  let proto = Arbitrary.Quorums.protocol tree in
  let alive = Quorum.Protocol.all_alive proto in
  let tq = Quorum.Tree_quorum.create ~height:6 in
  let tq_alive = Quorum.Protocol.all_alive (Quorum.Tree_quorum.protocol tq) in
  let hqc = Quorum.Hqc.create ~depth:4 in
  let hqc_alive = Quorum.Protocol.all_alive (Quorum.Hqc.protocol hqc) in
  let fig1 = Arbitrary.Tree.figure1 () in
  let fig1_reads =
    Quorum.Quorum_set.create ~universe:8
      (List.of_seq (Arbitrary.Quorums.enumerate_read_quorums fig1))
  in
  [
    Test.make ~name:"T1: figure-1 analytic summary"
      (Staged.stage (fun () -> Arbitrary.Analysis.summarize fig1 ~p:0.7));
    Test.make ~name:"F2: config metrics at n=513"
      (Staged.stage (fun () ->
           List.map
             (fun c -> Eval.Config_metrics.compute c ~n:513 ~p:0.7)
             Arbitrary.Config.all_names));
    Test.make ~name:"F3/F4: algorithm-1 tree build (n=10000)"
      (Staged.stage (fun () -> Arbitrary.Config.algorithm1 ~n:10000));
    Test.make ~name:"arbitrary read-quorum assembly (n=100)"
      (Staged.stage (fun () -> Arbitrary.Quorums.read_quorum tree ~alive ~rng));
    Test.make ~name:"arbitrary write-quorum assembly (n=100)"
      (Staged.stage (fun () -> Arbitrary.Quorums.write_quorum tree ~alive ~rng));
    Test.make ~name:"tree-quorum assembly (n=127)"
      (Staged.stage (fun () ->
           Quorum.Tree_quorum.read_quorum tq ~alive:tq_alive ~rng));
    Test.make ~name:"HQC assembly (n=81)"
      (Staged.stage (fun () -> Quorum.Hqc.read_quorum hqc ~alive:hqc_alive ~rng));
    Test.make ~name:"P3: LP optimal load (figure-1 reads)"
      (Staged.stage (fun () -> Analysis.Load_lp.optimal_load fig1_reads));
    Test.make ~name:"A1: end-to-end simulation (1 client, 20 ops)"
      (Staged.stage (fun () ->
           let s = Replication.Harness.default_scenario ~proto in
           Replication.Harness.run
             { s with Replication.Harness.n_clients = 1; ops_per_client = 20 }));
    Test.make ~name:"txn harness (1 client, 10 increment txns)"
      (Staged.stage (fun () ->
           let s = Replication.Txn_harness.default_scenario ~proto in
           Replication.Txn_harness.run
             { s with Replication.Txn_harness.n_clients = 1; txns_per_client = 10 }));
  ]

let run_benchmarks () =
  hr "Micro-benchmarks (bechamel, monotonic clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw =
    Benchmark.all cfg [ instance ]
      (Test.make_grouped ~name:"repro" ~fmt:"%s %s" (bench_tests ()))
  in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) ->
      if ns < 1_000.0 then Printf.printf "%-55s %10.1f ns/run\n" name ns
      else if ns < 1_000_000.0 then
        Printf.printf "%-55s %10.2f us/run\n" name (ns /. 1_000.0)
      else Printf.printf "%-55s %10.2f ms/run\n" name (ns /. 1_000_000.0))
    (List.sort compare !rows)

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let hotpath_only = Array.exists (( = ) "--hotpath") Sys.argv in
  let shard_only = Array.exists (( = ) "--shard") Sys.argv in
  if smoke then baseline_section ()
  else if hotpath_only then hotpath_section ()
  else if shard_only then shard_section ()
  else begin
    analytic_sections ();
    planner_section ();
    simulation_sections ();
    txn_section ();
    placement_section ();
    generalized_section ();
    baseline_section ();
    hotpath_section ();
    shard_section ();
    run_benchmarks ();
    print_newline ()
  end
