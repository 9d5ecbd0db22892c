(* The seeded benchmark: end-to-end metrics of one workload from untraced
   runs, per-layer metrics from traced runs plus layer replays, and the
   correctness checks every run must pass.

     perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     perf.exe [--seed N] [--seconds S]   every workload, one child each
     perf.exe --smoke                    every workload at a tiny size

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics: --trace 0 reports the end-to-end
   metrics, --trace 1 the per-layer ones.  A failed check prints
   correct:false and exits 1.  README.md defines every metric. *)

module H = Replication.Harness
module Stats = Dsutil.Stats
module W = Workloads
module L = Layers

let cpu = L.cpu
let median = L.median

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let k = Array.length a in
  let at q = a.(min (k - 1) (int_of_float ((q *. float_of_int (k - 1)) +. 0.5))) in
  (at 0.25, at 0.75)

let failures = ref []

let check ok fmt =
  Printf.ksprintf (fun msg -> if not ok then failures := msg :: !failures) fmt

(* --- one run ------------------------------------------------------------- *)

(* The deterministic face of a run: what the paper reasons about, in
   virtual time.  Equal seeds must give equal values, traced or not. *)
type vt = {
  completed : int;
  failed : int;
  violations : int;
  sent : int;
  delivered : int;
  throughput : float;
      (** steady-state rate: the middle 80% of completions over the virtual
          time they span, so neither the ramp-up nor the drain of the last
          clients counts *)
  read_p50 : float;
  read_p99 : float;
  write_p50 : float;
  write_p99 : float;
  max_stall : float;  (** longest gap between consecutive completions *)
  last : float;  (** virtual time of the last completion *)
}

let pct st q = if Stats.count st = 0 then 0.0 else Stats.percentile st q

let vt_of (r : H.report) =
  let c = r.H.completions in
  let k = Array.length c in
  let stall = ref 0.0 in
  for i = 1 to k - 1 do
    stall := Float.max !stall (c.(i) -. c.(i - 1))
  done;
  {
    completed = H.completed r;
    failed = r.H.reads_failed + r.H.writes_failed;
    violations = r.H.safety_violations;
    sent = r.H.messages_sent;
    delivered = r.H.messages_delivered;
    throughput =
      (let lo = k / 10 and hi = k - 1 - (k / 10) in
       if hi <= lo then 0.0 else float_of_int (hi - lo) /. (c.(hi) -. c.(lo)));
    read_p50 = pct r.H.read_latency 0.5;
    read_p99 = pct r.H.read_latency 0.99;
    write_p50 = pct r.H.write_latency 0.5;
    write_p99 = pct r.H.write_latency 0.99;
    max_stall = !stall;
    last = (if k = 0 then 0.0 else c.(k - 1));
  }

type run = {
  vt : vt;
  imbalance : float;
  cpu_s : float;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let run_once ?obs s =
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let t0 = cpu () in
  let report, imbalance = W.run ?obs s in
  let cpu_s = cpu () -. t0 in
  let g1 = Gc.quick_stat () in
  ( {
      vt = vt_of report;
      imbalance;
      cpu_s;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    },
    report )

(* CPU seconds of the fastest quarter of runs.  Other tenants of a shared
   host only ever slow a run down, in bursts that can cover half of a
   process's runs; the fastest quartile stays put where the median moves. *)
let fast_cpu runs = fst (quartiles (List.map (fun run -> run.cpu_s) runs))

(* Every run: no safety violation, every issued op accounted for, none
   failed (the workloads are chosen so that none does). *)
let check_run ~what ~issued run =
  let v = run.vt in
  check (v.violations = 0) "%s: %d safety violations" what v.violations;
  check (v.completed + v.failed = issued) "%s: completed %d + failed %d <> issued %d" what
    v.completed v.failed issued;
  check (v.failed = 0) "%s: %d ops failed" what v.failed

(* --- the traced run ------------------------------------------------------------ *)

type traced = {
  t_run : run;
  t_report : H.report;
  obs : Obs.t;
  spans : Obs.Span.t list;
  quorums : L.quorum_counts;
}

(* Obs attached with a memory sink, and quorum assemblies counted at the
   protocol boundary. *)
let traced_once w ~seed ~ops =
  let obs = Obs.create () in
  let mem = Obs.Sink.memory () in
  Obs.add_sink obs (Obs.Sink.memory_sink mem);
  let proto, quorums = L.counting (Arbitrary.Quorums.protocol (W.tree w)) in
  let t_run, t_report = run_once ~obs (w.W.scenario ~proto ~seed ~ops) in
  { t_run; t_report; obs; spans = Obs.Sink.memory_spans mem; quorums }

(* Batched clients leave a span open for every repeat of a key within one
   batch (the coordinator closes one span per distinct key; README.md has
   the reproducer), so there open spans are reported, not failed.  Returns
   the number of open spans. *)
let check_traced ~what ~issued ~batched ~untraced tr =
  check_run ~what ~issued tr.t_run;
  check (tr.t_run.vt = untraced.vt)
    "%s: virtual-time metrics or message counts differ from the untraced run" what;
  let open_ = Obs.spans_open tr.obs in
  check (batched || open_ = 0) "%s: %d spans left open" what open_;
  let c = Eval.Consistency.check tr.spans in
  check (Eval.Consistency.ok c) "%s: %d consistency violations" what
    (List.length c.Eval.Consistency.violations);
  open_

(* --- metrics ----------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let m ?(note = "") name unit_ value = { name; value; unit_; note }

let print_table title ms =
  Printf.printf "  %s\n" title;
  List.iter
    (fun x -> Printf.printf "    %-38s %16.6g %-6s %s\n" x.name x.value x.unit_ x.note)
    ms

let json_line ~correct ~attempted ~failed ms =
  let body =
    String.concat ","
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" x.name x.value x.unit_)
         ms)
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    attempted failed body

(* Replica loads per shard from the report's per-replica arrays (shard-major,
   n replicas each), weighted by each shard's accesses.  A read touches one
   replica of every physical level, so a level's total is the number of key
   reads; a write touches a whole level, so the level's busiest replica
   counts the writes that chose it. *)
let loads tree ~shards (r : H.report) =
  let levels =
    List.map (Arbitrary.Tree.replicas_at tree) (Arbitrary.Tree.physical_levels tree)
  in
  let n = Arbitrary.Tree.n tree in
  let busiest_r = ref 0.0 and reads = ref 0.0 and busiest_w = ref 0.0 and writes = ref 0.0 in
  for s = 0 to shards - 1 do
    let count a i = float_of_int a.((s * n) + i) in
    let sum a l = Array.fold_left (fun acc i -> acc +. count a i) 0.0 l in
    let top a l = Array.fold_left (fun acc i -> Float.max acc (count a i)) 0.0 l in
    let served = r.H.replica_reads_served and prepared = r.H.replica_prepares_seen in
    reads :=
      !reads
      +. List.fold_left (fun acc l -> acc +. sum served l) 0.0 levels
         /. float_of_int (List.length levels);
    busiest_r :=
      !busiest_r +. List.fold_left (fun acc l -> Float.max acc (top served l)) 0.0 levels;
    let per_level = List.map (top prepared) levels in
    writes := !writes +. List.fold_left ( +. ) 0.0 per_level;
    busiest_w := !busiest_w +. List.fold_left Float.max 0.0 per_level
  done;
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  (ratio !busiest_r !reads, ratio !busiest_w !writes)

let sum_array a = Array.fold_left ( + ) 0 a

(* Per-op counts at the boundary of each replayed layer. *)
type counts = {
  sent : float;
  read_quorums : float;
  write_quorums : float;
  lookups : float;
  installs : float;
  wal_records : float;
  locks : float;
  routes : float;
}

(* Metrics read from the traced run: its registry, spans and report. *)
let traced_layers w s tr =
  let r = tr.t_report and v = tr.t_run.vt in
  let ops = float_of_int v.completed in
  let per_op x = float_of_int x /. ops in
  let reg = Obs.metrics tr.obs in
  let counter = Obs.Metrics.counter_of reg in
  let counters pred =
    List.fold_left (fun a (k, x) -> if pred k then a + x else a) 0 (Obs.Metrics.counters reg)
  in
  let hist name q =
    match List.assoc_opt name (Obs.Metrics.histograms reg) with
    | Some h -> pct (Obs.Metrics.summary h) q
    | None -> 0.0
  in
  let op_spans =
    List.filter (fun sp -> sp.Obs.Span.op = "read" || sp.Obs.Span.op = "write") tr.spans
  in
  let spans_where f = List.length (List.filter f op_spans) in
  (* Batched ops' spans carry no phases; every single-key op's span does. *)
  let single = spans_where (fun sp -> sp.Obs.Span.rev_phases <> []) in
  let locked =
    spans_where (fun sp ->
        List.exists (fun p -> p.Obs.Span.kind = Obs.Span.Lock) sp.Obs.Span.rev_phases)
  in
  let consistency =
    let k = float_of_int (max 1 (List.length tr.spans)) in
    median
      (List.init 3 (fun _ ->
           let t0 = cpu () in
           ignore (Sys.opaque_identity (Eval.Consistency.check tr.spans));
           (cpu () -. t0) *. 1e9 /. k))
  in
  let shards = W.shards s and tree = W.tree w and base = W.base s in
  let installs = per_op (sum_array r.H.replica_writes_applied) in
  let counts =
    {
      sent = per_op (counter "net.sent");
      read_quorums = per_op tr.quorums.L.reads;
      write_quorums = per_op tr.quorums.L.writes;
      lookups = per_op (sum_array r.H.replica_reads_served);
      installs;
      (* A stage and a commit record per key, under amnesia only. *)
      wal_records =
        (if base.H.crash_mode = Dsim.Network.Amnesia then
           per_op (sum_array r.H.replica_prepares_seen) +. installs
         else 0.0);
      locks = per_op locked;
      routes = (if shards > 1 then 1.0 else 0.0);
    }
  in
  let max_read_load, max_write_load = loads tree ~shards r in
  (* Shard networks share counter names, so a site id's counter sums its
     shards: divide for the mean shard. *)
  let busiest =
    List.fold_left max 0
      (List.init (Arbitrary.Tree.n tree) (fun i ->
           counter (Printf.sprintf "net.site.%d.delivered" i)))
  in
  ( [
      m "network.msgs_sent_per_op" "msgs" counts.sent;
      m "network.drops_per_op" "msgs"
        (per_op (counters (String.starts_with ~prefix:"net.dropped.")));
      m "network.coalesced_per_op" "msgs" (per_op (counter "net.coalesced"));
      m "network.queue_depth_p99" "msgs" (hist "net.queue.depth" 0.99);
      m "plan_cache.quorums_per_op" "count" (counts.read_quorums +. counts.write_quorums);
      m "coordinator.lock_p99" "vt" (hist "phase.lock.latency" 0.99);
      m "coordinator.query_p50" "vt" (hist "phase.query.latency" 0.5);
      m "coordinator.query_p99" "vt" (hist "phase.query.latency" 0.99);
      m "coordinator.prepare_p99" "vt" (hist "phase.prepare.latency" 0.99);
      m "coordinator.commit_p99" "vt" (hist "phase.commit.latency" 0.99);
      m "coordinator.attempts_per_op" "count"
        (float_of_int (List.fold_left (fun a sp -> a + sp.Obs.Span.attempts) 0 op_spans)
        /. float_of_int (max 1 (List.length op_spans)));
      m "coordinator.timeouts_per_op" "count"
        (per_op (counters (fun k ->
             String.starts_with ~prefix:"phase." k && String.ends_with ~suffix:".timeout" k)));
      m "coordinator.backoff_per_op" "vt"
        (List.fold_left (fun a sp -> a +. sp.Obs.Span.backoff_total) 0.0 op_spans /. ops);
      m "coordinator.ops_per_batch" "ops"
        (ops /. float_of_int (max 1 (counter "coord.batches" + single)));
      m "replica.max_read_load" "ratio" max_read_load;
      m "replica.max_write_load" "ratio" max_write_load;
      m "replica.read_load_vs_eq32" "ratio"
        (max_read_load /. Arbitrary.Analysis.expected_read_load tree ~p:1.0);
      m "replica.max_utilisation" "ratio"
        (float_of_int busiest /. float_of_int shards *. W.service_time s *. v.throughput /. ops);
      m "store.accesses_per_op" "count" (counts.lookups +. installs);
      m "wal.syncs_per_op" "count" (per_op r.H.wal_syncs);
      m "shard_map.imbalance_ratio" "ratio" tr.t_run.imbalance;
      m "consistency.ns_per_span" "ns" consistency;
    ],
    counts )

(* Layer replays, and the share of the end-to-end CPU cost per op they
   account for at the traced per-op counts. *)
let replay_layers s ctx counts ~e2e_ns =
  let keys = L.keys ctx in
  let eng = L.engine ctx and net = L.network ctx in
  let plan_rd, plan_wr = L.plan_cache ctx in
  let lookup, install = L.store ctx keys in
  let wal_append, wal_batch, wal_replay = L.wal ctx keys in
  let lock = L.lock_manager ctx keys and route = L.shard_map ctx keys in
  let wal_ns =
    match (W.base s).H.batching with
    | Some { H.group_commit = true; _ } -> wal_batch.L.ns
    | _ -> wal_append.L.ns
  in
  let covered =
    (net.L.ns *. counts.sent)
    +. (plan_rd.L.ns *. counts.read_quorums)
    +. (plan_wr.L.ns *. counts.write_quorums)
    +. (lookup.L.ns *. counts.lookups)
    +. (install.L.ns *. counts.installs)
    +. (wal_ns *. counts.wal_records)
    +. (lock.L.ns *. counts.locks)
    +. (route.L.ns *. counts.routes)
  in
  [
    m "engine.ns_per_event" "ns" eng.L.ns;
    m "engine.words_per_event" "words" eng.L.words;
    m "network.ns_per_msg" "ns" net.L.ns;
    m "network.words_per_msg" "words" net.L.words;
    m "plan_cache.ns_per_read_quorum" "ns" plan_rd.L.ns;
    m "plan_cache.ns_per_write_quorum" "ns" plan_wr.L.ns;
    m "store.ns_per_lookup" "ns" lookup.L.ns;
    m "store.ns_per_install" "ns" install.L.ns;
    m "wal.ns_per_append" "ns" wal_append.L.ns;
    m "wal.ns_per_batch_record" "ns" wal_batch.L.ns;
    m "wal.ns_per_replay_record" "ns" wal_replay.L.ns;
    m "lock_manager.ns_per_acquire_release" "ns" lock.L.ns;
    m "shard_map.ns_per_route" "ns" route.L.ns;
    m "coordinator.residual_ns_per_op" "ns" (e2e_ns -. covered)
      ~note:(Printf.sprintf "of %.0f ns/op end to end" e2e_ns);
    m "replay.coverage" "ratio" (covered /. e2e_ns);
  ]

(* --- one workload ---------------------------------------------------------------- *)

let ctx_of w s ~seed ~smoke =
  let b = W.base s in
  {
    L.tree = W.tree w;
    clients = b.H.n_clients;
    key_space = b.H.key_space;
    zipf_theta = b.H.zipf_theta;
    read_fraction = b.H.read_fraction;
    latency = b.H.latency;
    loss_rate = b.H.loss_rate;
    service_time = W.service_time s;
    degraded = b.H.failures <> [];
    shards = W.shards s;
    batch = (match b.H.batching with Some bt -> bt.H.batch_size | None -> 1);
    seed;
    scale = (if smoke then 0.002 else 1.0);
  }

type mode = { trace : bool; smoke : bool; seconds : float }

(* Timed runs cycle through this many sub-seeds derived from --seed, and
   the virtual-time metrics pool them: one seed's hot keys, shard map and
   crash pattern move a latency percentile by up to ~10%. *)
let sub_seeds = 8

let run_workload w ~seed ~mode =
  let ops = if mode.smoke then max 10 (w.W.ops_per_client / 50) else w.W.ops_per_client in
  let k_seeds = if mode.smoke then 1 else sub_seeds in
  let sub i = (seed * 1009) + i in
  let scenarios = Array.init k_seeds (fun i -> W.build w ~seed:(sub i) ~ops) in
  let s = scenarios.(0) in
  let issued = W.issued s in
  let batched =
    match (W.base s).H.batching with Some b -> b.H.batch_size > 1 | None -> false
  in
  (* 1. Set-up: zero-op runs of the scenario, tree and plan cache included.
        One can take under 0.1 ms, so a sample averages enough of them to
        take 10 ms; setup_s is the median of up to 15 samples taken for
        about a second. *)
  let setup_batch k =
    let t0 = cpu () in
    for _ = 1 to k do
      let r, _ = W.run (W.build w ~seed ~ops:0) in
      check (r.H.safety_violations = 0) "%s set-up: safety violations" w.W.name
    done;
    (cpu () -. t0) /. float_of_int k
  in
  let setups =
    let per_sample =
      if mode.smoke then 1 else max 1 (int_of_float (0.01 /. Float.max 1e-6 (setup_batch 1)))
    in
    let t_end = Unix.gettimeofday () +. if mode.smoke then 0.0 else 1.0 in
    let rec go acc k =
      if k >= 3 && (k >= 15 || Unix.gettimeofday () > t_end) then acc
      else go (setup_batch per_sample :: acc) (k + 1)
    in
    go [] 0
  in
  (* 2. Warm-up at a tenth of the size. *)
  if not mode.smoke then begin
    let wu = W.build w ~seed ~ops:(max 1 (ops / 10)) in
    check_run ~what:(w.W.name ^ " warm-up") ~issued:(W.issued wu) (fst (run_once wu))
  end;
  (* 3. Timed runs, cycling through the sub-seeds, until every sub-seed ran
        and the time budget is spent; with --trace 1 each is followed by a
        traced run of the same sub-seed, for the tracing overhead. *)
  let t_end = Unix.gettimeofday () +. mode.seconds in
  let first = Array.make k_seeds None and latencies = Array.make k_seeds None in
  let open_spans = ref 0 in
  let traced_run ~what ~i ~untraced =
    let tr = traced_once w ~seed:(sub i) ~ops in
    let open_ = check_traced ~what:(what ^ " traced") ~issued ~batched ~untraced tr in
    open_spans := max !open_spans open_;
    tr
  in
  let rec timed untraced traced k =
    if k >= k_seeds && Unix.gettimeofday () >= t_end then (List.rev untraced, traced)
    else begin
      let i = k mod k_seeds in
      let run, report = run_once scenarios.(i) in
      let what = Printf.sprintf "%s seed %d run %d" w.W.name (sub i) (k + 1) in
      check_run ~what ~issued run;
      (match first.(i) with
      | Some f -> check (run.vt = f.vt) "%s: differs from the first run of this seed" what
      | None ->
        first.(i) <- Some run;
        latencies.(i) <- Some (report.H.read_latency, report.H.write_latency));
      let traced =
        if mode.trace then (traced_run ~what ~i ~untraced:run).t_run :: traced else traced
      in
      timed (run :: untraced) traced (k + 1)
    end
  in
  let untraced, traced = timed [] [] 0 in
  (* The heap stops growing after the first few runs, so the peak is read
     once they are all done. *)
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let firsts = List.filter_map Fun.id (Array.to_list first) in
  (* 4. A traced run of the first sub-seed after the timing, for its checks
        and, with --trace 1, the per-layer counts.  Its spans are dropped
        before the replays run. *)
  let traced_ms =
    let final = traced_run ~what:(w.W.name ^ " final") ~i:0 ~untraced:(List.hd firsts) in
    if mode.trace then Some (traced_layers w s final) else None
  in
  (* Virtual-time metrics pool the sub-seeds' first runs: totals, and
     percentiles over every sample, so a p99 has enough samples beyond it. *)
  let total f = List.fold_left (fun a run -> a +. f run.vt) 0.0 firsts in
  let pooled pick =
    Array.fold_left
      (fun acc l -> match l with Some l -> Stats.merge acc (pick l) | None -> acc)
      (Stats.create ()) latencies
  in
  let reads = pooled fst and writes = pooled snd in
  let samples st q =
    Printf.sprintf "%d samples, %d beyond" (Stats.count st)
      (Stats.count st - int_of_float (ceil (q *. float_of_int (Stats.count st))))
  in
  let per_op f =
    median (List.map (fun run -> f run /. float_of_int run.vt.completed) untraced)
  in
  let rates = List.map (fun run -> float_of_int run.vt.completed /. run.cpu_s) untraced in
  let ops_per_cpu_s = float_of_int issued /. fast_cpu untraced in
  let q1, q3 = quartiles rates in
  let e2e =
    [
      m "sim_ops_per_cpu_s" "ops/s" ops_per_cpu_s
        ~note:
          (Printf.sprintf "fastest quartile of %d runs; median %.0f, quartiles %.0f..%.0f"
             (List.length rates) (median rates) q1 q3);
      m "sim_minor_words_per_op" "words" (per_op (fun run -> run.minor_words));
      m "peak_heap_mb" "MiB" peak_heap_mb;
      m "setup_s" "s" (median setups) ~note:(Printf.sprintf "median of %d" (List.length setups));
      m "vt_throughput" "ops/vt" (median (List.map (fun run -> run.vt.throughput) firsts));
      m "vt_read_p50" "vt" (pct reads 0.5) ~note:(samples reads 0.5);
      m "vt_read_p99" "vt" (pct reads 0.99) ~note:(samples reads 0.99);
      m "vt_write_p50" "vt" (pct writes 0.5) ~note:(samples writes 0.5);
      m "vt_write_p99" "vt" (pct writes 0.99) ~note:(samples writes 0.99);
      m "msgs_per_op" "msgs"
        (total (fun v -> float_of_int v.delivered) /. total (fun v -> float_of_int v.completed));
    ]
  in
  Printf.printf
    "%s  seed %d (%d sub-seeds)  %d clients x %d ops per run, closed loop, %.0f vt per run\n"
    w.W.name seed k_seeds (W.base s).H.n_clients ops
    (median (List.map (fun run -> run.vt.last) firsts));
  Printf.printf "  failed_frac %g of %d issued; at most %d spans open after a traced run\n"
    (total (fun v -> float_of_int v.failed) /. float_of_int (issued * k_seeds))
    (issued * k_seeds) !open_spans;
  print_table "end to end" e2e;
  let layers =
    match traced_ms with
    | None -> []
    | Some (ms, counts) ->
      let ls =
        ms
        @ replay_layers s (ctx_of w s ~seed ~smoke:mode.smoke) counts
            ~e2e_ns:(1e9 /. ops_per_cpu_s)
        @ [
            m "obs.overhead_frac" "ratio" ((fast_cpu traced /. fast_cpu untraced) -. 1.0);
            m "gc.promoted_words_per_op" "words" (per_op (fun run -> run.promoted_words));
            m "gc.major_collections_per_kop" "count"
              (per_op (fun run -> 1000.0 *. float_of_int run.major_collections));
            m "harness.vt_max_stall" "vt"
              (median (List.map (fun run -> run.vt.max_stall) firsts));
          ]
      in
      print_table "per layer" ls;
      ls
  in
  let reported = if mode.smoke then e2e @ layers else if mode.trace then layers else e2e in
  List.iter
    (fun x -> check (Float.is_finite x.value) "%s: %s is not finite" w.W.name x.name)
    reported;
  ( reported,
    issued * List.length untraced,
    List.fold_left (fun a run -> a + run.vt.failed) 0 untraced )

(* --- command line ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]";
  prerr_endline ("workloads: " ^ String.concat ", " (List.map (fun w -> w.W.name) W.all));
  exit 2

let finish (reported, attempted, failed) =
  let correct = !failures = [] in
  List.iter (fun f -> Printf.eprintf "CHECK FAILED: %s\n" f) (List.rev !failures);
  print_endline (json_line ~correct ~attempted ~failed reported);
  if not correct then exit 1

(* Without --workload: one child process per workload, one at a time, so
   each reads its own peak heap. *)
let run_all ~seed ~seconds =
  let ok =
    List.for_all Fun.id
      (List.map
         (fun w ->
           let args =
             [| Sys.executable_name; "--workload"; w.W.name; "--seed"; string_of_int seed;
                "--seconds"; Printf.sprintf "%g" seconds; "--trace"; "1" |]
           in
           let pid =
             Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr
           in
           snd (Unix.waitpid [] pid) = Unix.WEXITED 0)
         W.all)
  in
  if not ok then exit 1

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 10.0 in
  let trace = ref false and smoke = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some (match W.find v with Some w -> w | None -> usage ());
      parse rest
    | "--seed" :: v :: rest ->
      seed := (match int_of_string_opt v with Some n -> n | None -> usage ());
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := (match float_of_string_opt v with Some x when x >= 0.0 -> x | _ -> usage ());
      parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> false | "1" -> true | _ -> usage ());
      parse rest
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !smoke then begin
    let mode = { trace = true; smoke = true; seconds = 0.0 } in
    let results = List.map (fun w -> (w, run_workload w ~seed:!seed ~mode)) W.all in
    let named (w, (r, _, _)) = List.map (fun x -> { x with name = w.W.name ^ "/" ^ x.name }) r in
    let sum f = List.fold_left (fun a (_, r) -> a + f r) 0 results in
    finish
      (List.concat_map named results, sum (fun (_, a, _) -> a), sum (fun (_, _, f) -> f))
  end
  else
    match !workload with
    | None -> run_all ~seed:!seed ~seconds:!seconds
    | Some w ->
      let mode = { trace = !trace; smoke = false; seconds = !seconds } in
      finish (run_workload w ~seed:!seed ~mode)
