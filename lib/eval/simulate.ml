module Config = Arbitrary.Config
module Harness = Replication.Harness
module Coordinator = Replication.Coordinator
module Availability = Quorum.Availability
module Protocol = Quorum.Protocol
module Rng = Dsutil.Rng

type row = {
  config : Config.name;
  n : int;
  analytic_rd_cost : float;
  measured_rd_cost : float;
  analytic_wr_cost : float;
  measured_wr_cost : float;
  analytic_rd_load : float;
  measured_rd_load : float;
  analytic_wr_load : float;
  measured_wr_load : float;
}

let sum = Array.fold_left ( + ) 0

let per_op counts ops =
  if ops = 0 then 0.0 else float_of_int (sum counts) /. float_of_int ops

let read_write_runs ~run name ~n ~reads ~writes ~seed =
  let n, s = Batching.scenario ~name ~n ~ops:reads ~seed in
  let r = run { s with Harness.read_fraction = 1.0 } in
  let w =
    run
      {
        s with
        Harness.read_fraction = 0.0;
        ops_per_client = writes;
        seed = seed + 1;
      }
  in
  (n, r, w)

let measure name ~n ~ops ~seed =
  (* Compare at the size the protocol instance actually has (HQC and BINARY
     snap to 3^L resp. 2^(h+1)−1 replicas). *)
  let n, reads, writes =
    read_write_runs ~run:Harness.run name ~n ~reads:ops ~writes:ops ~seed
  in
  let metrics = Config_metrics.compute name ~n ~p:Figures.default_p in
  {
    config = name;
    n;
    analytic_rd_cost = metrics.Config_metrics.rd_cost;
    measured_rd_cost = per_op reads.Harness.replica_reads_served reads.Harness.reads_ok;
    analytic_wr_cost = metrics.Config_metrics.wr_cost;
    measured_wr_cost =
      per_op writes.Harness.replica_prepares_seen writes.Harness.writes_ok;
    analytic_rd_load = metrics.Config_metrics.rd_load;
    measured_rd_load = Harness.measured_read_load reads;
    analytic_wr_load = metrics.Config_metrics.wr_load;
    measured_wr_load = Harness.measured_write_load writes;
  }

let cost_load_table ?(n = 65) ?(ops = 400) ?(seed = 42) () =
  let rows =
    List.map
      (fun name ->
        let r = measure name ~n ~ops ~seed in
        [
          Config.name_to_string name;
          string_of_int r.n;
          Tablefmt.f2 r.analytic_rd_cost;
          Tablefmt.f2 r.measured_rd_cost;
          Tablefmt.f2 r.analytic_wr_cost;
          Tablefmt.f2 r.measured_wr_cost;
          Tablefmt.f4 r.analytic_rd_load;
          Tablefmt.f4 r.measured_rd_load;
          Tablefmt.f4 r.analytic_wr_load;
          Tablefmt.f4 r.measured_wr_load;
        ])
      Config.all_names
  in
  Printf.sprintf
    "== Ablation: simulated vs analytic, n=%d (%d ops each way) ==\n%s\n" n ops
    (Tablefmt.render
       ~header:
         [
           "config"; "n"; "rdC ana"; "rdC sim"; "wrC ana"; "wrC sim";
           "rdL ana"; "rdL sim"; "wrL ana"; "wrL sim";
         ]
       ~rows)

let cost_sweep ?(sizes = [ 9; 17; 33; 65 ]) ?(ops = 200) ?(seed = 42) () =
  let header =
    "n" :: List.map Config.name_to_string Config.all_names
  in
  let table pick =
    List.map
      (fun n ->
        string_of_int n
        :: List.map
             (fun name ->
               let r = measure name ~n ~ops ~seed in
               Printf.sprintf "%s (n=%d)" (Tablefmt.f2 (pick r)) r.n)
             Config.all_names)
      sizes
  in
  Printf.sprintf
    "== Figure 2 (measured): replicas contacted per operation (%d ops) ==
%s
%s
"
    ops
    ("-- reads --
" ^ Tablefmt.render ~header ~rows:(table (fun r -> r.measured_rd_cost)))
    ("-- writes --
" ^ Tablefmt.render ~header ~rows:(table (fun r -> r.measured_wr_cost)))

let latency_table ?(n = 65) ?(ops = 300) ?(seed = 42) () =
  let rows =
    List.map
      (fun name ->
        let n, s = Batching.scenario ~name ~n ~ops ~seed in
        let r = Harness.run s in
        let cell stats =
          if Dsutil.Stats.count stats = 0 then "-"
          else
            Printf.sprintf "%.2f / %.2f" (Dsutil.Stats.mean stats)
              (Dsutil.Stats.percentile stats 0.99)
        in
        [
          Config.name_to_string name;
          string_of_int n;
          cell r.Harness.read_latency;
          cell r.Harness.write_latency;
          Tablefmt.f2 (Harness.messages_per_op r);
        ])
      Config.all_names
  in
  Printf.sprintf
    "== Measured latency, mixed 50/50 workload (n~%d, %d ops; mean / p99) ==
%s
"
    n ops
    (Tablefmt.render
       ~header:[ "config"; "n"; "read latency"; "write latency"; "msgs/op" ]
       ~rows)

let availability_table ?(n = 65) ?(p = Figures.default_p) ?(trials = 4000)
    ?(seed = 42) ?domains () =
  if trials <= 0 then invalid_arg "Simulate.availability_table: trials";
  (* Trials split into a fixed number of independently seeded chunks —
     one task per (config, direction, chunk) — so the estimate is the
     same for any domain count; hit counts (integers) sum exactly. *)
  let chunks = min 16 trials in
  let chunk_trials c =
    (trials / chunks) + if c < trials mod chunks then 1 else 0
  in
  let configs = List.mapi (fun ki name -> (ki, name)) Config.all_names in
  let tasks =
    List.concat_map
      (fun (ki, name) ->
        List.concat_map
          (fun dir -> List.init chunks (fun c -> (ki, name, dir, c)))
          [ `Read; `Write ])
      configs
  in
  let run_chunk (ki, name, dir, c) =
    (* Per-task protocol instance: tasks share nothing. *)
    let proto = Config_metrics.protocol_of name ~n in
    let dir_tag = match dir with `Read -> 0 | `Write -> 1 in
    let rng = Rng.create (seed + (10_000 * ki) + (1_000 * dir_tag) + c) in
    let trials = chunk_trials c in
    let hits =
      match dir with
      | `Read -> Availability.read_availability_hits ~trials ~rng ~p proto
      | `Write -> Availability.write_availability_hits ~trials ~rng ~p proto
    in
    (ki, dir_tag, hits)
  in
  let totals = Array.make_matrix (List.length configs) 2 0 in
  List.iter
    (fun (ki, d, h) -> totals.(ki).(d) <- totals.(ki).(d) + h)
    (Parallel.map ?domains run_chunk tasks);
  let mc ki d = float_of_int totals.(ki).(d) /. float_of_int trials in
  let rows =
    List.map
      (fun (ki, name) ->
        let metrics = Config_metrics.compute name ~n ~p in
        let proto = Config_metrics.protocol_of name ~n in
        [
          Config.name_to_string name;
          string_of_int (Protocol.universe_size proto);
          Tablefmt.f4 metrics.Config_metrics.rd_avail;
          Tablefmt.f4 (mc ki 0);
          Tablefmt.f4 metrics.Config_metrics.wr_avail;
          Tablefmt.f4 (mc ki 1);
        ])
      configs
  in
  Printf.sprintf
    "== Availability: closed form vs Monte-Carlo quorum assembly (n=%d, p=%.2f, %d trials) ==\n%s\n"
    n p trials
    (Tablefmt.render
       ~header:[ "config"; "n"; "rdA ana"; "rdA mc"; "wrA ana"; "wrA mc" ]
       ~rows)

let failure_injection_run name ~n ~p ~ops ~seed =
  let n_replicas, s = Config_metrics.scenario name ~n in
  let rng = Rng.create seed in
  let failures =
    List.filter_map
      (fun site ->
        if Rng.bernoulli rng p then None
        else Some { Dsim.Failure.time = 0.0; event = Dsim.Failure.Crash site })
      (List.init n_replicas Fun.id)
  in
  Harness.run
    {
      s with
      Harness.n_clients = 1;
      ops_per_client = ops;
      read_fraction = 0.5;
      failures;
      seed;
      warmup = 1.0;
      coordinator = { Coordinator.default_config with max_retries = 0 };
    }

let failure_availability_table ?(n = 33) ?(p = Figures.default_p)
    ?(patterns = 60) ?(seed = 42) ?domains () =
  (* Every crash pattern is a self-contained seeded simulation; fan them
     all out at once and fold counters back per configuration in task
     order, so the table is identical for any domain count. *)
  let tasks =
    List.concat_map
      (fun name -> List.init patterns (fun i -> (name, i)))
      Config.all_names
  in
  let results =
    Parallel.map ?domains
      (fun (name, i) ->
        (name, failure_injection_run name ~n ~p ~ops:10 ~seed:(seed + i)))
      tasks
  in
  let rows =
    List.map
      (fun name ->
        let metrics = Config_metrics.compute name ~n:(Config_metrics.feasible_n name n) ~p in
        (* A full write operation also needs the version-phase read quorum;
           for the arbitrary-tree configurations use the combined closed
           form, for BINARY/HQC read and write quorums coincide. *)
        let wr_op_avail =
          match name with
          | Config.Binary | Config.Hqc -> metrics.Config_metrics.wr_avail
          | Config.Unmodified | Config.Arbitrary | Config.Mostly_read
          | Config.Mostly_write ->
            let tree =
              Config.build name ~n:(Config_metrics.feasible_n name n)
            in
            Arbitrary.Analysis.write_operation_availability tree ~p
        in
        let total f =
          List.fold_left
            (fun acc (name', r) -> if name' = name then acc + f r else acc)
            0 results
        in
        let rate ok failed =
          let ok = total ok and all = total ok + total failed in
          if all = 0 then 0.0 else float_of_int ok /. float_of_int all
        in
        [
          Config.name_to_string name;
          Tablefmt.f4 metrics.Config_metrics.rd_avail;
          Tablefmt.f4
            (rate (fun r -> r.Harness.reads_ok) (fun r -> r.Harness.reads_failed));
          Tablefmt.f4 wr_op_avail;
          Tablefmt.f4
            (rate (fun r -> r.Harness.writes_ok) (fun r -> r.Harness.writes_failed));
        ])
      Config.all_names
  in
  Printf.sprintf
    "== End-to-end availability under crash injection (n=%d, p=%.2f, %d patterns) ==\n\
     (write analytic = combined read+write quorum availability: a full\n\
     write also runs a version-phase read, see Analysis.write_operation_availability)\n%s\n"
    n p patterns
    (Tablefmt.render
       ~header:[ "config"; "rdA ana"; "rdA e2e"; "wrOpA ana"; "wrA e2e" ]
       ~rows)
