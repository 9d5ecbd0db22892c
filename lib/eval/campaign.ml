module Harness = Replication.Harness

type cell = {
  label : string;
  line : Scenario_line.t;
  report : Harness.sharded_report;
  consistency : Consistency.report;
}

let run ?domains lines =
  Parallel.map ?domains
    (fun (label, (line : Scenario_line.t)) ->
      let report = Harness.run_core line.sharded in
      { label; line; report; consistency = Consistency.check report.agg.spans })
    lines

let violations cells =
  List.fold_left
    (fun acc c ->
      acc + c.report.agg.safety_violations + List.length c.consistency.violations)
    0 cells

let rate ok failed =
  let total = ok + failed in
  if total = 0 then 1.0 else float_of_int ok /. float_of_int total

let table columns cells =
  Tablefmt.render ~header:(List.map fst columns)
    ~rows:(List.map (fun c -> List.map (fun (_, f) -> f c) columns) cells)

let replay c = Printf.sprintf "replica-ctl run '%s'" (Scenario_line.to_string c.line)

let blame cells =
  match List.find_opt (fun c -> violations [ c ] > 0) cells with
  | None -> ""
  | Some c -> Printf.sprintf " (replay: %s)" (replay c)
