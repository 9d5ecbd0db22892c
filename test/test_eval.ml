module Config = Arbitrary.Config
module Config_metrics = Eval.Config_metrics
module Figures = Eval.Figures
module Tablefmt = Eval.Tablefmt

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_feasible_n () =
  Alcotest.(check int) "binary snaps" 63 (Config_metrics.feasible_n Config.Binary 100);
  Alcotest.(check int) "hqc snaps" 81 (Config_metrics.feasible_n Config.Hqc 100);
  Alcotest.(check int) "mostly-write odd" 99
    (Config_metrics.feasible_n Config.Mostly_write 100);
  Alcotest.(check int) "arbitrary exact" 100
    (Config_metrics.feasible_n Config.Arbitrary 100)

let test_compute_consistency () =
  (* Config_metrics must agree with the underlying analytic modules. *)
  let m = Config_metrics.compute Config.Arbitrary ~n:100 ~p:0.7 in
  let tree = Config.build Config.Arbitrary ~n:100 in
  Alcotest.(check (float 1e-9)) "read load" (Arbitrary.Analysis.read_load tree)
    m.Config_metrics.rd_load;
  Alcotest.(check (float 1e-9)) "write availability"
    (Arbitrary.Analysis.write_availability tree ~p:0.7)
    m.Config_metrics.wr_avail

let test_binary_formula_at_feasible_points () =
  (* At n = 2^(h+1)-1 the continuous curve equals the paper formula. *)
  List.iter
    (fun h ->
      let n = (1 lsl (h + 1)) - 1 in
      let m = Config_metrics.compute Config.Binary ~n ~p:0.7 in
      let tq = Quorum.Tree_quorum.create ~height:h in
      Alcotest.(check (float 1e-6)) "cost matches"
        (Quorum.Tree_quorum.paper_cost tq)
        m.Config_metrics.rd_cost;
      Alcotest.(check (float 1e-9)) "load matches"
        (Quorum.Tree_quorum.optimal_load tq)
        m.Config_metrics.wr_load)
    [ 2; 3; 4; 5 ]

let test_protocols_executable () =
  List.iter
    (fun name ->
      let proto = Config_metrics.protocol_of name ~n:33 in
      let rng = Dsutil.Rng.create 3 in
      let alive = Quorum.Protocol.all_alive proto in
      Alcotest.(check bool)
        (Config.name_to_string name ^ " assembles read quorum")
        true
        (Quorum.Protocol.read_quorum proto ~alive ~rng <> None);
      Alcotest.(check bool)
        (Config.name_to_string name ^ " assembles write quorum")
        true
        (Quorum.Protocol.write_quorum proto ~alive ~rng <> None))
    Config.all_names

let test_figures_render () =
  let sizes = [ 9; 17 ] in
  List.iter
    (fun (tag, s) ->
      Alcotest.(check bool) (tag ^ " non-empty") true (String.length s > 100);
      Alcotest.(check bool) (tag ^ " mentions ARBITRARY") true
        (contains ~needle:"ARBITRARY" s))
    [
      ("fig2", Figures.fig2 ~sizes ());
      ("fig3", Figures.fig3 ~sizes ());
      ("fig4", Figures.fig4 ~sizes ());
    ]

let test_table1_has_paper_numbers () =
  let s = Figures.table1 () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("table1 has " ^ needle) true (contains ~needle s))
    [ "m(R)=15"; "RD_cost=2"; "0.97"; "0.45" ]

let test_shape_checks_all_ok () =
  let s = Figures.shape_checks () in
  Alcotest.(check bool) "no FAIL lines" false (contains ~needle:"[FAIL]" s);
  Alcotest.(check bool) "has OK lines" true (contains ~needle:"[OK ]" s)

let test_tablefmt_alignment () =
  let s =
    Tablefmt.render ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let lines = String.split_on_char '\n' (String.trim s) in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  (* All lines padded to the same prefix width for the first column. *)
  Alcotest.(check bool) "rule present" true (contains ~needle:"---" s)

let test_limits_table () =
  let s = Figures.limits () in
  Alcotest.(check bool) "has p column" true (contains ~needle:"0.85" s)

let test_csv_export () =
  let s = Eval.Export.csv ~sizes:[ 9; 17 ] Eval.Export.Fig2_read in
  let lines = String.split_on_char '\n' (String.trim s) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check bool) "header" true
    (contains ~needle:"n,BINARY,UNMODIFIED,ARBITRARY" s);
  (* MOSTLY-READ read cost is 1 at any size. *)
  Alcotest.(check bool) "row has values" true (contains ~needle:"9," s)

let test_csv_matches_metrics () =
  let s = Eval.Export.csv ~sizes:[ 65 ] ~p:0.7 Eval.Export.Fig4_load in
  let m = Config_metrics.compute Config.Arbitrary ~n:65 ~p:0.7 in
  Alcotest.(check bool) "arbitrary write load in CSV" true
    (contains ~needle:(Printf.sprintf "%.6f" m.Config_metrics.wr_load) s)

let test_gnuplot_script () =
  let s = Eval.Export.gnuplot_script () in
  List.iter
    (fun fig ->
      Alcotest.(check bool)
        (Eval.Export.figure_name fig ^ " referenced")
        true
        (contains ~needle:(Eval.Export.figure_name fig) s))
    Eval.Export.all_figures

let test_write_all () =
  let dir = Filename.temp_file "repro" "" in
  Sys.remove dir;
  let files = Eval.Export.write_all ~sizes:[ 9 ] ~dir () in
  Alcotest.(check int) "6 CSVs + plot.gp" 7 (List.length files);
  List.iter
    (fun f -> Alcotest.(check bool) (f ^ " exists") true (Sys.file_exists f))
    files

let test_tree_dot () =
  let dot = Arbitrary.Tree_dot.to_dot (Arbitrary.Tree.figure1 ()) in
  Alcotest.(check bool) "digraph" true (contains ~needle:"digraph" dot);
  (* 8 physical nodes -> 8 filled boxes; 4 logical circles + root. *)
  Alcotest.(check bool) "site labels present" true (contains ~needle:"s7" dot);
  Alcotest.(check bool) "logical nodes hollow" true
    (contains ~needle:"shape=circle" dot);
  (* Every non-root node has an edge. Figure 1: 3 + 9 = 12 edges. *)
  let count needle s =
    let nl = String.length needle and sl = String.length s in
    let rec go i acc =
      if i + nl > sl then acc
      else go (i + 1) (if String.sub s i nl = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "12 edges" 12 (count " -> " dot)

let test_simulate_measure_smoke () =
  (* Tiny run: measured cost must land near analytic for the arbitrary
     configuration. *)
  let r = Eval.Simulate.measure Config.Arbitrary ~n:9 ~ops:60 ~seed:5 in
  Alcotest.(check bool) "read cost close" true
    (abs_float (r.Eval.Simulate.measured_rd_cost -. r.Eval.Simulate.analytic_rd_cost)
    < 0.5);
  Alcotest.(check bool) "write cost close" true
    (abs_float (r.Eval.Simulate.measured_wr_cost -. r.Eval.Simulate.analytic_wr_cost)
    < 0.8);
  (* All six configurations at n=9, recorded before the §4 single-client
     cell got its single builder. *)
  Alcotest.(check string) "pinned cost/load table"
    "1cb98b98242210bd21b79467b02b820c"
    (Digest.to_hex
       (Digest.string (Eval.Simulate.cost_load_table ~n:9 ~ops:40 ())))

let test_failure_injection_run_smoke () =
  let r =
    Eval.Simulate.failure_injection_run Config.Arbitrary ~n:9 ~p:0.9 ~ops:6
      ~seed:3
  in
  Alcotest.(check int) "six ops attempted" 6
    (r.Replication.Harness.reads_ok + r.Replication.Harness.reads_failed
    + r.Replication.Harness.writes_ok + r.Replication.Harness.writes_failed)

let test_tables_render_small () =
  List.iter
    (fun (tag, s) ->
      Alcotest.(check bool) (tag ^ " renders") true (String.length s > 80))
    [
      ("cost_load", Eval.Simulate.cost_load_table ~n:9 ~ops:40 ());
      ("cost_sweep", Eval.Simulate.cost_sweep ~sizes:[ 9 ] ~ops:40 ());
      ("latency", Eval.Simulate.latency_table ~n:9 ~ops:40 ());
      ("availability", Eval.Simulate.availability_table ~n:9 ~trials:300 ());
      ( "failure-availability",
        Eval.Simulate.failure_availability_table ~n:9 ~patterns:5 () );
      ("related", Figures.related_work ~n:16 ());
    ]

let suite =
  [
    Alcotest.test_case "feasible_n" `Quick test_feasible_n;
    Alcotest.test_case "compute consistency" `Quick test_compute_consistency;
    Alcotest.test_case "binary curve at feasible points" `Quick
      test_binary_formula_at_feasible_points;
    Alcotest.test_case "all protocols executable" `Quick test_protocols_executable;
    Alcotest.test_case "figures render" `Quick test_figures_render;
    Alcotest.test_case "table 1 has paper numbers" `Quick
      test_table1_has_paper_numbers;
    Alcotest.test_case "shape checks all OK" `Quick test_shape_checks_all_ok;
    Alcotest.test_case "tablefmt alignment" `Quick test_tablefmt_alignment;
    Alcotest.test_case "limits table" `Quick test_limits_table;
    Alcotest.test_case "csv export" `Quick test_csv_export;
    Alcotest.test_case "csv matches metrics" `Quick test_csv_matches_metrics;
    Alcotest.test_case "gnuplot script" `Quick test_gnuplot_script;
    Alcotest.test_case "write_all" `Quick test_write_all;
    Alcotest.test_case "tree DOT export" `Quick test_tree_dot;
    Alcotest.test_case "simulate.measure smoke" `Quick test_simulate_measure_smoke;
    Alcotest.test_case "failure injection smoke" `Quick
      test_failure_injection_run_smoke;
    Alcotest.test_case "all measured tables render" `Slow test_tables_render_small;
  ]
