module Config = Arbitrary.Config

type figure = Fig2_read | Fig2_write | Fig3_load | Fig3_expected
            | Fig4_load | Fig4_expected

let figure_name = function
  | Fig2_read -> "fig2_read_cost"
  | Fig2_write -> "fig2_write_cost"
  | Fig3_load -> "fig3_read_load"
  | Fig3_expected -> "fig3_expected_read_load"
  | Fig4_load -> "fig4_write_load"
  | Fig4_expected -> "fig4_expected_write_load"

let all_figures =
  [ Fig2_read; Fig2_write; Fig3_load; Fig3_expected; Fig4_load; Fig4_expected ]

let value_of figure (m : Config_metrics.t) =
  match figure with
  | Fig2_read -> m.Config_metrics.rd_cost
  | Fig2_write -> m.Config_metrics.wr_cost
  | Fig3_load -> m.Config_metrics.rd_load
  | Fig3_expected -> m.Config_metrics.e_rd_load
  | Fig4_load -> m.Config_metrics.wr_load
  | Fig4_expected -> m.Config_metrics.e_wr_load

let csv ?(sizes = Figures.default_sizes) ?(p = Figures.default_p) figure =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    ("n,"
    ^ String.concat ","
        (List.map Config.name_to_string Config.all_names)
    ^ "\n");
  List.iter
    (fun n ->
      Buffer.add_string buf (string_of_int n);
      List.iter
        (fun c ->
          let m = Config_metrics.compute c ~n ~p in
          Buffer.add_string buf (Printf.sprintf ",%.6f" (value_of figure m)))
        Config.all_names;
      Buffer.add_char buf '\n')
    sizes;
  Buffer.contents buf

let gnuplot_script ?(figures = all_figures) () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "# Regenerates the paper's figures from the exported CSV series.\n\
     # Usage: gnuplot plot.gp\n\
     set datafile separator ','\n\
     set key outside\n\
     set xlabel 'replicas (n)'\n\
     set logscale x 2\n\
     set terminal pngcairo size 900,540\n";
  List.iter
    (fun figure ->
      let name = figure_name figure in
      Buffer.add_string buf
        (Printf.sprintf
           "set output '%s.png'\nset title '%s'\nplot for [col=2:7] '%s.csv' \
            using 1:col with linespoints title columnheader\n"
           name name name))
    figures;
  Buffer.contents buf

let write_all ?(sizes = Figures.default_sizes) ?(p = Figures.default_p) ~dir () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write_file name contents =
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    path
  in
  let csvs =
    List.map
      (fun figure ->
        write_file (figure_name figure ^ ".csv") (csv ~sizes ~p figure))
      all_figures
  in
  csvs @ [ write_file "plot.gp" (gnuplot_script ()) ]

(* --- observability exports ---------------------------------------------- *)

let file_sink ~path =
  let oc = open_out path in
  let sink =
    Obs.Sink.make
      ~flush:(fun () -> flush oc)
      (fun sp ->
        output_string oc (Obs.Span.to_json sp);
        output_char oc '\n')
  in
  (sink, fun () -> close_out oc)

let metrics_json obs =
  let m = Obs.metrics obs in
  let buf = Buffer.create 1024 in
  let obj fields = "{" ^ String.concat "," fields ^ "}" in
  let counters =
    List.map
      (fun (name, v) -> Printf.sprintf "\"%s\":%d" name v)
      (Obs.Metrics.counters m)
  in
  let histograms =
    List.map
      (fun (name, h) ->
        let s = Obs.Metrics.summary h in
        let count = Dsutil.Stats.count s in
        let body =
          if count = 0 then Printf.sprintf "\"count\":0"
          else
            Printf.sprintf
              "\"count\":%d,\"mean\":%.6g,\"min\":%.6g,\"max\":%.6g,\
               \"p50\":%.6g,\"p95\":%.6g,\"p99\":%.6g"
              count (Dsutil.Stats.mean s)
              (Dsutil.Stats.min_value s)
              (Dsutil.Stats.max_value s)
              (Dsutil.Stats.percentile s 0.5)
              (Dsutil.Stats.percentile s 0.95)
              (Dsutil.Stats.percentile s 0.99)
        in
        Printf.sprintf "\"%s\":{%s}" name body)
      (Obs.Metrics.histograms m)
  in
  Buffer.add_string buf
    (obj
       [
         "\"counters\":" ^ obj counters;
         "\"histograms\":" ^ obj histograms;
         Printf.sprintf "\"spans\":{\"started\":%d,\"closed\":%d,\"open\":%d}"
           (Obs.spans_started obs) (Obs.spans_closed obs) (Obs.spans_open obs);
       ]);
  Buffer.contents buf

let write_metrics_json ~path obs =
  let oc = open_out path in
  output_string oc (metrics_json obs);
  output_char oc '\n';
  close_out oc
