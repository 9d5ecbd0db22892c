(** Machine-readable exports of the figure data: CSV series (one column
    per configuration) and a ready-to-run gnuplot script, so the paper's
    plots can be redrawn from the reproduction. *)

type figure = Fig2_read | Fig2_write | Fig3_load | Fig3_expected
            | Fig4_load | Fig4_expected

val figure_name : figure -> string
val all_figures : figure list

val csv : ?sizes:int list -> ?p:float -> figure -> string
(** Header row [n,BINARY,UNMODIFIED,...] then one row per system size. *)

val gnuplot_script : ?figures:figure list -> unit -> string
(** A gnuplot script that reads the CSV files written by {!write_all} and
    renders one PNG per figure. *)

val write_all : ?sizes:int list -> ?p:float -> dir:string -> unit -> string list
(** Writes [<figure>.csv] for every figure plus [plot.gp] into [dir]
    (created if missing); returns the paths written. *)

(** {2 Observability exports} *)

val file_sink : path:string -> Obs.Sink.t * (unit -> unit)
(** A sink that streams each closed span to [path] as JSONL, plus the
    close function (call it after {!Obs.flush} when the run ends). *)

val metrics_json : Obs.t -> string
(** Snapshot of the whole registry:
    [{"counters":{..},
      "histograms":{name:{count,mean,min,max,p50,p95,p99},..},
      "spans":{started,closed,open}}].
    Metric names are sorted, so output is deterministic. *)

val write_metrics_json : path:string -> Obs.t -> unit
