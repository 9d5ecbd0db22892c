(** The one campaign runner: a campaign is a list of labelled scenario
    lines, and every cell is one {!Replication.Harness.run_core} of its
    line.

    The chaos, amnesia, churn, overload and shard-scaling campaigns build
    their grids as lines ({!Chaos}, {!Churn}, {!Overload}, {!Sharding})
    and run, sum and tabulate them here.  A cell keeps its line, so a
    failing cell replays alone: {!replay} is the command that reruns it. *)

type cell = {
  label : string;  (** what the campaign calls the cell (schedule, kind, ...) *)
  line : Scenario_line.t;
  report : Replication.Harness.sharded_report;
  consistency : Consistency.report;
      (** the trace checker over the run's spans — empty unless the line
          sets [check_consistency] *)
}

val run : ?domains:int -> (string * Scenario_line.t) list -> cell list
(** Runs every line, fanned out over {!Parallel.map}, in input order.
    Every line must own its protocol instance (build one per line).
    Byte-identical for any domain count. *)

val violations : cell list -> int
(** The online freshness counter plus the checker's violations, summed. *)

val rate : int -> int -> float
(** [rate ok failed]: the success rate, 1.0 when nothing was attempted. *)

val table : (string * (cell -> string)) list -> cell list -> string
(** One row per cell, one [(header, column)] per column. *)

val replay : cell -> string
(** [replica-ctl run '<line>']: the command that reruns the cell. *)

val blame : cell list -> string
(** [""] when no cell has {!violations}, else [" (replay: <command>)"]
    naming the first cell that has: what a failed gate message appends. *)
