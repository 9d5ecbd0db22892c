(** Timed failure schedules: crash/recovery and partition events applied to
    a network at predetermined virtual times. *)

type event =
  | Crash of int
  | Recover of int
  | Partition of int list list
  | Heal

type entry = { time : float; event : event }

val apply : 'msg Network.t -> entry list -> unit
(** Schedules every entry on the network's engine, in sorted time order
    (stable for equal timestamps, so schedule order breaks ties).  Raises
    [Invalid_argument] — before anything is scheduled — if any entry's time
    is in the engine's past. *)

val random_crash_recovery :
  rng:Dsutil.Rng.t ->
  n:int ->
  horizon:float ->
  mtbf:float ->
  mttr:float ->
  entry list
(** Independent per-site alternating up/down renewal processes:
    exponential time-between-failures with mean [mtbf], exponential repair
    with mean [mttr], truncated at [horizon].  The stationary availability
    of each site is mtbf/(mtbf+mttr). *)

val steady_state_availability : mtbf:float -> mttr:float -> float

val pp_entry : Format.formatter -> entry -> unit
