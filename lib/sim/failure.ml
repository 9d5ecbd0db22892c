module Rng = Dsutil.Rng

type event =
  | Crash of int
  | Recover of int
  | Partition of int list list
  | Heal

type entry = { time : float; event : event }

let apply net entries =
  let engine = Network.engine net in
  (* Validate the whole schedule before touching the engine: a stale entry
     must not leave a half-applied schedule behind (the engine would raise
     mid-iteration otherwise, after earlier entries were already queued). *)
  let now = Engine.now engine in
  List.iter
    (fun { time; _ } ->
      if time < now then
        invalid_arg
          (Printf.sprintf
             "Failure.apply: entry at t=%g is in the engine's past (now %g)"
             time now))
    entries;
  (* Schedule in time order so equal-timestamp events fire in schedule
     order regardless of how the caller assembled the list (the engine is
     FIFO among equal timestamps). *)
  let entries =
    List.stable_sort (fun a b -> Float.compare a.time b.time) entries
  in
  List.iter
    (fun { time; event } ->
      Engine.schedule_at engine ~time (fun () ->
          match event with
          | Crash i -> Network.crash net i
          | Recover i -> Network.recover net i
          | Partition groups -> Network.partition net groups
          | Heal -> Network.heal net))
    entries

let random_crash_recovery ~rng ~n ~horizon ~mtbf ~mttr =
  if mtbf <= 0.0 || mttr <= 0.0 then
    invalid_arg "Failure.random_crash_recovery: non-positive means";
  let entries = ref [] in
  for site = 0 to n - 1 do
    let t = ref (Rng.exponential rng mtbf) in
    let up = ref true in
    while !t < horizon do
      entries :=
        { time = !t; event = (if !up then Crash site else Recover site) }
        :: !entries;
      let dwell = Rng.exponential rng (if !up then mttr else mtbf) in
      up := not !up;
      t := !t +. dwell
    done
  done;
  List.sort (fun a b -> Float.compare a.time b.time) !entries

let steady_state_availability ~mtbf ~mttr = mtbf /. (mtbf +. mttr)

let pp_entry ppf { time; event } =
  match event with
  | Crash i -> Format.fprintf ppf "%.2f: crash %d" time i
  | Recover i -> Format.fprintf ppf "%.2f: recover %d" time i
  | Partition groups ->
    Format.fprintf ppf "%.2f: partition %a" time
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " | ")
         (Format.pp_print_list
            ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
            Format.pp_print_int))
      groups
  | Heal -> Format.fprintf ppf "%.2f: heal" time
