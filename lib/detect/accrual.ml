module Stats = Dsutil.Stats

(* The estimator's parameters, documented at [create] in the interface. *)
let threshold = 8.0
let min_samples = 3
let min_stddev = 0.5
let max_interval_factor = 4.0

type site_state = {
  mutable last : float option;  (* arrival time of the newest heartbeat *)
  intervals : Stats.t;
}

type t = { sites : site_state array }

let create ~n () =
  if n < 1 then invalid_arg "Accrual.create: need at least one site";
  { sites = Array.init n (fun _ -> { last = None; intervals = Stats.create () }) }

let check t site =
  if site < 0 || site >= Array.length t.sites then
    invalid_arg "Accrual: bad site id"

let heartbeat t ~site ~now =
  check t site;
  let s = t.sites.(site) in
  (match s.last with
  | Some prev when now > prev ->
    let interval = now -. prev in
    (* Clamp outage gaps: the first heartbeat after a long silence carries
       an interval the size of the whole outage, and recording it raw
       would blow up the mean/stddev and blind the detector for the rest
       of the run.  Cap at a multiple of the current mean once a baseline
       exists. *)
    let interval =
      if Stats.count s.intervals >= min_samples then
        Float.min interval
          (max_interval_factor *. Stats.mean s.intervals)
      else interval
    in
    Stats.add s.intervals interval
  | _ -> ());
  match s.last with
  | Some prev when now < prev -> ()  (* out-of-order evidence: keep newest *)
  | _ -> s.last <- Some now

(* Abramowitz & Stegun 7.1.26: erfc to ~1.5e-7, enough for any usable φ
   threshold (the tail is re-derived in closed form beyond z = 8 anyway). *)
let erfc x =
  let z = Float.abs x in
  let u = 1.0 /. (1.0 +. (0.3275911 *. z)) in
  let poly =
    u
    *. (0.254829592
       +. (u
          *. (-0.284496736
             +. (u *. (1.421413741 +. (u *. (-1.453152027 +. (u *. 1.061405429))))))))
  in
  let e = poly *. Float.exp (-.(z *. z)) in
  if x >= 0.0 then e else 2.0 -. e

(* Upper tail of the standard normal. *)
let q_tail z = 0.5 *. erfc (z /. Float.sqrt 2.0)

let phi t ~site ~now =
  check t site;
  let s = t.sites.(site) in
  match s.last with
  | None -> 0.0
  | Some last ->
    if Stats.count s.intervals < min_samples then 0.0
    else begin
      let mean = Stats.mean s.intervals in
      let sd = Float.max (Stats.stddev s.intervals) min_stddev in
      let z = (now -. last -. mean) /. sd in
      if z <= 0.0 then 0.0
      else begin
        let p = q_tail z in
        if p > 1e-300 then -.Float.log10 p
        else
          (* Tail underflow: use the asymptotic expansion
             Q(z) ~ exp(−z²/2) / (z·√2π) in log space. *)
          ((z *. z /. 2.0) +. Float.log (z *. Float.sqrt (2.0 *. Float.pi)))
          /. Float.log 10.0
      end
    end

let suspected t ~site ~now = phi t ~site ~now > threshold
let samples t ~site =
  check t site;
  Stats.count t.sites.(site).intervals

let mean_interval t ~site =
  check t site;
  let s = t.sites.(site) in
  if Stats.count s.intervals = 0 then 0.0 else Stats.mean s.intervals
