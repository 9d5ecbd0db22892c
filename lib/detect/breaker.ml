module Bitset = Dsutil.Bitset

type config = {
  threshold : int;
  cooldown : float;
  cooldown_factor : float;
  max_cooldown : float;
}

let default_config =
  { threshold = 5; cooldown = 150.0; cooldown_factor = 2.0; max_cooldown = 1200.0 }

type state = Closed | Open | Half_open

type site = {
  mutable state : state;
  mutable failures : int;  (* consecutive, while Closed *)
  mutable opened_at : float;
  mutable current_cooldown : float;  (* grows while the site keeps failing
                                        its half-open probes *)
}

type t = {
  config : config;
  now : unit -> float;
  sites : site array;
  trips : Obs.Metrics.counter;
  mutable probes : int;
}

let create ?(config = default_config) ~n ~now () =
  if config.threshold < 1 then invalid_arg "Breaker.create: threshold < 1";
  if config.cooldown <= 0.0 then invalid_arg "Breaker.create: cooldown <= 0";
  {
    config;
    now;
    sites =
      Array.init n (fun _ ->
          {
            state = Closed;
            failures = 0;
            opened_at = 0.0;
            current_cooldown = config.cooldown;
          });
    trips = { value = 0 };
    probes = 0;
  }

let check_site t i =
  if i < 0 || i >= Array.length t.sites then invalid_arg "Breaker: bad site id"

(* The effective state folds the cooldown clock in without committing the
   transition: an Open site whose cooldown has elapsed *reads as*
   Half_open.  Pure — inspection (metrics scrapes, [replica-ctl] dumps,
   [open_sites]) must not perturb breaker behavior or the probe count. *)
let effective t s =
  match s.state with
  | Open when t.now () >= s.opened_at +. s.current_cooldown -> Half_open
  | st -> st

let state t i =
  check_site t i;
  effective t t.sites.(i)

(* Lazy time transition, on the traffic path only: an Open site whose
   cooldown has elapsed becomes Half_open the first time a *request* looks
   at it, letting exactly the normal request flow act as its probe
   traffic.  One probe is counted per Open -> Half_open commit, however
   many inspections preceded it. *)
let observe t i =
  check_site t i;
  let s = t.sites.(i) in
  (match s.state with
  | Open when t.now () >= s.opened_at +. s.current_cooldown ->
    s.state <- Half_open;
    t.probes <- t.probes + 1
  | _ -> ());
  s.state

let allowed t i = observe t i <> Open

let trip t s =
  s.state <- Open;
  s.failures <- 0;
  s.opened_at <- t.now ();
  t.trips.value <- t.trips.value + 1

(* Returns [true] exactly when this piece of evidence tripped the breaker
   (Closed with the threshold reached, or a failed half-open probe). *)
let record_failure t i =
  match observe t i with
  | Open -> false
  | Half_open ->
    (* The probe failed: back to Open, with a longer sentence. *)
    let s = t.sites.(i) in
    s.current_cooldown <-
      Float.min t.config.max_cooldown
        (s.current_cooldown *. t.config.cooldown_factor);
    trip t s;
    true
  | Closed ->
    let s = t.sites.(i) in
    s.failures <- s.failures + 1;
    if s.failures >= t.config.threshold then begin
      s.current_cooldown <- t.config.cooldown;
      trip t s;
      true
    end
    else false

let record_ok t i =
  match observe t i with
  | Open ->
    (* A late reply from a tripped site: stale evidence from before the
       trip.  Ignored — the site earns its way back through a probe. *)
    ()
  | Half_open | Closed ->
    let s = t.sites.(i) in
    s.state <- Closed;
    s.failures <- 0;
    s.current_cooldown <- t.config.cooldown

let filter t view =
  for i = 0 to Array.length t.sites - 1 do
    if Bitset.mem view i && not (allowed t i) then Bitset.remove view i
  done;
  view

let trips t = t.trips.value
let attach_obs t obs = Obs.Metrics.register (Obs.metrics obs) "breaker.trips" t.trips
let probes t = t.probes

let open_sites t =
  let acc = ref [] in
  for i = Array.length t.sites - 1 downto 0 do
    if state t i = Open then acc := i :: !acc
  done;
  !acc
