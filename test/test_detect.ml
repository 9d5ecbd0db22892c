(* Unit tests for the failure-detection library: φ-accrual estimation,
   adaptive RTO, jittered backoff, heartbeat monitor, detector views. *)

module Accrual = Detect.Accrual
module Rto = Detect.Rto
module Backoff = Detect.Backoff
module Breaker = Detect.Breaker
module Budget = Detect.Budget
module Heartbeat = Detect.Heartbeat
module View = Detect.View
module Engine = Dsim.Engine
module Network = Dsim.Network
module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng
module Stats = Dsutil.Stats

(* -- Accrual ------------------------------------------------------------ *)

(* Feed [count] heartbeats at a regular [period], starting at [start]. *)
let feed acc ~site ~start ~period ~count =
  for i = 0 to count - 1 do
    Accrual.heartbeat acc ~site ~now:(start +. (float_of_int i *. period))
  done

let test_bootstrap_grace () =
  let acc = Accrual.create ~n:2 () in
  Alcotest.(check bool)
    "never heard: not suspected" false
    (Accrual.suspected acc ~site:0 ~now:1000.0);
  Accrual.heartbeat acc ~site:0 ~now:0.0;
  Accrual.heartbeat acc ~site:0 ~now:5.0;
  (* Only 1 interval < min_samples: still in grace however long the
     silence. *)
  Alcotest.(check (float 0.0)) "phi 0 in grace" 0.0
    (Accrual.phi acc ~site:0 ~now:10_000.0)

let test_phi_grows_with_silence () =
  let acc = Accrual.create ~n:1 () in
  feed acc ~site:0 ~start:0.0 ~period:5.0 ~count:10;
  let last = 45.0 in
  let phi_soon = Accrual.phi acc ~site:0 ~now:(last +. 5.0) in
  let phi_late = Accrual.phi acc ~site:0 ~now:(last +. 20.0) in
  let phi_very_late = Accrual.phi acc ~site:0 ~now:(last +. 60.0) in
  Alcotest.(check bool) "phi monotone in silence" true
    (phi_soon < phi_late && phi_late < phi_very_late);
  Alcotest.(check bool)
    "on-schedule heartbeat is unsuspicious" true (phi_soon < 1.0);
  Alcotest.(check bool) "long silence suspected" true
    (Accrual.suspected acc ~site:0 ~now:(last +. 60.0))

let test_rehabilitation () =
  let acc = Accrual.create ~n:1 () in
  feed acc ~site:0 ~start:0.0 ~period:5.0 ~count:10;
  Alcotest.(check bool) "suspected after outage" true
    (Accrual.suspected acc ~site:0 ~now:200.0);
  (* A single heartbeat resets φ. *)
  Accrual.heartbeat acc ~site:0 ~now:200.0;
  Alcotest.(check bool) "rehabilitated instantly" false
    (Accrual.suspected acc ~site:0 ~now:200.1)

let test_outage_clamp () =
  let acc = Accrual.create ~n:1 () in
  feed acc ~site:0 ~start:0.0 ~period:5.0 ~count:20;
  (* A 500-unit outage, then heartbeats resume.  The outage gap must be
     clamped, not recorded raw, so the mean stays near the true period and
     the detector still reacts to the next outage promptly. *)
  Accrual.heartbeat acc ~site:0 ~now:595.0;
  feed acc ~site:0 ~start:600.0 ~period:5.0 ~count:10;
  let mean = Accrual.mean_interval acc ~site:0 in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f stays near period" mean)
    true (mean < 10.0);
  Alcotest.(check bool) "re-suspects after second outage" true
    (Accrual.suspected acc ~site:0 ~now:800.0)

let test_out_of_order_evidence () =
  let acc = Accrual.create ~n:1 () in
  feed acc ~site:0 ~start:0.0 ~period:5.0 ~count:5;
  let before = Accrual.samples acc ~site:0 in
  (* Evidence older than the newest heartbeat adds no interval and does
     not move the freshness clock backwards. *)
  Accrual.heartbeat acc ~site:0 ~now:3.0;
  Alcotest.(check int) "stale heartbeat ignored" before
    (Accrual.samples acc ~site:0);
  Alcotest.(check bool) "freshness kept" true
    (Accrual.phi acc ~site:0 ~now:21.0 < 1.0)

let test_accrual_bad_site () =
  let acc = Accrual.create ~n:3 () in
  Alcotest.check_raises "site out of range"
    (Invalid_argument "Accrual: bad site id") (fun () ->
      Accrual.heartbeat acc ~site:3 ~now:0.0)

(* -- Rto ---------------------------------------------------------------- *)

let test_rto_initial () =
  let rto = Rto.create () in
  Alcotest.(check (float 0.0)) "no samples: initial"
    Rto.default_config.Rto.initial (Rto.timeout rto);
  for _ = 1 to Rto.default_config.Rto.min_samples - 1 do
    Rto.observe rto 1.0
  done;
  Alcotest.(check (float 0.0)) "below min_samples: initial"
    Rto.default_config.Rto.initial (Rto.timeout rto)

let test_rto_adapts () =
  let rto = Rto.create () in
  for _ = 1 to 100 do
    Rto.observe rto 2.0
  done;
  (* quantile of a constant stream = 2.0; timeout = 3 × 2 = 6. *)
  Alcotest.(check (float 0.5)) "3x the observed RTT" 6.0 (Rto.timeout rto)

let test_rto_clamps () =
  let tight = Rto.create () in
  for _ = 1 to 100 do
    Rto.observe tight 0.01
  done;
  Alcotest.(check (float 0.0)) "clamped below"
    Rto.default_config.Rto.min_timeout (Rto.timeout tight);
  let slow = Rto.create () in
  for _ = 1 to 100 do
    Rto.observe slow 1000.0
  done;
  Alcotest.(check (float 0.0)) "clamped above"
    Rto.default_config.Rto.max_timeout (Rto.timeout slow)

let test_rto_ignores_garbage () =
  let rto = Rto.create () in
  Rto.observe rto (-5.0);
  Rto.observe rto 0.0;
  Alcotest.(check int) "non-positive samples dropped" 0 (Rto.samples rto)

(* The definition the incremental estimator must reproduce bit for bit:
   the clamped multiple of the nearest-rank quantile of every positive
   sample so far, [initial] below [max 1 min_samples] samples. *)
let reference_timeout (c : Rto.config) stats =
  if Stats.count stats < max 1 c.Rto.min_samples then c.Rto.initial
  else
    Float.min c.Rto.max_timeout
      (Float.max c.Rto.min_timeout
         (c.Rto.multiplier *. Stats.percentile stats c.Rto.quantile))

let arb_rto_stream =
  let open QCheck.Gen in
  (* Small integers give ties, zeros and negatives; the float range gives
     distinct values, some of them clamped. *)
  let sample =
    frequency
      [
        (3, map float_of_int (int_range (-2) 12));
        (2, float_range (-1.0) 60.0);
      ]
  in
  QCheck.make
    ~print:QCheck.Print.(triple float int (list float))
    (triple
       (oneofl [ 0.0; 0.01; 0.5; 0.95; 0.999; 1.0 ])
       (int_range 0 12)
       (list_size (int_range 0 300) sample))

let prop_rto_matches_reference =
  QCheck.Test.make ~count:100
    ~name:"rto: timeout = clamped Stats.percentile after every sample"
    arb_rto_stream (fun (quantile, min_samples, stream) ->
      let config =
        {
          Rto.default_config with
          Rto.quantile;
          min_samples;
          multiplier = 1.5;
          min_timeout = 0.5;
          max_timeout = 40.0;
        }
      in
      let rto = Rto.create ~config () in
      let stats = Stats.create () in
      List.for_all
        (fun x ->
          Rto.observe rto x;
          if x > 0.0 then Stats.add stats x;
          Rto.samples rto = Stats.count stats
          && Float.equal (Rto.timeout rto) (reference_timeout config stats))
        stream)

(* An observe+timeout pair allocates only the float boxes crossing this
   call site: the argument of [observe] and the result of [timeout].  The
   long stream also exercises the rank arithmetic at large n. *)
let test_rto_allocation_free () =
  let config =
    {
      Rto.default_config with
      Rto.multiplier = 1.0;
      min_timeout = 0.0;
      max_timeout = infinity;
    }
  in
  let rto = Rto.create ~config () in
  let stats = Stats.create () in
  let rng = Rng.create 14 in
  let warm = 1_000 and pairs = 100_000 in
  let samples = Float.Array.init (warm + pairs) (fun _ -> Rng.float rng 50.0) in
  for i = 0 to warm - 1 do
    Rto.observe rto (Float.Array.get samples i)
  done;
  let before = Gc.minor_words () in
  for i = warm to warm + pairs - 1 do
    Rto.observe rto (Float.Array.get samples i);
    ignore (Sys.opaque_identity (Rto.timeout rto))
  done;
  (* Slack for amortised growth: a heap array lives in the minor heap only
     up to 256 words, so its doublings there total under 512 words per
     heap; larger arrays go straight to the major heap. *)
  let words = Gc.minor_words () -. before -. 1024.0 in
  if words > 4.0 *. float_of_int pairs then
    Alcotest.failf "%.4f minor words per observe+timeout pair (bound 4)"
      (words /. float_of_int pairs);
  Float.Array.iter (fun x -> if x > 0.0 then Stats.add stats x) samples;
  Alcotest.(check (float 0.0)) "exact at n = 101k"
    (reference_timeout config stats) (Rto.timeout rto)

(* -- Backoff ------------------------------------------------------------ *)

let test_backoff_growth () =
  let policy = { Backoff.default with Backoff.jitter = 0.0 } in
  let rng = Rng.create 7 in
  let d k = Backoff.delay policy ~rng ~attempt:k in
  Alcotest.(check (float 1e-9)) "attempt 0 = base" policy.Backoff.base (d 0);
  Alcotest.(check (float 1e-9)) "attempt 1 doubles"
    (policy.Backoff.base *. 2.0) (d 1);
  Alcotest.(check (float 1e-9)) "attempt 2 quadruples"
    (policy.Backoff.base *. 4.0) (d 2);
  Alcotest.(check (float 1e-9)) "capped" policy.Backoff.max_delay (d 50)

let test_backoff_jitter_bounds () =
  let policy = Backoff.default in
  let rng = Rng.create 11 in
  for attempt = 0 to 8 do
    let raw =
      Float.min policy.Backoff.max_delay
        (policy.Backoff.base
        *. Float.pow policy.Backoff.factor (float_of_int attempt))
    in
    for _ = 1 to 50 do
      let d = Backoff.delay policy ~rng ~attempt in
      let lo = raw *. (1.0 -. policy.Backoff.jitter)
      and hi = raw *. (1.0 +. policy.Backoff.jitter) in
      if d < lo -. 1e-9 || d > hi +. 1e-9 then
        Alcotest.failf "attempt %d: delay %.3f outside [%.3f, %.3f]" attempt d
          lo hi
    done
  done

let test_backoff_huge_attempt_capped () =
  (* The geometric growth overflows a float well before attempt 2000; the
     cap must still hold and the jittered delay must stay finite and
     within the jitter band of the cap. *)
  let policy = Backoff.default in
  let rng = Rng.create 5 in
  List.iter
    (fun attempt ->
      let d = Backoff.delay policy ~rng ~attempt in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d finite" attempt)
        true (Float.is_finite d);
      let hi = policy.Backoff.max_delay *. (1.0 +. policy.Backoff.jitter) in
      let lo = policy.Backoff.max_delay *. (1.0 -. policy.Backoff.jitter) in
      if d < lo -. 1e-9 || d > hi +. 1e-9 then
        Alcotest.failf "attempt %d: delay %.3f outside capped band [%.3f, %.3f]"
          attempt d lo hi)
    [ 64; 1000; 100_000; max_int ]

let test_backoff_deterministic () =
  let gen seed =
    let rng = Rng.create seed in
    List.init 10 (fun k -> Backoff.delay Backoff.default ~rng ~attempt:k)
  in
  Alcotest.(check (list (float 1e-12))) "same seed, same delays"
    (gen 3) (gen 3);
  Alcotest.(check bool) "different seeds decorrelate" true (gen 3 <> gen 4)

(* -- Circuit breaker ----------------------------------------------------- *)

let breaker ?config ?(n = 3) ?(at = ref 0.0) () =
  let t = Breaker.create ?config ~n ~now:(fun () -> !at) () in
  (t, at)

let trip b site threshold =
  let tripped = ref false in
  for _ = 1 to threshold do
    if Breaker.record_failure b site then tripped := true
  done;
  !tripped

let test_breaker_trips_on_threshold () =
  let config = { Breaker.default_config with Breaker.threshold = 3 } in
  let b, _ = breaker ~config () in
  Alcotest.(check bool) "no trip below threshold" false
    (Breaker.record_failure b 0);
  Alcotest.(check bool) "still below" false (Breaker.record_failure b 0);
  Alcotest.(check bool) "closed" true (Breaker.state b 0 = Breaker.Closed);
  Alcotest.(check bool) "third consecutive failure trips" true
    (Breaker.record_failure b 0);
  Alcotest.(check bool) "open" true (Breaker.state b 0 = Breaker.Open);
  Alcotest.(check bool) "not allowed" false (Breaker.allowed b 0);
  Alcotest.(check int) "one trip" 1 (Breaker.trips b);
  Alcotest.(check bool) "other sites unaffected" true (Breaker.allowed b 1)

let test_breaker_ok_resets_streak () =
  let config = { Breaker.default_config with Breaker.threshold = 3 } in
  let b, _ = breaker ~config () in
  ignore (Breaker.record_failure b 0);
  ignore (Breaker.record_failure b 0);
  Breaker.record_ok b 0;
  (* The streak restarted: two more failures must not trip. *)
  ignore (Breaker.record_failure b 0);
  Alcotest.(check bool) "streak was reset" false (Breaker.record_failure b 0);
  Alcotest.(check bool) "closed" true (Breaker.state b 0 = Breaker.Closed)

let test_breaker_half_open_and_close () =
  let config =
    { Breaker.default_config with Breaker.threshold = 2; cooldown = 100.0 }
  in
  let b, at = breaker ~config () in
  Alcotest.(check bool) "trips" true (trip b 0 2);
  at := 99.0;
  Alcotest.(check bool) "still open inside cooldown" true
    (Breaker.state b 0 = Breaker.Open);
  at := 100.0;
  Alcotest.(check bool) "half-open after cooldown" true
    (Breaker.state b 0 = Breaker.Half_open);
  Alcotest.(check bool) "half-open admits probe traffic" true
    (Breaker.allowed b 0);
  Alcotest.(check int) "probe counted" 1 (Breaker.probes b);
  Breaker.record_ok b 0;
  Alcotest.(check bool) "probe success closes" true
    (Breaker.state b 0 = Breaker.Closed)

let test_breaker_failed_probe_grows_cooldown () =
  let config =
    {
      Breaker.threshold = 2;
      cooldown = 100.0;
      cooldown_factor = 2.0;
      max_cooldown = 300.0;
    }
  in
  let b, at = breaker ~config () in
  ignore (trip b 0 2);
  at := 100.0;
  Alcotest.(check bool) "half-open" true (Breaker.state b 0 = Breaker.Half_open);
  (* A single failure re-opens a half-open breaker (no threshold). *)
  Alcotest.(check bool) "failed probe re-trips" true
    (Breaker.record_failure b 0);
  at := 100.0 +. 199.0;
  Alcotest.(check bool) "cooldown doubled: still open" true
    (Breaker.state b 0 = Breaker.Open);
  at := 100.0 +. 200.0;
  Alcotest.(check bool) "half-open again" true
    (Breaker.state b 0 = Breaker.Half_open);
  ignore (Breaker.record_failure b 0);
  (* 400 would exceed the cap: the third cooldown is clamped to 300. *)
  at := 300.0 +. 299.0;
  Alcotest.(check bool) "capped cooldown still open" true
    (Breaker.state b 0 = Breaker.Open);
  at := 300.0 +. 300.0;
  Alcotest.(check bool) "capped cooldown elapses" true
    (Breaker.state b 0 = Breaker.Half_open)

let test_breaker_late_ok_ignored_while_open () =
  let config = { Breaker.default_config with Breaker.threshold = 2 } in
  let b, _ = breaker ~config () in
  ignore (trip b 0 2);
  (* A reply from before the trip arrives late: must not un-trip. *)
  Breaker.record_ok b 0;
  Alcotest.(check bool) "still open" true (Breaker.state b 0 = Breaker.Open)

let test_breaker_filter () =
  let config = { Breaker.default_config with Breaker.threshold = 2 } in
  let b, at = breaker ~config ~n:4 () in
  ignore (trip b 1 2);
  ignore (trip b 3 2);
  Alcotest.(check (list int)) "open sites" [ 1; 3 ] (Breaker.open_sites b);
  let view = Bitset.create 4 in
  for i = 0 to 3 do
    Bitset.add view i
  done;
  let filtered = Breaker.filter b view in
  Alcotest.(check (list int)) "open sites removed" [ 0; 2 ]
    (Bitset.elements filtered);
  (* After cooldown the half-open sites re-enter the view as probes. *)
  at := 1e9;
  let view2 = Bitset.create 4 in
  for i = 0 to 3 do
    Bitset.add view2 i
  done;
  Alcotest.(check int) "half-open sites restored" 4
    (Bitset.cardinal (Breaker.filter b view2))

(* Regression: read-only inspection must never commit state transitions.
   [open_sites] and [state] used to route through the mutating accessor,
   so merely LOOKING at a cooled-down breaker flipped it Half_open and
   counted a probe — monitoring changed what it measured.  Now inspection
   is pure and only the traffic path ([allowed] / [record_*]) commits the
   Open -> Half_open transition. *)
let test_breaker_inspection_is_pure () =
  let config =
    { Breaker.default_config with Breaker.threshold = 2; cooldown = 100.0 }
  in
  let b, at = breaker ~config () in
  ignore (trip b 0 2);
  at := 100.0;
  (* Cooldown elapsed: N consecutive inspections all see the effective
     Half_open state and leave the probe counter untouched. *)
  for _ = 1 to 10 do
    Alcotest.(check (list int)) "open_sites sees through the cooldown" []
      (Breaker.open_sites b)
  done;
  for _ = 1 to 10 do
    Alcotest.(check bool) "state reports half-open" true
      (Breaker.state b 0 = Breaker.Half_open)
  done;
  Alcotest.(check int) "inspection counted no probes" 0 (Breaker.probes b);
  (* The first traffic-path call commits the transition: exactly one
     probe, not eleven. *)
  Alcotest.(check bool) "allowed admits the probe" true (Breaker.allowed b 0);
  Alcotest.(check int) "exactly one probe" 1 (Breaker.probes b);
  Breaker.record_ok b 0;
  Alcotest.(check bool) "probe success closes" true
    (Breaker.state b 0 = Breaker.Closed)

let test_breaker_rejects_bad_config () =
  Alcotest.check_raises "zero threshold"
    (Invalid_argument "Breaker.create: threshold < 1")
    (fun () ->
      ignore
        (Breaker.create
           ~config:{ Breaker.default_config with Breaker.threshold = 0 }
           ~n:1
           ~now:(fun () -> 0.0)
           ()))

(* -- Retry budget -------------------------------------------------------- *)

let test_budget_starts_full () =
  let b = Budget.create ~config:{ Budget.ratio = 0.2; burst = 3.0 } () in
  Alcotest.(check (float 1e-9)) "full bucket" 3.0 (Budget.tokens b);
  Alcotest.(check bool) "retry 1" true (Budget.try_retry b);
  Alcotest.(check bool) "retry 2" true (Budget.try_retry b);
  Alcotest.(check bool) "retry 3" true (Budget.try_retry b);
  Alcotest.(check bool) "bucket empty" false (Budget.try_retry b);
  Alcotest.(check int) "granted" 3 (Budget.granted b);
  Alcotest.(check int) "suppressed" 1 (Budget.suppressed b)

let test_budget_deposits_per_attempt () =
  let b = Budget.create ~config:{ Budget.ratio = 0.5; burst = 10.0 } () in
  for _ = 1 to 10 do
    ignore (Budget.try_retry b)
  done;
  Alcotest.(check (float 1e-9)) "drained" 0.0 (Budget.tokens b);
  Budget.on_attempt b;
  Alcotest.(check (float 1e-9)) "one deposit" 0.5 (Budget.tokens b);
  Alcotest.(check bool) "half a token is not enough" false
    (Budget.try_retry b);
  Budget.on_attempt b;
  Alcotest.(check bool) "two deposits buy one retry" true (Budget.try_retry b);
  Alcotest.(check int) "attempts counted" 2 (Budget.attempts b)

let test_budget_burst_cap () =
  let b = Budget.create ~config:{ Budget.ratio = 1.0; burst = 2.0 } () in
  for _ = 1 to 100 do
    Budget.on_attempt b
  done;
  Alcotest.(check (float 1e-9)) "capped at burst" 2.0 (Budget.tokens b)

let test_budget_rejects_bad_config () =
  Alcotest.check_raises "negative ratio"
    (Invalid_argument "Budget.create: negative ratio") (fun () ->
      ignore (Budget.create ~config:{ Budget.ratio = -0.1; burst = 5.0 } ()));
  Alcotest.check_raises "burst below one"
    (Invalid_argument "Budget.create: burst < 1") (fun () ->
      ignore (Budget.create ~config:{ Budget.ratio = 0.2; burst = 0.5 } ()))

(* -- Heartbeat monitor -------------------------------------------------- *)

(* A monitor over [n] fake replicas: pings are counted per destination and
   answered (observe) after [rtt] unless the site is in [down]. *)
let monitor_setup ?(n = 3) ?(rtt = 1.0) () =
  let engine = Engine.create ~seed:1 () in
  let down = Array.make n false in
  let pings = Array.make n 0 in
  let hb = ref None in
  let send_ping dst =
    pings.(dst) <- pings.(dst) + 1;
    if not down.(dst) then
      Engine.schedule engine ~delay:rtt (fun () ->
          Heartbeat.observe (Option.get !hb) ~site:dst)
  in
  let config = { Heartbeat.period = 5.0 } in
  hb := Some (Heartbeat.create ~engine ~n ~config ~send_ping ());
  (engine, Option.get !hb, down, pings)

let test_heartbeat_pings_on_period () =
  let engine, hb, _, pings = monitor_setup () in
  Engine.run ~until:51.0 engine;
  Heartbeat.stop hb;
  (* Ticks at t = 0, 5, …, 50: 11 pings per site. *)
  Array.iteri
    (fun site c -> Alcotest.(check int) (Printf.sprintf "site %d" site) 11 c)
    pings;
  Alcotest.(check int) "pings_sent totals" 33 (Heartbeat.pings_sent hb)

let test_heartbeat_detects_and_rehabilitates () =
  let engine, hb, down, _ = monitor_setup () in
  Engine.run ~until:100.0 engine;
  Alcotest.(check bool) "healthy site trusted" false
    (Heartbeat.suspected hb ~site:1);
  down.(1) <- true;
  Engine.run ~until:200.0 engine;
  Alcotest.(check bool) "silent site suspected" true
    (Heartbeat.suspected hb ~site:1);
  Alcotest.(check bool) "others unaffected" false
    (Heartbeat.suspected hb ~site:0 || Heartbeat.suspected hb ~site:2);
  down.(1) <- false;
  Engine.run ~until:220.0 engine;
  Heartbeat.stop hb;
  Alcotest.(check bool) "rehabilitated after recovery" false
    (Heartbeat.suspected hb ~site:1)

let test_heartbeat_explicit_suspicion_sticky () =
  let engine, hb, down, _ = monitor_setup () in
  down.(2) <- true;
  (* Protocol-level negative evidence arrives before accrual would fire. *)
  Heartbeat.suspect hb ~site:2;
  Alcotest.(check bool) "suspect is immediate" true
    (Heartbeat.suspected hb ~site:2);
  let view = Heartbeat.view hb in
  Alcotest.(check bool) "view excludes it" false
    (Bitset.mem (view.View.alive ()) 2);
  down.(2) <- false;
  Engine.run ~until:20.0 engine;
  Heartbeat.stop hb;
  (* The next pong rehabilitates: sticky only while silent. *)
  Alcotest.(check bool) "cleared by proof of life" false
    (Heartbeat.suspected hb ~site:2);
  Alcotest.(check bool) "view includes it again" true
    (Bitset.mem (view.View.alive ()) 2)

let test_heartbeat_stop () =
  let engine, hb, _, pings = monitor_setup ~n:1 () in
  Engine.run ~until:20.0 engine;
  Heartbeat.stop hb;
  let before = pings.(0) in
  Engine.run ~until:100.0 engine;
  Alcotest.(check int) "no pings after stop" before pings.(0);
  Alcotest.(check int) "engine drained" 0 (Engine.pending engine)

(* -- Views -------------------------------------------------------------- *)

let test_oracle_tracks_ground_truth () =
  let engine = Engine.create ~seed:1 () in
  (* 4 replicas + 1 client site; the view covers only the replicas. *)
  let net = Network.create ~engine ~n:5 () in
  Network.set_handler net ~site:4 (fun ~src:_ () -> ());
  let v = View.oracle ~net ~self:4 ~n:4 in
  Alcotest.(check int) "replica universe only" 4
    (Bitset.capacity (v.View.alive ()));
  Alcotest.(check int) "all up initially" 4
    (Bitset.cardinal (v.View.alive ()));
  Network.crash net 2;
  Alcotest.(check bool) "crash visible instantly" false
    (Bitset.mem (v.View.alive ()) 2);
  Network.recover net 2;
  Network.partition net [ [ 0; 1 ] ];
  let alive = v.View.alive () in
  Alcotest.(check bool) "partitioned minority unreachable" false
    (Bitset.mem alive 0 || Bitset.mem alive 1);
  Alcotest.(check bool) "own side reachable" true
    (Bitset.mem alive 2 && Bitset.mem alive 3);
  Network.heal net;
  Alcotest.(check int) "heal restores" 4 (Bitset.cardinal (v.View.alive ()))

let suite =
  [
    Alcotest.test_case "accrual: bootstrap grace" `Quick test_bootstrap_grace;
    Alcotest.test_case "accrual: phi grows with silence" `Quick
      test_phi_grows_with_silence;
    Alcotest.test_case "accrual: one heartbeat rehabilitates" `Quick
      test_rehabilitation;
    Alcotest.test_case "accrual: outage gap clamped" `Quick test_outage_clamp;
    Alcotest.test_case "accrual: stale evidence ignored" `Quick
      test_out_of_order_evidence;
    Alcotest.test_case "accrual: bad site rejected" `Quick
      test_accrual_bad_site;
    Alcotest.test_case "rto: initial until enough samples" `Quick
      test_rto_initial;
    Alcotest.test_case "rto: tracks observed RTT" `Quick test_rto_adapts;
    Alcotest.test_case "rto: clamped to band" `Quick test_rto_clamps;
    Alcotest.test_case "rto: non-positive samples dropped" `Quick
      test_rto_ignores_garbage;
    QCheck_alcotest.to_alcotest prop_rto_matches_reference;
    Alcotest.test_case "rto: observe+timeout allocation-free" `Quick
      test_rto_allocation_free;
    Alcotest.test_case "backoff: geometric growth, capped" `Quick
      test_backoff_growth;
    Alcotest.test_case "backoff: jitter stays in bounds" `Quick
      test_backoff_jitter_bounds;
    Alcotest.test_case "backoff: deterministic per seed" `Quick
      test_backoff_deterministic;
    Alcotest.test_case "backoff: absurd attempt counts stay capped" `Quick
      test_backoff_huge_attempt_capped;
    Alcotest.test_case "breaker: trips on threshold" `Quick
      test_breaker_trips_on_threshold;
    Alcotest.test_case "breaker: success resets streak" `Quick
      test_breaker_ok_resets_streak;
    Alcotest.test_case "breaker: half-opens and closes" `Quick
      test_breaker_half_open_and_close;
    Alcotest.test_case "breaker: failed probe grows cooldown" `Quick
      test_breaker_failed_probe_grows_cooldown;
    Alcotest.test_case "breaker: late ok ignored while open" `Quick
      test_breaker_late_ok_ignored_while_open;
    Alcotest.test_case "breaker: filter removes open sites" `Quick
      test_breaker_filter;
    Alcotest.test_case "breaker: inspection is pure" `Quick
      test_breaker_inspection_is_pure;
    Alcotest.test_case "breaker: rejects bad config" `Quick
      test_breaker_rejects_bad_config;
    Alcotest.test_case "budget: starts full, drains, suppresses" `Quick
      test_budget_starts_full;
    Alcotest.test_case "budget: attempts deposit fractions" `Quick
      test_budget_deposits_per_attempt;
    Alcotest.test_case "budget: deposits capped at burst" `Quick
      test_budget_burst_cap;
    Alcotest.test_case "budget: rejects bad config" `Quick
      test_budget_rejects_bad_config;
    Alcotest.test_case "heartbeat: pings on period" `Quick
      test_heartbeat_pings_on_period;
    Alcotest.test_case "heartbeat: detects silence, rehabilitates" `Quick
      test_heartbeat_detects_and_rehabilitates;
    Alcotest.test_case "heartbeat: explicit suspicion sticky" `Quick
      test_heartbeat_explicit_suspicion_sticky;
    Alcotest.test_case "heartbeat: stop drains" `Quick test_heartbeat_stop;
    Alcotest.test_case "view: oracle tracks ground truth" `Quick
      test_oracle_tracks_ground_truth;
  ]
