module Stats = Dsutil.Stats

let feq ?(eps = 1e-9) a b = abs_float (a -. b) < eps

let test_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.count s);
  Alcotest.(check bool) "mean" true (feq (Stats.mean s) 2.5);
  Alcotest.(check bool) "total" true (feq (Stats.total s) 10.0);
  Alcotest.(check bool) "min" true (feq (Stats.min_value s) 1.0);
  Alcotest.(check bool) "max" true (feq (Stats.max_value s) 4.0);
  (* Unbiased variance of 1..4 is 5/3. *)
  Alcotest.(check bool) "variance" true (feq (Stats.variance s) (5.0 /. 3.0))

let test_empty () =
  let s = Stats.create () in
  Alcotest.(check bool) "mean 0" true (feq (Stats.mean s) 0.0);
  Alcotest.(check bool) "variance 0" true (feq (Stats.variance s) 0.0);
  Alcotest.check_raises "percentile raises"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile s 0.5));
  (* Regression: these used to leak the ±infinity init sentinels. *)
  Alcotest.check_raises "min_value raises"
    (Invalid_argument "Stats.min_value: empty") (fun () ->
      ignore (Stats.min_value s));
  Alcotest.check_raises "max_value raises"
    (Invalid_argument "Stats.max_value: empty") (fun () ->
      ignore (Stats.max_value s))

(* Regression: q = 0.0 used to compute nearest-rank index -1 and rely on
   clamping; it must map straight to the minimum, even with one sample. *)
let test_percentile_zero () =
  let s = Stats.create () in
  Stats.add s 42.0;
  Alcotest.(check bool) "singleton p0" true (feq (Stats.percentile s 0.0) 42.0);
  Stats.add s 7.0;
  Alcotest.(check bool) "p0 = min" true
    (feq (Stats.percentile s 0.0) (Stats.min_value s));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Stats.percentile: q out of range") (fun () ->
      ignore (Stats.percentile s (-0.1)))

let test_percentiles () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  Alcotest.(check bool) "p50" true (feq (Stats.percentile s 0.5) 50.0);
  Alcotest.(check bool) "p99" true (feq (Stats.percentile s 0.99) 99.0);
  Alcotest.(check bool) "p100" true (feq (Stats.percentile s 1.0) 100.0);
  Alcotest.(check bool) "p0 is min" true (feq (Stats.percentile s 0.0) 1.0)

let test_percentile_after_add () =
  (* The sorted cache must be invalidated by add. *)
  let s = Stats.create () in
  Stats.add s 10.0;
  ignore (Stats.percentile s 0.5);
  Stats.add s 1.0;
  Alcotest.(check bool) "p0 updated" true (feq (Stats.percentile s 0.0) 1.0)

let test_welford_matches_naive () =
  let rng = Dsutil.Rng.create 37 in
  let xs = List.init 1000 (fun _ -> Dsutil.Rng.float rng 100.0) in
  let s = Stats.create () in
  List.iter (Stats.add s) xs;
  Alcotest.(check bool) "mean matches" true
    (feq ~eps:1e-6 (Stats.mean s) (Stats.mean_of xs));
  Alcotest.(check bool) "stddev matches" true
    (feq ~eps:1e-6 (Stats.stddev s) (Stats.stddev_of xs))

let test_merge () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.0; 2.0 ];
  List.iter (Stats.add b) [ 3.0; 4.0 ];
  let m = Stats.merge a b in
  Alcotest.(check int) "merged count" 4 (Stats.count m);
  Alcotest.(check bool) "merged mean" true (feq (Stats.mean m) 2.5)

(* One pass equals the pairwise fold, float state included: merged
   latencies in reports and fingerprints stay bit-identical. *)
let test_merge_all_equals_fold () =
  let rng = Dsutil.Rng.create 9 in
  let parts =
    List.init 5 (fun k ->
        let s = Stats.create () in
        for _ = 1 to 3 * k do
          Stats.add s (Dsutil.Rng.float rng 10.0)
        done;
        s)
  in
  let fold = List.fold_left Stats.merge (Stats.create ()) parts in
  let all = Stats.merge_all parts in
  Alcotest.(check int) "count" (Stats.count fold) (Stats.count all);
  Alcotest.(check bool) "mean bit-identical" true (Stats.mean fold = Stats.mean all);
  Alcotest.(check bool) "variance bit-identical" true
    (Stats.variance fold = Stats.variance all);
  List.iter
    (fun q ->
      Alcotest.(check bool) "percentile" true
        (Stats.percentile fold q = Stats.percentile all q))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_ci95_shrinks () =
  let wide = Stats.create () and narrow = Stats.create () in
  let rng = Dsutil.Rng.create 41 in
  for _ = 1 to 50 do
    Stats.add wide (Dsutil.Rng.float rng 10.0)
  done;
  for _ = 1 to 5000 do
    Stats.add narrow (Dsutil.Rng.float rng 10.0)
  done;
  Alcotest.(check bool) "more samples, tighter CI" true
    (Stats.ci95 narrow < Stats.ci95 wide)

let suite =
  [
    Alcotest.test_case "basic moments" `Quick test_basic;
    Alcotest.test_case "empty accumulator" `Quick test_empty;
    Alcotest.test_case "percentile q=0" `Quick test_percentile_zero;
    Alcotest.test_case "percentiles" `Quick test_percentiles;
    Alcotest.test_case "percentile cache invalidation" `Quick
      test_percentile_after_add;
    Alcotest.test_case "welford matches naive" `Quick test_welford_matches_naive;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "merge_all equals the merge fold" `Quick
      test_merge_all_equals_fold;
    Alcotest.test_case "ci95 shrinks with samples" `Quick test_ci95_shrinks;
  ]
