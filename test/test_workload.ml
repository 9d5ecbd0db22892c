module Zipf = Workload.Zipf
module Generator = Workload.Generator
module Rng = Dsutil.Rng

let test_zipf_uniform () =
  let z = Zipf.create ~n:4 ~theta:0.0 in
  for i = 0 to 3 do
    Alcotest.(check bool) "uniform pmf" true (abs_float (Zipf.pmf z i -. 0.25) < 1e-9)
  done

let test_zipf_skew () =
  let z = Zipf.create ~n:100 ~theta:1.0 in
  Alcotest.(check bool) "head heavier than tail" true
    (Zipf.pmf z 0 > 10.0 *. Zipf.pmf z 99);
  let total = ref 0.0 in
  for i = 0 to 99 do
    total := !total +. Zipf.pmf z i
  done;
  Alcotest.(check bool) "pmf sums to 1" true (abs_float (!total -. 1.0) < 1e-9)

let test_zipf_sampling_matches_pmf () =
  let z = Zipf.create ~n:10 ~theta:0.9 in
  let rng = Rng.create 61 in
  let counts = Array.make 10 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let k = Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  for i = 0 to 9 do
    let observed = float_of_int counts.(i) /. float_of_int trials in
    Alcotest.(check bool)
      (Printf.sprintf "key %d frequency" i)
      true
      (abs_float (observed -. Zipf.pmf z i) < 0.01)
  done

let test_zipf_validation () =
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create: need at least one key")
    (fun () -> ignore (Zipf.create ~n:0 ~theta:1.0));
  Alcotest.check_raises "theta" (Invalid_argument "Zipf.create: theta out of [0,2]")
    (fun () -> ignore (Zipf.create ~n:5 ~theta:3.0));
  (* NaN passes no comparison, so a check written [x < lo || x > hi] let
     it through and every cdf entry but the last came out NaN. *)
  Alcotest.check_raises "NaN theta" (Invalid_argument "Zipf.create: theta out of [0,2]")
    (fun () -> ignore (Zipf.create ~n:5 ~theta:Float.nan))

(* The table as it was first built: [Array.init] weights, a [fold_left]
   total and a running sum, in key order.  The loop version must
   reproduce it bit for bit, or every seeded run would move. *)
let reference_cdf ~n ~theta =
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  cdf.(n - 1) <- 1.0;
  cdf

let test_zipf_cdf_bit_identical () =
  List.iter
    (fun (n, theta) ->
      let z = Zipf.create ~n ~theta and reference = reference_cdf ~n ~theta in
      for i = 0 to n - 1 do
        if Int64.bits_of_float (Zipf.cdf z i) <> Int64.bits_of_float reference.(i) then
          Alcotest.failf "n=%d theta=%g: cdf.(%d) = %h, reference %h" n theta i
            (Zipf.cdf z i) reference.(i)
      done)
    [ (1, 0.0); (4, 0.0); (100, 1.0); (16384, 0.99) ]

(* The table is one flat float array, which at this size goes straight to
   the major heap: building it allocates a constant number of minor
   words, not one box per key. *)
let test_zipf_create_allocation () =
  ignore (Zipf.create ~n:16384 ~theta:0.99);
  let w0 = Gc.minor_words () in
  let z = Zipf.create ~n:16384 ~theta:0.99 in
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity z);
  if words > 16.0 then Alcotest.failf "16,384-key table: %.0f minor words" words

let test_generator_mix () =
  let gen =
    Generator.create ~rng:(Rng.create 67) ~read_fraction:0.7
      ~keys:(Zipf.create ~n:4 ~theta:0.0)
  in
  let reads = ref 0 and writes = ref 0 in
  for _ = 1 to 50_000 do
    match Generator.next gen with
    | Generator.Read _ -> incr reads
    | Generator.Write _ -> incr writes
  done;
  let frac = float_of_int !reads /. 50_000.0 in
  Alcotest.(check bool) "read fraction respected" true (abs_float (frac -. 0.7) < 0.01)

let test_generator_payload_unique () =
  let gen =
    Generator.create ~rng:(Rng.create 71) ~read_fraction:0.0
      ~keys:(Zipf.create ~n:2 ~theta:0.0)
  in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 1000 do
    match Generator.next gen with
    | Generator.Write (_, payload) ->
      Alcotest.(check bool) "unique payload" false (Hashtbl.mem seen payload);
      Hashtbl.replace seen payload ()
    | Generator.Read _ -> Alcotest.fail "read_fraction 0 yields writes only"
  done

let test_generator_keys_in_range () =
  let gen =
    Generator.create ~rng:(Rng.create 73) ~read_fraction:0.5
      ~keys:(Zipf.create ~n:3 ~theta:0.0)
  in
  for _ = 1 to 1000 do
    let key =
      match Generator.next gen with
      | Generator.Read k | Generator.Write (k, _) -> k
    in
    Alcotest.(check bool) "in range" true (key >= 0 && key < 3)
  done

let test_generator_validation () =
  let keys = Zipf.create ~n:2 ~theta:0.0 in
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Generator.create: read_fraction out of [0,1]") (fun () ->
      ignore (Generator.create ~rng:(Rng.create 1) ~read_fraction:1.5 ~keys));
  (* A NaN fraction made every op a write: no draw is below NaN. *)
  Alcotest.check_raises "NaN fraction"
    (Invalid_argument "Generator.create: read_fraction out of [0,1]") (fun () ->
      ignore (Generator.create ~rng:(Rng.create 1) ~read_fraction:Float.nan ~keys))

let suite =
  [
    Alcotest.test_case "zipf uniform" `Quick test_zipf_uniform;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf sampling matches pmf" `Quick
      test_zipf_sampling_matches_pmf;
    Alcotest.test_case "zipf validation" `Quick test_zipf_validation;
    Alcotest.test_case "zipf cdf bit-identical to the reference" `Quick
      test_zipf_cdf_bit_identical;
    Alcotest.test_case "zipf table allocates O(1) minor words" `Quick
      test_zipf_create_allocation;
    Alcotest.test_case "generator mix" `Quick test_generator_mix;
    Alcotest.test_case "generator payload uniqueness" `Quick
      test_generator_payload_unique;
    Alcotest.test_case "generator keys in range" `Quick test_generator_keys_in_range;
    Alcotest.test_case "generator validation" `Quick test_generator_validation;
  ]
