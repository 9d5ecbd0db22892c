module Latency = Dsim.Latency
module Presets = Workload.Presets
module Rng = Dsutil.Rng

let sample model rng =
  let slot = Float.Array.make 1 nan in
  Latency.sample_into model rng slot;
  Float.Array.get slot 0

(* The draw is rebuilt from [Rng.bits53]; it must equal the same
   transform of [Rng.float] bit for bit, on the same stream. *)
let test_draws_match_rng_float () =
  let check model reference =
    let a = Rng.create 11 in
    let b = Rng.copy a in
    for _ = 1 to 10_000 do
      let got = sample model a and want = reference b in
      if Int64.bits_of_float got <> Int64.bits_of_float want then
        Alcotest.failf "draw %h, want %h" got want
    done
  in
  check (Latency.Uniform (0.2, 0.9)) (fun rng -> 0.2 +. Rng.float rng (0.9 -. 0.2));
  check (Latency.Exponential 1.5) (fun rng ->
      let u = Rng.float rng 1.0 in
      let u = if u <= 0.0 then 1e-300 else u in
      (0.1 *. 1.5) +. (-1.5 *. log u))

let test_constant () =
  let rng = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check (float 1e-9)) "constant" 3.0
      (sample (Latency.Constant 3.0) rng)
  done;
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Latency.mean (Latency.Constant 3.0))

let test_uniform_bounds () =
  let rng = Rng.create 2 in
  let model = Latency.Uniform (2.0, 5.0) in
  for _ = 1 to 10_000 do
    let v = sample model rng in
    Alcotest.(check bool) "in bounds" true (v >= 2.0 && v < 5.0)
  done;
  Alcotest.(check (float 1e-9)) "mean" 3.5 (Latency.mean model)

let test_exponential_positive_mean () =
  let rng = Rng.create 3 in
  let model = Latency.Exponential 2.0 in
  let total = ref 0.0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    let v = sample model rng in
    Alcotest.(check bool) "strictly positive" true (v > 0.0);
    total := !total +. v
  done;
  let mean = !total /. float_of_int trials in
  Alcotest.(check bool) "empirical mean near model mean" true
    (abs_float (mean -. Latency.mean model) < 0.1)

let test_latency_pp () =
  List.iter
    (fun (m, expected) ->
      Alcotest.(check string) "pp" expected (Format.asprintf "%a" Latency.pp m))
    [
      (Latency.Constant 1.0, "constant(1.00)");
      (Latency.Uniform (1.0, 2.0), "uniform(1.00, 2.00)");
      (Latency.Exponential 3.0, "exponential(3.00)");
    ]

let test_presets_lookup () =
  Alcotest.(check int) "four presets" 4 (List.length Presets.all);
  (match Presets.by_name "READ-MOSTLY" with
  | Some p ->
    Alcotest.(check (float 1e-9)) "read fraction" 0.95 p.Presets.read_fraction
  | None -> Alcotest.fail "case-insensitive lookup failed");
  Alcotest.(check bool) "unknown -> None" true (Presets.by_name "nope" = None)

let test_presets_sane () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p.Presets.name ^ " fraction in range")
        true
        (p.Presets.read_fraction >= 0.0 && p.Presets.read_fraction <= 1.0);
      Alcotest.(check bool)
        (p.Presets.name ^ " theta in range")
        true
        (p.Presets.zipf_theta >= 0.0 && p.Presets.zipf_theta <= 2.0);
      (* Every preset must be accepted by the generator. *)
      let gen =
        Workload.Generator.create ~rng:(Rng.create 7)
          ~read_fraction:p.Presets.read_fraction
          ~keys:(Workload.Zipf.create ~n:4 ~theta:p.Presets.zipf_theta)
      in
      ignore (Workload.Generator.next gen))
    Presets.all

let test_read_only_preset_generates_no_writes () =
  let p = Presets.read_only in
  let gen =
    Workload.Generator.create ~rng:(Rng.create 9)
      ~read_fraction:p.Presets.read_fraction
      ~keys:(Workload.Zipf.create ~n:4 ~theta:p.Presets.zipf_theta)
  in
  for _ = 1 to 1000 do
    match Workload.Generator.next gen with
    | Workload.Generator.Read _ -> ()
    | Workload.Generator.Write _ -> Alcotest.fail "read-only preset wrote"
  done

let suite =
  [
    Alcotest.test_case "constant latency" `Quick test_constant;
    Alcotest.test_case "uniform latency bounds" `Quick test_uniform_bounds;
    Alcotest.test_case "exponential latency" `Quick test_exponential_positive_mean;
    Alcotest.test_case "draws match Rng.float" `Quick test_draws_match_rng_float;
    Alcotest.test_case "latency pretty-printing" `Quick test_latency_pp;
    Alcotest.test_case "preset lookup" `Quick test_presets_lookup;
    Alcotest.test_case "presets are sane" `Quick test_presets_sane;
    Alcotest.test_case "read-only preset" `Quick
      test_read_only_preset_generates_no_writes;
  ]
