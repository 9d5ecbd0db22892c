module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng
module Tree = Arbitrary.Tree
module Quorums = Arbitrary.Quorums
module Plan_cache = Arbitrary.Plan_cache
module Baseline = Eval.Baseline
module Config = Arbitrary.Config

(* The cache promises more than equal quorums: it must consume the rng
   identically to the reference assembly, so that swapping it into the
   protocol leaves every downstream seeded simulation byte-identical.
   Each check therefore compares both the returned quorum and the rng
   state afterwards (via an extra draw). *)

let same_quorum a b =
  match (a, b) with
  | None, None -> true
  | Some qa, Some qb -> Bitset.equal qa qb
  | _ -> false

let same_draw rng_a rng_b = Rng.int rng_a 1_000_000 = Rng.int rng_b 1_000_000

let tree_gen =
  QCheck.Gen.(
    let level = int_range 1 5 in
    let* n_levels = int_range 1 4 in
    let* sizes = list_repeat n_levels level in
    let* logical_root = bool in
    return
      (Tree.create
         ((if logical_root then [ (0, 1) ] else [])
         @ List.map (fun s -> (s, 0)) sizes)))

let arb_tree = QCheck.make tree_gen ~print:(fun t -> Tree.to_spec t)

let full_universe n =
  let s = Bitset.create n in
  for i = 0 to n - 1 do
    Bitset.add s i
  done;
  s

let alive_patterns tree seed =
  let n = Tree.n tree in
  let rng = Rng.create seed in
  [
    full_universe n;
    (* exercises the fast path *)
    Quorum.Availability.random_alive rng ~n ~p:0.6;
    Quorum.Availability.random_alive rng ~n ~p:0.2;
    Bitset.create n;
    (* nothing alive: both must answer None without desync *)
  ]

let equiv_prop ~name reference cached =
  QCheck.Test.make ~name ~count:200
    (QCheck.pair arb_tree QCheck.(int_bound 10_000))
    (fun (tree, seed) ->
      let plan = Plan_cache.create tree in
      List.for_all
        (fun alive ->
          let rng_a = Rng.create (seed + 1) in
          let rng_b = Rng.create (seed + 1) in
          let a = reference tree ~alive ~rng:rng_a in
          let b = cached plan ~alive ~rng:rng_b in
          same_quorum a b && same_draw rng_a rng_b)
        (alive_patterns tree seed))

let prop_read_equiv =
  equiv_prop ~name:"plan cache: read quorums and rng draws match reference"
    Quorums.read_quorum Plan_cache.read_quorum

let prop_write_equiv =
  equiv_prop ~name:"plan cache: write quorums and rng draws match reference"
    Quorums.write_quorum Plan_cache.write_quorum

let test_fork_independent () =
  let tree = Tree.figure1 () in
  let plan = Plan_cache.create tree in
  let twin = Plan_cache.fork plan in
  Alcotest.(check bool) "same tree" true (Plan_cache.tree twin == tree);
  (* Degraded assembly uses the scratch buffers; interleaving calls on
     the two instances must not cross-contaminate results. *)
  let n = Tree.n tree in
  let alive = Bitset.of_list n [ 1; 2; 4; 5; 6; 7 ] in
  let rng_a = Rng.create 3 and rng_b = Rng.create 3 in
  let a = Plan_cache.read_quorum plan ~alive ~rng:rng_a in
  let b = Plan_cache.read_quorum twin ~alive ~rng:rng_b in
  Alcotest.(check bool) "identical results" true (same_quorum a b)

(* The cached protocol is what the harness runs: replaying the first
   BENCH_baseline.json case must reproduce the checked-in golden counters
   exactly (seed 42, n snapped to 31), proving the cache changed no
   simulation outcome. *)
let test_baseline_golden_counters () =
  let row = Baseline.measure Config.Unmodified ~reads:4000 ~writes:8000 in
  Alcotest.(check string) "case" "UNMODIFIED" row.Baseline.case_name;
  Alcotest.(check int) "n" 31 row.Baseline.n;
  let r = row.Baseline.reads and w = row.Baseline.writes in
  Alcotest.(check int) "reads ok" 4000 r.Baseline.ok;
  Alcotest.(check int) "reads failed" 0 r.Baseline.failed;
  Alcotest.(check int) "read spans started" 4000 r.Baseline.spans_started;
  Alcotest.(check int) "read spans closed" 4000 r.Baseline.spans_closed;
  Alcotest.(check int) "read spans open" 0 r.Baseline.spans_open;
  Alcotest.(check (float 1e-9)) "read load" 1.0 r.Baseline.measured_load;
  Alcotest.(check int) "writes ok" 8000 w.Baseline.ok;
  Alcotest.(check int) "write retries" 0 w.Baseline.retries;
  Alcotest.(check (float 1e-9)) "write load" 0.203 w.Baseline.measured_load

let suite =
  [
    QCheck_alcotest.to_alcotest prop_read_equiv;
    QCheck_alcotest.to_alcotest prop_write_equiv;
    Alcotest.test_case "fork isolates scratch state" `Quick
      test_fork_independent;
    Alcotest.test_case "baseline golden counters (BENCH_baseline.json)" `Slow
      test_baseline_golden_counters;
  ]
