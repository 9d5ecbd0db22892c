module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng
module Tree = Arbitrary.Tree
module Quorums = Arbitrary.Quorums
module Quorum_set = Quorum.Quorum_set
module Protocol = Quorum.Protocol

let fig1 = Tree.figure1 ()

let test_read_quorum_shape () =
  let rng = Rng.create 3 in
  let alive = Protocol.all_alive (Quorums.protocol fig1) in
  for _ = 1 to 50 do
    match Quorums.read_quorum fig1 ~alive ~rng with
    | None -> Alcotest.fail "failure-free read quorum must exist"
    | Some q ->
      Alcotest.(check int) "one per physical level" 2 (Bitset.cardinal q);
      let levels =
        List.map (Tree.level_of_replica fig1) (Bitset.elements q)
        |> List.sort_uniq compare
      in
      Alcotest.(check (list int)) "covers K_phy" [ 1; 2 ] levels
  done

let test_write_quorum_shape () =
  let rng = Rng.create 5 in
  let alive = Protocol.all_alive (Quorums.protocol fig1) in
  for _ = 1 to 50 do
    match Quorums.write_quorum fig1 ~alive ~rng with
    | None -> Alcotest.fail "failure-free write quorum must exist"
    | Some q ->
      let size = Bitset.cardinal q in
      Alcotest.(check bool) "full level (3 or 5)" true (size = 3 || size = 5);
      let level = Tree.level_of_replica fig1 (List.hd (Bitset.elements q)) in
      Alcotest.(check (array int))
        "exactly that level's replicas"
        (Tree.replicas_at fig1 level)
        (Array.of_list (Bitset.elements q))
  done

let test_quorum_counts_facts () =
  (* Fact 3.2.1: m(R) = prod m_phy k = 15; Fact 3.2.2: m(W) = |K_phy| = 2. *)
  Alcotest.(check int) "m(R)" 15
    (List.length (List.of_seq (Quorums.enumerate_read_quorums fig1)));
  Alcotest.(check int) "m(W)" 2
    (List.length (List.of_seq (Quorums.enumerate_write_quorums fig1)))

let test_write_quorum_of_level () =
  let q = Quorums.write_quorum_of_level fig1 ~level:1 in
  Alcotest.(check (list int)) "level 1" [ 0; 1; 2 ] (Bitset.elements q);
  Alcotest.check_raises "logical level rejected"
    (Invalid_argument "Quorums.write_quorum_of_level: logical level") (fun () ->
      ignore (Quorums.write_quorum_of_level fig1 ~level:0))

let test_read_blocked_by_dead_level () =
  let rng = Rng.create 7 in
  (* Kill all of level 1: reads must fail, writes can still use level 2. *)
  let alive = Bitset.of_list 8 [ 3; 4; 5; 6; 7 ] in
  Alcotest.(check bool) "read blocked" true
    (Quorums.read_quorum fig1 ~alive ~rng = None);
  Alcotest.(check bool) "write ok via level 2" true
    (Quorums.write_quorum fig1 ~alive ~rng <> None)

let test_write_blocked_without_full_level () =
  let rng = Rng.create 9 in
  (* One dead replica in each level: writes fail, reads survive. *)
  let alive = Bitset.of_list 8 [ 1; 2; 4; 5; 6; 7 ] in
  Alcotest.(check bool) "write blocked" true
    (Quorums.write_quorum fig1 ~alive ~rng = None);
  Alcotest.(check bool) "read ok" true (Quorums.read_quorum fig1 ~alive ~rng <> None)

(* --- the paper's bicoterie theorem, property-tested over random trees --- *)

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

let arb_tree =
  QCheck.make tree_gen ~print:(fun t -> Tree.to_spec t)

let prop_bicoterie =
  QCheck.Test.make ~name:"read/write quorums form a bicoterie (any tree)"
    ~count:100 arb_tree (fun tree ->
      let reads = List.of_seq (Quorums.enumerate_read_quorums tree) in
      let writes = List.of_seq (Quorums.enumerate_write_quorums tree) in
      List.for_all
        (fun r -> List.for_all (fun w -> Bitset.intersects r w) writes)
        reads)

let prop_quorum_counts =
  QCheck.Test.make ~name:"Facts 3.2.1/3.2.2: m(R) and m(W)" ~count:100 arb_tree
    (fun tree ->
      let m_r = List.length (List.of_seq (Quorums.enumerate_read_quorums tree)) in
      let m_w = List.length (List.of_seq (Quorums.enumerate_write_quorums tree)) in
      float_of_int m_r = Arbitrary.Analysis.num_read_quorums tree
      && m_w = Arbitrary.Analysis.num_write_quorums tree)

let prop_assembly_complete =
  QCheck.Test.make
    ~name:"assembly returns a quorum iff one survives (any tree, any pattern)"
    ~count:100
    (QCheck.pair arb_tree QCheck.(int_bound 1000))
    (fun (tree, seed) ->
      let rng = Rng.create seed in
      let n = Tree.n tree in
      let alive = Quorum.Availability.random_alive rng ~n ~p:0.6 in
      let reads = Quorum_set.create ~universe:n
          (List.of_seq (Quorums.enumerate_read_quorums tree)) in
      let writes = Quorum_set.create ~universe:n
          (List.of_seq (Quorums.enumerate_write_quorums tree)) in
      let read_ok = Quorums.read_quorum tree ~alive ~rng <> None in
      let write_ok = Quorums.write_quorum tree ~alive ~rng <> None in
      read_ok = Quorum_set.can_form_within reads ~alive
      && write_ok = Quorum_set.can_form_within writes ~alive)

let suite =
  [
    Alcotest.test_case "read quorum shape" `Quick test_read_quorum_shape;
    Alcotest.test_case "write quorum shape" `Quick test_write_quorum_shape;
    Alcotest.test_case "quorum counts (Facts 3.2.1/3.2.2)" `Quick
      test_quorum_counts_facts;
    Alcotest.test_case "write_quorum_of_level" `Quick test_write_quorum_of_level;
    Alcotest.test_case "dead level blocks reads only" `Quick
      test_read_blocked_by_dead_level;
    Alcotest.test_case "no full level blocks writes only" `Quick
      test_write_blocked_without_full_level;
    QCheck_alcotest.to_alcotest prop_bicoterie;
    QCheck_alcotest.to_alcotest prop_quorum_counts;
    QCheck_alcotest.to_alcotest prop_assembly_complete;
  ]
