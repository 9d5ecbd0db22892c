(* Cross-module property tests: the paper's analytic claims checked against
   independent machinery (LP solver, exhaustive enumeration, Monte-Carlo,
   full protocol execution) over randomly generated trees. *)

module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng
module Tree = Arbitrary.Tree
module Quorums = Arbitrary.Quorums
module Quorum_set = Quorum.Quorum_set

(* Small random trees: 1-3 physical levels of 1-4 replicas, optional
   logical root; m(R) stays small enough to enumerate and feed the LP. *)
let tree_gen =
  QCheck.Gen.(
    let* n_levels = int_range 1 3 in
    let* sizes = list_repeat n_levels (int_range 1 4) in
    let* logical_root = bool in
    return
      (Tree.create
         ((if logical_root then [ (0, 1) ] else [])
         @ List.map (fun s -> (s, 0)) sizes)))

let arb_tree = QCheck.make tree_gen ~print:Tree.to_spec

let read_set tree =
  Quorum_set.create ~universe:(Tree.n tree)
    (List.of_seq (Quorums.enumerate_read_quorums tree))

let write_set tree =
  Quorum_set.create ~universe:(Tree.n tree)
    (List.of_seq (Quorums.enumerate_write_quorums tree))

let prop_lp_load_matches_appendix =
  QCheck.Test.make
    ~name:"LP optimum = appendix closed forms (1/d reads, 1/|K_phy| writes)"
    ~count:40 arb_tree (fun tree ->
      let lp_read = Analysis.Load_lp.optimal_load (read_set tree) in
      let lp_write = Analysis.Load_lp.optimal_load (write_set tree) in
      abs_float (lp_read -. Arbitrary.Analysis.read_load tree) < 1e-6
      && abs_float (lp_write -. Arbitrary.Analysis.write_load tree) < 1e-6)

let prop_availability_matches_enumeration =
  QCheck.Test.make
    ~name:"closed-form availabilities = exhaustive pattern enumeration"
    ~count:25
    (QCheck.pair arb_tree (QCheck.int_range 50 90))
    (fun (tree, p100) ->
      let p = float_of_int p100 /. 100.0 in
      let n = Tree.n tree in
      QCheck.assume (n <= 10);
      let rng = Rng.create 7 in
      let exact_rd =
        Quorum.Availability.exact ~n ~p (fun ~alive ->
            Quorums.read_quorum tree ~alive ~rng <> None)
      in
      let exact_wr =
        Quorum.Availability.exact ~n ~p (fun ~alive ->
            Quorums.write_quorum tree ~alive ~rng <> None)
      in
      abs_float (exact_rd -. Arbitrary.Analysis.read_availability tree ~p) < 1e-9
      && abs_float (exact_wr -. Arbitrary.Analysis.write_availability tree ~p)
         < 1e-9)

let prop_witnesses_certify_loads =
  QCheck.Test.make
    ~name:"appendix lower-bound witnesses validate on random trees" ~count:40
    arb_tree (fun tree ->
      let n = Tree.n tree in
      (* Read witness: 1/d on each replica of a smallest physical level. *)
      let d = Tree.min_level_size tree in
      let smallest =
        List.find
          (fun k -> (Tree.level tree k).Tree.physical = d)
          (Tree.physical_levels tree)
      in
      let y_read = Array.make n 0.0 in
      Array.iter
        (fun i -> y_read.(i) <- 1.0 /. float_of_int d)
        (Tree.replicas_at tree smallest);
      (* Write witness: 1/|K_phy| on one replica per physical level. *)
      let k_phy = Tree.num_physical_levels tree in
      let y_write = Array.make n 0.0 in
      List.iter
        (fun k -> y_write.((Tree.replicas_at tree k).(0)) <- 1.0 /. float_of_int k_phy)
        (Tree.physical_levels tree);
      Analysis.Load_lp.check_witness (read_set tree) ~y:y_read
        ~load:(Arbitrary.Analysis.read_load tree)
      && Analysis.Load_lp.check_witness (write_set tree) ~y:y_write
           ~load:(Arbitrary.Analysis.write_load tree))

let prop_uniform_strategy_achieves_read_load =
  QCheck.Test.make
    ~name:"uniform read strategy induces load 1/d (upper-bound proof §6.1.1)"
    ~count:40 arb_tree (fun tree ->
      let qs = read_set tree in
      let w = Quorum.Strategy.uniform qs in
      abs_float
        (Quorum.Strategy.system_load qs w -. Arbitrary.Analysis.read_load tree)
      < 1e-9)

let prop_end_to_end_write_read =
  QCheck.Test.make
    ~name:"write then read returns the value on any random tree" ~count:20
    (QCheck.pair arb_tree (QCheck.int_bound 1000))
    (fun (tree, seed) ->
      let proto = Quorums.protocol tree in
      let n = Tree.n tree in
      let engine = Dsim.Engine.create ~seed () in
      let net = Dsim.Network.create ~engine ~n:(n + 1) () in
      let _replicas =
        Array.init n (fun site -> Replication.Replica.create ~site ~net ())
      in
      let coord = Replication.Coordinator.create ~site:n ~net ~proto () in
      let result = ref None in
      Replication.Coordinator.write coord ~key:0 ~value:"prop" (fun _ ->
          Replication.Coordinator.read coord ~key:0 (fun r -> result := r));
      Dsim.Engine.run engine;
      match !result with
      | Some { Replication.Coordinator.value; _ } -> value = "prop"
      | None -> false)

let prop_reconfig_preserves_values =
  QCheck.Test.make ~name:"migration between random shapes preserves values"
    ~count:15
    (QCheck.triple arb_tree arb_tree (QCheck.int_bound 1000))
    (fun (tree_a, tree_b, seed) ->
      QCheck.assume (Tree.n tree_a = Tree.n tree_b);
      let n = Tree.n tree_a in
      let engine = Dsim.Engine.create ~seed () in
      let net = Dsim.Network.create ~engine ~n:(n + 2) () in
      let _replicas =
        Array.init n (fun site -> Replication.Replica.create ~site ~net ())
      in
      let locks = Replication.Lock_manager.create ~engine in
      let coord =
        Replication.Coordinator.create ~site:n ~net
          ~proto:(Quorums.protocol tree_a) ~locks ()
      in
      let mig =
        Replication.Coordinator.create ~site:(n + 1) ~net
          ~proto:(Quorums.protocol tree_a) ()
      in
      let ok = ref true in
      Replication.Coordinator.write coord ~key:0 ~value:"before" (fun r ->
          if r = None then ok := false
          else
            Replication.Reconfig.migrate ~coord:mig ~locks
              ~new_proto:(Quorums.protocol tree_b) ~key_space:2
              ~on_switch:(fun () ->
                Replication.Coordinator.set_protocol coord (Quorums.protocol tree_b))
              (fun result ->
                if result.Replication.Reconfig.failed <> [] then ok := false
                else
                  Replication.Coordinator.read coord ~key:0 (fun r ->
                      match r with
                      | Some { Replication.Coordinator.value; _ } ->
                        if value <> "before" then ok := false
                      | None -> ok := false)));
      Dsim.Engine.run engine;
      !ok)

let prop_num_quorums_formulas =
  QCheck.Test.make ~name:"m(R), m(W) formulas vs enumeration (larger trees)"
    ~count:40
    (QCheck.make
       QCheck.Gen.(
         let* n_levels = int_range 1 4 in
         let* sizes = list_repeat n_levels (int_range 1 5) in
         return (Tree.create ((0, 1) :: List.map (fun s -> (s, 0)) sizes)))
       ~print:Tree.to_spec)
    (fun tree ->
      let m_r = Seq.length (Quorums.enumerate_read_quorums tree) in
      let m_w = Seq.length (Quorums.enumerate_write_quorums tree) in
      float_of_int m_r = Arbitrary.Analysis.num_read_quorums tree
      && m_w = Arbitrary.Analysis.num_write_quorums tree)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_lp_load_matches_appendix;
    QCheck_alcotest.to_alcotest prop_availability_matches_enumeration;
    QCheck_alcotest.to_alcotest prop_witnesses_certify_loads;
    QCheck_alcotest.to_alcotest prop_uniform_strategy_achieves_read_load;
    QCheck_alcotest.to_alcotest prop_end_to_end_write_read;
    QCheck_alcotest.to_alcotest prop_reconfig_preserves_values;
    QCheck_alcotest.to_alcotest prop_num_quorums_formulas;
  ]
