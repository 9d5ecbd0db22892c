(* Shared conformance tests for every baseline protocol: quorum systems
   intersect, assembly agrees with exhaustive enumeration (completeness),
   and assembled quorums are members of the enumerated family. *)

module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng
module Protocol = Quorum.Protocol
module Quorum_set = Quorum.Quorum_set

let random_alive rng n = Quorum.Availability.random_alive rng ~n ~p:0.6

(* Assembly must return Some iff some enumerated quorum is fully alive, and
   any returned set must contain an enumerated quorum built from alive
   replicas. *)
let check_assembly_conformance ~name proto =
  let n = Protocol.universe_size proto in
  let reads = Protocol.read_quorum_set proto in
  let writes = Protocol.write_quorum_set proto in
  let rng = Rng.create 4242 in
  for _ = 1 to 300 do
    let alive = random_alive rng n in
    let check_kind kind qs assemble =
      let expected = Quorum_set.can_form_within qs ~alive in
      match assemble ~alive ~rng with
      | None ->
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: assembly complete" name kind)
          false expected
      | Some q ->
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: exists when assembled" name kind)
          true expected;
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: quorum members alive" name kind)
          true (Bitset.subset q alive);
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: contains an enumerated quorum" name kind)
          true
          (Array.exists (fun q' -> Bitset.subset q' q) qs.Quorum_set.quorums)
    in
    check_kind "read" reads (Protocol.read_quorum proto);
    check_kind "write" writes (Protocol.write_quorum proto)
  done

let check_bicoterie ~name proto =
  let reads = Protocol.read_quorum_set proto in
  let writes = Protocol.write_quorum_set proto in
  Alcotest.(check bool)
    (Printf.sprintf "%s: read/write quorums form a bicoterie" name)
    true
    (Quorum_set.is_bicoterie ~read:reads ~write:writes)

let instances =
  [
    ("ROWA-5", Quorum.Rowa.protocol (Quorum.Rowa.create ~n:5));
    ("Majority-5", Quorum.Majority.protocol (Quorum.Majority.create ~n:5));
    ("Grid-3x3", Quorum.Grid.protocol (Quorum.Grid.create ~rows:3 ~cols:3));
    ("Grid-2x4", Quorum.Grid.protocol (Quorum.Grid.create ~rows:2 ~cols:4));
    ("Maekawa-9", Quorum.Maekawa.protocol (Quorum.Maekawa.create ~k:3));
    ("TreeQuorum-h2", Quorum.Tree_quorum.protocol (Quorum.Tree_quorum.create ~height:2));
    ("TreeQuorum-h3", Quorum.Tree_quorum.protocol (Quorum.Tree_quorum.create ~height:3));
    ("HQC-d2", Quorum.Hqc.protocol (Quorum.Hqc.create ~depth:2));
    ("TQP-VLDB90-h1", Quorum.Tqp.protocol (Quorum.Tqp.create ~d:1 ~height:1));
    ( "Arbitrary-1-3-5",
      Arbitrary.Quorums.protocol (Arbitrary.Tree.figure1 ()) );
    ( "Arbitrary-2-3-4",
      Arbitrary.Quorums.protocol (Arbitrary.Tree.of_spec "2-3-4") );
  ]

let conformance_cases =
  List.map
    (fun (name, proto) ->
      Alcotest.test_case (name ^ " assembly conformance") `Slow (fun () ->
          check_assembly_conformance ~name proto))
    instances

let bicoterie_cases =
  List.map
    (fun (name, proto) ->
      Alcotest.test_case (name ^ " bicoterie") `Quick (fun () ->
          check_bicoterie ~name proto))
    instances

let suite = bicoterie_cases @ conformance_cases
