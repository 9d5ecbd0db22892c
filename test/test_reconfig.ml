module Engine = Dsim.Engine
module Network = Dsim.Network
module Replica = Replication.Replica
module Coordinator = Replication.Coordinator
module Lock_manager = Replication.Lock_manager
module Reconfig = Replication.Reconfig
module Timestamp = Replication.Timestamp

(* Old geometry: the Figure-1 tree (levels {0,1,2} and {3..7}).  New
   geometry over the same 8 replicas: 1-2-2-4 (levels {0,1}, {2,3},
   {4,5,6,7}). *)
let old_tree = Arbitrary.Tree.figure1 ()
let new_tree = Arbitrary.Tree.of_spec "1-2-2-4"

type ctx = {
  engine : Engine.t;
  net : Replication.Message.t Network.t;
  locks : Lock_manager.t;
  coord : Coordinator.t;  (* client on site 8 *)
  mig : Coordinator.t;  (* reconfigurator on site 9, no locks *)
}

let setup ?(seed = 42) () =
  let engine = Engine.create ~seed () in
  let net = Network.create ~engine ~n:10 () in
  let _replicas = Array.init 8 (fun site -> Replica.create ~site ~net ()) in
  let locks = Lock_manager.create ~engine in
  let coord =
    Coordinator.create ~site:8 ~net
      ~proto:(Arbitrary.Quorums.protocol old_tree)
      ~locks ()
  in
  let mig =
    Coordinator.create ~site:9 ~net ~proto:(Arbitrary.Quorums.protocol old_tree) ()
  in
  { engine; net; locks; coord; mig }

let write_sync ctx key value =
  let r = ref None in
  Coordinator.write ctx.coord ~key ~value (fun x -> r := x);
  Engine.run ctx.engine;
  match !r with Some ts -> ts | None -> Alcotest.fail "write failed"

let read_sync ctx key =
  let r = ref `Pending in
  Coordinator.read ctx.coord ~key (fun x -> r := `Done x);
  Engine.run ctx.engine;
  match !r with
  | `Done (Some result) -> result
  | `Done None -> Alcotest.fail "read failed"
  | `Pending -> Alcotest.fail "read did not complete"

let migrate_sync ?(key_space = 4) ctx =
  let result = ref None in
  Reconfig.migrate ~coord:ctx.mig ~locks:ctx.locks
    ~new_proto:(Arbitrary.Quorums.protocol new_tree) ~key_space
    ~on_switch:(fun () ->
      Coordinator.set_protocol ctx.coord (Arbitrary.Quorums.protocol new_tree))
    (fun r -> result := Some r);
  Engine.run ctx.engine;
  match !result with Some r -> r | None -> Alcotest.fail "migration incomplete"

let test_values_survive_migration () =
  let ctx = setup () in
  let ts1 = write_sync ctx 0 "zero" in
  let _ = write_sync ctx 1 "one" in
  let r = migrate_sync ctx in
  Alcotest.(check int) "all keys migrated" 4 r.Reconfig.migrated;
  Alcotest.(check (list int)) "no failures" [] r.Reconfig.failed;
  (* Reads now run under the new geometry and must see the old values with
     their original timestamps (no version minting). *)
  let r0 = read_sync ctx 0 in
  Alcotest.(check string) "value kept" "zero" r0.Coordinator.value;
  Alcotest.(check bool) "timestamp preserved" true
    (Timestamp.equal r0.Coordinator.ts ts1);
  Alcotest.(check string) "other key kept" "one" (read_sync ctx 1).Coordinator.value

let test_fresh_keys_migrate_trivially () =
  let ctx = setup () in
  let r = migrate_sync ctx in
  Alcotest.(check int) "all (empty) keys fine" 4 r.Reconfig.migrated;
  Alcotest.(check string) "still empty" "" (read_sync ctx 2).Coordinator.value

let test_writes_after_migration_use_new_tree () =
  let ctx = setup () in
  ignore (migrate_sync ctx);
  ignore (write_sync ctx 3 "post");
  (* Under the new tree, a write quorum is one of the levels {0,1}, {2,3}
     or {4,5,6,7}; verify by reading through the new geometry. *)
  Alcotest.(check string) "readable" "post" (read_sync ctx 3).Coordinator.value;
  (* And old-shape assumptions are gone: crashing 3 replicas of the old
     big level (5 of them) cannot block new reads needing 3 levels... but
     crashing one per new level blocks new writes. *)
  List.iter (Network.crash ctx.net) [ 0; 2; 4 ];
  let failed = ref false in
  Coordinator.write ctx.coord ~key:3 ~value:"blocked" (fun r ->
      failed := r = None);
  Engine.run ctx.engine;
  Alcotest.(check bool) "write blocked per new geometry" true !failed

let test_client_blocked_during_migration () =
  let ctx = setup () in
  ignore (write_sync ctx 0 "before");
  (* Start the migration, then immediately issue a client write: it must
     wait for the locks and complete after the switch, on the new tree. *)
  let mig_done = ref false in
  Reconfig.migrate ~coord:ctx.mig ~locks:ctx.locks
    ~new_proto:(Arbitrary.Quorums.protocol new_tree) ~key_space:4
    ~on_switch:(fun () ->
      Coordinator.set_protocol ctx.coord (Arbitrary.Quorums.protocol new_tree))
    (fun _ -> mig_done := true);
  let write_done = ref None in
  Coordinator.write ctx.coord ~key:0 ~value:"after" (fun r -> write_done := r);
  Engine.run ctx.engine;
  Alcotest.(check bool) "migration finished" true !mig_done;
  (match !write_done with
  | Some ts -> Alcotest.(check int) "version continues from old history" 2
      ts.Timestamp.version
  | None -> Alcotest.fail "client write failed");
  Alcotest.(check string) "final value" "after" (read_sync ctx 0).Coordinator.value

let test_failed_transfer_reported () =
  let ctx = setup () in
  ignore (write_sync ctx 0 "doomed?");
  (* One crash in every *new* level blocks new-tree write quorums while
     old-tree reads survive: the written key cannot transfer. *)
  List.iter (Network.crash ctx.net) [ 0; 2; 4 ];
  let r = migrate_sync ctx in
  Alcotest.(check (list int)) "key 0 failed" [ 0 ] r.Reconfig.failed;
  Alcotest.(check int) "others migrated" 3 r.Reconfig.migrated

let test_quorum_rpc_forced_ts () =
  (* The state-transfer primitive: a forced timestamp is installed as-is
     and does not bump versions. *)
  let ctx = setup () in
  let done_ = ref None in
  let ts = Timestamp.make ~version:7 ~sid:1 in
  Coordinator.write ctx.mig ~key:5 ~ts ~value:"forced" (fun r -> done_ := r);
  Engine.run ctx.engine;
  (match !done_ with
  | Some ts' -> Alcotest.(check bool) "echoes forced ts" true (Timestamp.equal ts ts')
  | None -> Alcotest.fail "forced write failed");
  let r = read_sync ctx 5 in
  Alcotest.(check bool) "read sees forced ts" true
    (Timestamp.equal r.Coordinator.ts ts)

let test_chained_migrations () =
  (* A -> B -> back to A: values and timestamps survive both hops. *)
  let ctx = setup () in
  let ts0 = write_sync ctx 0 "v" in
  let hop target =
    let result = ref None in
    Reconfig.migrate ~coord:ctx.mig ~locks:ctx.locks
      ~new_proto:(Arbitrary.Quorums.protocol target) ~key_space:4
      ~on_switch:(fun () ->
        Coordinator.set_protocol ctx.coord (Arbitrary.Quorums.protocol target))
      (fun r -> result := Some r);
    Engine.run ctx.engine;
    match !result with
    | Some r -> Alcotest.(check (list int)) "no failures" [] r.Reconfig.failed
    | None -> Alcotest.fail "migration incomplete"
  in
  hop new_tree;
  hop old_tree;
  let r = read_sync ctx 0 in
  Alcotest.(check string) "value after two hops" "v" r.Coordinator.value;
  Alcotest.(check bool) "timestamp preserved" true
    (Timestamp.equal r.Coordinator.ts ts0)

let suite =
  [
    Alcotest.test_case "values survive migration" `Quick
      test_values_survive_migration;
    Alcotest.test_case "fresh keys migrate trivially" `Quick
      test_fresh_keys_migrate_trivially;
    Alcotest.test_case "writes after migration use the new tree" `Quick
      test_writes_after_migration_use_new_tree;
    Alcotest.test_case "client blocked during migration" `Quick
      test_client_blocked_during_migration;
    Alcotest.test_case "failed transfers reported" `Quick
      test_failed_transfer_reported;
    Alcotest.test_case "quorum_rpc forced timestamp" `Quick
      test_quorum_rpc_forced_ts;
    Alcotest.test_case "chained migrations" `Quick test_chained_migrations;
  ]
