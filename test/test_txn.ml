module Engine = Dsim.Engine
module Network = Dsim.Network
module Txn = Replication.Txn
module Replica = Replication.Replica
module Lock_manager = Replication.Lock_manager
module Coordinator = Replication.Coordinator

type ctx = {
  engine : Engine.t;
  net : Replication.Message.t Network.t;
  locks : Lock_manager.t;
  m1 : Txn.manager;
  m2 : Txn.manager;
}

let setup ?(seed = 42) () =
  let proto = Arbitrary.Quorums.protocol (Arbitrary.Tree.figure1 ()) in
  let engine = Engine.create ~seed () in
  let net = Network.create ~engine ~n:10 () in
  let _replicas = Array.init 8 (fun site -> Replica.create ~site ~net ()) in
  let locks = Lock_manager.create ~engine in
  let m1 = Txn.create_manager ~site:8 ~net ~proto ~locks () in
  let m2 = Txn.create_manager ~site:9 ~net ~proto ~locks () in
  { engine; net; locks; m1; m2 }

let commit_sync ctx txn =
  let result = ref None in
  Txn.commit txn (fun o -> result := Some o);
  Engine.run ctx.engine;
  match !result with
  | Some o -> o
  | None -> Alcotest.fail "commit did not complete"

let read_sync ctx txn key =
  let result = ref `Pending in
  Txn.read txn ~key (fun v -> result := `Done v);
  Engine.run ctx.engine;
  match !result with
  | `Done v -> v
  | `Pending -> Alcotest.fail "read did not complete"

let committed o = o = Txn.Committed

let test_empty_commit () =
  let ctx = setup () in
  let t = Txn.begin_txn ctx.m1 in
  Alcotest.(check bool) "committed" true (committed (commit_sync ctx t));
  Alcotest.(check bool) "finished" true (Txn.is_finished t);
  Alcotest.(check int) "counted" 1 (Txn.count ctx.m1 "txn.committed")

let test_write_then_read_other_txn () =
  let ctx = setup () in
  let t1 = Txn.begin_txn ctx.m1 in
  Txn.write t1 ~key:1 ~value:"alpha";
  Txn.write t1 ~key:2 ~value:"beta";
  Alcotest.(check bool) "committed" true (committed (commit_sync ctx t1));
  let t2 = Txn.begin_txn ctx.m2 in
  Alcotest.(check (option string)) "k1" (Some "alpha") (read_sync ctx t2 1);
  Alcotest.(check (option string)) "k2" (Some "beta") (read_sync ctx t2 2);
  Txn.abort t2

let test_read_your_writes () =
  let ctx = setup () in
  let t = Txn.begin_txn ctx.m1 in
  Txn.write t ~key:5 ~value:"mine";
  Alcotest.(check (option string)) "sees own write" (Some "mine")
    (read_sync ctx t 5);
  Txn.abort t

let test_repeatable_read () =
  let ctx = setup () in
  (* Commit an initial value. *)
  let t0 = Txn.begin_txn ctx.m1 in
  Txn.write t0 ~key:1 ~value:"v0";
  ignore (commit_sync ctx t0);
  (* t1 reads it and keeps a shared lock; later reads return the cache. *)
  let t1 = Txn.begin_txn ctx.m1 in
  Alcotest.(check (option string)) "first read" (Some "v0") (read_sync ctx t1 1);
  Alcotest.(check (option string)) "repeatable" (Some "v0") (read_sync ctx t1 1);
  Txn.abort t1

let test_buffered_write_invisible_until_commit () =
  let ctx = setup () in
  let t1 = Txn.begin_txn ctx.m1 in
  Txn.write t1 ~key:3 ~value:"hidden";
  (* A reader on the other manager sees nothing yet. *)
  let t2 = Txn.begin_txn ctx.m2 in
  Alcotest.(check (option string)) "not visible" (Some "") (read_sync ctx t2 3);
  Txn.abort t2;
  Alcotest.(check bool) "now commits" true (committed (commit_sync ctx t1));
  let t3 = Txn.begin_txn ctx.m2 in
  Alcotest.(check (option string)) "visible after commit" (Some "hidden")
    (read_sync ctx t3 3);
  Txn.abort t3

let test_abort_discards () =
  let ctx = setup () in
  let t = Txn.begin_txn ctx.m1 in
  Txn.write t ~key:4 ~value:"doomed";
  Txn.abort t;
  Alcotest.(check bool) "finished" true (Txn.is_finished t);
  Alcotest.(check int) "aborted count" 1 (Txn.count ctx.m1 "txn.aborted");
  let t2 = Txn.begin_txn ctx.m2 in
  Alcotest.(check (option string)) "nothing written" (Some "") (read_sync ctx t2 4);
  Txn.abort t2

let test_atomic_abort_when_no_write_quorum () =
  let ctx = setup () in
  (* One crash per physical level: no write quorum anywhere, reads fine. *)
  Network.crash ctx.net 0;
  Network.crash ctx.net 3;
  let t = Txn.begin_txn ctx.m1 in
  Txn.write t ~key:1 ~value:"a";
  Txn.write t ~key:2 ~value:"b";
  (match commit_sync ctx t with
  | Txn.Aborted _ -> ()
  | _ -> Alcotest.fail "must abort without write quorums");
  (* Neither key leaked. *)
  let t2 = Txn.begin_txn ctx.m2 in
  Alcotest.(check (option string)) "k1 clean" (Some "") (read_sync ctx t2 1);
  Alcotest.(check (option string)) "k2 clean" (Some "") (read_sync ctx t2 2);
  Txn.abort t2;
  (* No staged residue on any replica store either way: aborts were sent. *)
  Engine.run ctx.engine

let test_version_phase_failure_aborts () =
  let ctx = setup () in
  (* Kill all of level 1 after lock acquisition is irrelevant — kill now:
     reads (and hence version phase) impossible. *)
  List.iter (Network.crash ctx.net) [ 0; 1; 2 ];
  let t = Txn.begin_txn ctx.m1 in
  Txn.write t ~key:1 ~value:"x";
  match commit_sync ctx t with
  | Txn.Aborted reason ->
    Alcotest.(check bool) "version phase blamed" true
      (reason = "version phase failed")
  | _ -> Alcotest.fail "cannot commit without read quorum"

let test_writer_waits_for_reader () =
  let ctx = setup () in
  let reader = Txn.begin_txn ctx.m1 in
  Alcotest.(check (option string)) "read" (Some "") (read_sync ctx reader 7);
  (* Writer's commit must block on the shared lock. *)
  let writer = Txn.begin_txn ctx.m2 in
  Txn.write writer ~key:7 ~value:"w";
  let outcome = ref None in
  Txn.commit writer (fun o -> outcome := Some o);
  (* Run well past the network phases but short of the lock deadline. *)
  Engine.run ~until:(Engine.now ctx.engine +. 50.0) ctx.engine;
  Alcotest.(check bool) "writer blocked while reader active" true (!outcome = None);
  Txn.abort reader;
  Engine.run ctx.engine;
  (match !outcome with
  | Some o -> Alcotest.(check bool) "writer commits after release" true (committed o)
  | None -> Alcotest.fail "writer still blocked after reader aborted")

let test_upgrade_conflict_aborts_one () =
  let ctx = setup () in
  let a = Txn.begin_txn ctx.m1 in
  let b = Txn.begin_txn ctx.m2 in
  Alcotest.(check (option string)) "a reads" (Some "") (read_sync ctx a 2);
  Alcotest.(check (option string)) "b reads" (Some "") (read_sync ctx b 2);
  Txn.write a ~key:2 ~value:"a";
  Txn.write b ~key:2 ~value:"b";
  let oa = ref None and ob = ref None in
  Txn.commit a (fun o -> oa := Some o);
  Txn.commit b (fun o -> ob := Some o);
  Engine.run ctx.engine;
  match (!oa, !ob) with
  | Some a_out, Some b_out ->
    Alcotest.(check bool) "first upgrader commits" true (committed a_out);
    Alcotest.(check bool) "second upgrader aborts" false (committed b_out)
  | _ -> Alcotest.fail "both transactions must terminate"

let test_deadlock_resolved_by_timeout () =
  let ctx = setup () in
  let a = Txn.begin_txn ctx.m1 in
  let b = Txn.begin_txn ctx.m2 in
  Alcotest.(check (option string)) "a reads k1" (Some "") (read_sync ctx a 1);
  Alcotest.(check (option string)) "b reads k2" (Some "") (read_sync ctx b 2);
  Txn.write a ~key:2 ~value:"a";
  Txn.write b ~key:1 ~value:"b";
  let oa = ref None and ob = ref None in
  Txn.commit a (fun o -> oa := Some o);
  Txn.commit b (fun o -> ob := Some o);
  Engine.run ctx.engine;
  (* Cross-key S/X cycle: both wait, the lock timeout fires, both abort
     (no victim selection — conservative), and crucially both terminate. *)
  (match (!oa, !ob) with
  | Some _, Some _ -> ()
  | _ -> Alcotest.fail "deadlocked transactions must terminate");
  Alcotest.(check bool) "locks fully released" true
    (Lock_manager.holders ctx.locks ~key:1 = None
    && Lock_manager.holders ctx.locks ~key:2 = None)

let test_read_modify_write_same_key () =
  (* The S->X upgrade path without contention. *)
  let ctx = setup () in
  let t0 = Txn.begin_txn ctx.m1 in
  Txn.write t0 ~key:6 ~value:"10";
  ignore (commit_sync ctx t0);
  let t = Txn.begin_txn ctx.m1 in
  (match read_sync ctx t 6 with
  | Some v -> Txn.write t ~key:6 ~value:(string_of_int (int_of_string v + 5))
  | None -> Alcotest.fail "read failed");
  Alcotest.(check bool) "commits through upgrade" true
    (committed (commit_sync ctx t));
  let t2 = Txn.begin_txn ctx.m2 in
  Alcotest.(check (option string)) "incremented" (Some "15") (read_sync ctx t2 6);
  Txn.abort t2

let test_use_after_finish_rejected () =
  let ctx = setup () in
  let t = Txn.begin_txn ctx.m1 in
  Txn.abort t;
  Alcotest.check_raises "read after finish"
    (Invalid_argument "Txn.read: transaction finished") (fun () ->
      Txn.read t ~key:1 (fun _ -> ()));
  Alcotest.check_raises "write after finish"
    (Invalid_argument "Txn.write: transaction finished") (fun () ->
      Txn.write t ~key:1 ~value:"x");
  Alcotest.check_raises "commit after finish"
    (Invalid_argument "Txn.commit: transaction finished") (fun () ->
      Txn.commit t (fun _ -> ()))

let test_commit_with_partial_crashes () =
  let ctx = setup () in
  (* Crash one replica of level 2: level 1 still forms a write quorum. *)
  Network.crash ctx.net 7;
  let t = Txn.begin_txn ctx.m1 in
  Txn.write t ~key:1 ~value:"resilient";
  Alcotest.(check bool) "commits" true (committed (commit_sync ctx t));
  let t2 = Txn.begin_txn ctx.m2 in
  Alcotest.(check (option string)) "visible" (Some "resilient") (read_sync ctx t2 1);
  Txn.abort t2

let test_many_sequential_txns () =
  let ctx = setup () in
  for i = 1 to 20 do
    let t = Txn.begin_txn ctx.m1 in
    Txn.write t ~key:(i mod 3) ~value:(Printf.sprintf "v%d" i);
    Alcotest.(check bool) "commits" true (committed (commit_sync ctx t))
  done;
  Alcotest.(check int) "20 committed" 20 (Txn.count ctx.m1 "txn.committed");
  let t = Txn.begin_txn ctx.m2 in
  (* Key 0 was last written by i=18. *)
  Alcotest.(check (option string)) "latest value" (Some "v18") (read_sync ctx t 0);
  Txn.abort t

let suite =
  [
    Alcotest.test_case "empty commit" `Quick test_empty_commit;
    Alcotest.test_case "write then read from another txn" `Quick
      test_write_then_read_other_txn;
    Alcotest.test_case "read-your-writes" `Quick test_read_your_writes;
    Alcotest.test_case "repeatable read" `Quick test_repeatable_read;
    Alcotest.test_case "buffered writes invisible until commit" `Quick
      test_buffered_write_invisible_until_commit;
    Alcotest.test_case "abort discards" `Quick test_abort_discards;
    Alcotest.test_case "atomic abort without write quorum" `Quick
      test_atomic_abort_when_no_write_quorum;
    Alcotest.test_case "version-phase failure aborts" `Quick
      test_version_phase_failure_aborts;
    Alcotest.test_case "writer waits for reader (2PL)" `Quick
      test_writer_waits_for_reader;
    Alcotest.test_case "upgrade conflict aborts one" `Quick
      test_upgrade_conflict_aborts_one;
    Alcotest.test_case "deadlock resolved by timeout" `Quick
      test_deadlock_resolved_by_timeout;
    Alcotest.test_case "read-modify-write same key" `Quick
      test_read_modify_write_same_key;
    Alcotest.test_case "use after finish rejected" `Quick
      test_use_after_finish_rejected;
    Alcotest.test_case "commit with partial crashes" `Quick
      test_commit_with_partial_crashes;
    Alcotest.test_case "many sequential transactions" `Quick
      test_many_sequential_txns;
  ]
