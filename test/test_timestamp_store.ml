module Timestamp = Replication.Timestamp
module Store = Replication.Store

let ts v s = Timestamp.make ~version:v ~sid:s

let test_ordering () =
  Alcotest.(check bool) "higher version newer" true
    (Timestamp.newer_than (ts 2 5) (ts 1 0));
  Alcotest.(check bool) "equal version, lower sid newer" true
    (Timestamp.newer_than (ts 1 2) (ts 1 7));
  Alcotest.(check bool) "not newer than self" false
    (Timestamp.newer_than (ts 1 1) (ts 1 1));
  Alcotest.(check bool) "zero oldest" true (Timestamp.newer_than (ts 1 99) Timestamp.zero)

let test_compare_consistent () =
  let a = ts 3 1 and b = ts 3 4 in
  Alcotest.(check bool) "compare positive" true (Timestamp.compare a b > 0);
  Alcotest.(check bool) "compare negative" true (Timestamp.compare b a < 0);
  Alcotest.(check int) "compare zero" 0 (Timestamp.compare a a)

let test_total_order_transitive () =
  let all = [ Timestamp.zero; ts 1 3; ts 1 1; ts 2 9; ts 2 2; ts 3 0 ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun c ->
              if Timestamp.compare a b > 0 && Timestamp.compare b c > 0 then
                Alcotest.(check bool) "transitive" true (Timestamp.compare a c > 0))
            all)
        all)
    all

let test_make_validation () =
  Alcotest.check_raises "negative version"
    (Invalid_argument "Timestamp.make: negative version") (fun () ->
      ignore (Timestamp.make ~version:(-1) ~sid:0))

let test_store_read_default () =
  let s = Store.create () in
  let t, v = Store.read s ~key:7 in
  Alcotest.(check bool) "zero ts" true (Timestamp.equal t Timestamp.zero);
  Alcotest.(check string) "empty value" "" v

let test_store_install_monotone () =
  let s = Store.create () in
  Alcotest.(check bool) "first install" true
    (Store.install s ~key:1 ~ts:(ts 1 0) ~value:"a");
  Alcotest.(check bool) "newer install" true
    (Store.install s ~key:1 ~ts:(ts 2 0) ~value:"b");
  Alcotest.(check bool) "stale install rejected" false
    (Store.install s ~key:1 ~ts:(ts 1 0) ~value:"stale");
  Alcotest.(check bool) "same ts rejected (idempotent)" false
    (Store.install s ~key:1 ~ts:(ts 2 0) ~value:"dup");
  let t, v = Store.read s ~key:1 in
  Alcotest.(check string) "latest value" "b" v;
  Alcotest.(check bool) "latest ts" true (Timestamp.equal t (ts 2 0))

let test_store_sid_tiebreak () =
  let s = Store.create () in
  ignore (Store.install s ~key:1 ~ts:(ts 1 5) ~value:"high-sid");
  Alcotest.(check bool) "lower sid wins tie" true
    (Store.install s ~key:1 ~ts:(ts 1 2) ~value:"low-sid");
  let _, v = Store.read s ~key:1 in
  Alcotest.(check string) "low sid value" "low-sid" v

let test_store_staging () =
  let s = Store.create () in
  Store.stage s ~op:10 ~key:1 ~ts:(ts 1 0) ~value:"staged";
  Alcotest.(check int) "one staged" 1 (Store.staged_count s);
  Alcotest.(check bool) "visible in staging" true (Store.staged s ~op:10 <> None);
  (* Staged writes are invisible to reads until committed. *)
  let _, v = Store.read s ~key:1 in
  Alcotest.(check string) "not visible" "" v;
  Alcotest.(check bool) "commit applies" true (Store.commit_staged s ~op:10);
  let _, v = Store.read s ~key:1 in
  Alcotest.(check string) "visible after commit" "staged" v;
  Alcotest.(check int) "staging cleared" 0 (Store.staged_count s);
  Alcotest.(check bool) "second commit is no-op" false (Store.commit_staged s ~op:10)

let test_store_abort () =
  let s = Store.create () in
  Store.stage s ~op:11 ~key:2 ~ts:(ts 1 0) ~value:"doomed";
  Store.abort_staged s ~op:11;
  Alcotest.(check bool) "aborted" true (Store.staged s ~op:11 = None);
  let _, v = Store.read s ~key:2 in
  Alcotest.(check string) "never applied" "" v

let test_store_keys () =
  let s = Store.create () in
  ignore (Store.install s ~key:3 ~ts:(ts 1 0) ~value:"x");
  ignore (Store.install s ~key:1 ~ts:(ts 1 0) ~value:"y");
  Alcotest.(check (list int)) "keys sorted" [ 1; 3 ] (Store.keys s)

let suite =
  [
    Alcotest.test_case "timestamp ordering" `Quick test_ordering;
    Alcotest.test_case "compare consistency" `Quick test_compare_consistent;
    Alcotest.test_case "total order transitivity" `Quick test_total_order_transitive;
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "store default read" `Quick test_store_read_default;
    Alcotest.test_case "store monotone install" `Quick test_store_install_monotone;
    Alcotest.test_case "store sid tie-break" `Quick test_store_sid_tiebreak;
    Alcotest.test_case "store staging lifecycle" `Quick test_store_staging;
    Alcotest.test_case "store abort" `Quick test_store_abort;
    Alcotest.test_case "store keys" `Quick test_store_keys;
  ]
