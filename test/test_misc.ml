(* Small-surface coverage: pretty-printers, conversions, and minor API
   corners not exercised elsewhere. *)

module Rng = Dsutil.Rng

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_rng_uniform_in () =
  let rng = Rng.create 3 in
  for _ = 1 to 5000 do
    let v = Rng.uniform_in rng (-2.0) 3.0 in
    Alcotest.(check bool) "in range" true (v >= -2.0 && v < 3.0)
  done

let test_rng_copy () =
  let a = Rng.create 9 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copies evolve identically" (Rng.int64 a) (Rng.int64 b)

let test_store_restage () =
  let s = Replication.Store.create () in
  let ts v = Replication.Timestamp.make ~version:v ~sid:0 in
  Replication.Store.stage s ~op:1 ~key:0 ~ts:(ts 1) ~value:"first";
  Replication.Store.stage s ~op:1 ~key:0 ~ts:(ts 2) ~value:"second";
  Alcotest.(check int) "re-stage replaces" 1 (Replication.Store.staged_count s);
  Alcotest.(check bool) "commit applies the latest staging" true
    (Replication.Store.commit_staged s ~op:1);
  let _, v = Replication.Store.read s ~key:0 in
  Alcotest.(check string) "second value" "second" v

let test_message_pp_and_op_id () =
  let ts = Replication.Timestamp.make ~version:3 ~sid:1 in
  let cases =
    [
      (Replication.Message.Read_request { op = 1; key = 2 }, 1, "read-req");
      ( Replication.Message.read_reply (Replication.Message.pool ()) ~op:2 ~key:0
          ~version:ts.Replication.Timestamp.version ~sid:ts.Replication.Timestamp.sid
          ~value:"v" ~inc:0,
        2, "read-reply" );
      ( Replication.Message.Prepare
          {
            op = 3;
            key = 0;
            version = ts.Replication.Timestamp.version;
            sid = ts.Replication.Timestamp.sid;
            value = "v";
            reply = Replication.Message.Prepare_ack { op = 3; inc = 0 };
          },
        3, "prepare" );
      (Replication.Message.Prepare_ack { op = 4; inc = 0 }, 4, "prepare-ack");
      ( Replication.Message.Prepare_nack { op = 5; reason = "r" },
        5, "prepare-nack" );
      ( Replication.Message.Commit
          { op = 6; inc = 0; reply = Replication.Message.Commit_ack { op = 6; inc = 0 } },
        6, "commit" );
      (Replication.Message.Commit_ack { op = 7; inc = 0 }, 7, "commit-ack");
      (Replication.Message.Abort { op = 8 }, 8, "abort");
      ( Replication.Message.Repair
          {
            op = 9;
            key = 1;
            version = ts.Replication.Timestamp.version;
            sid = ts.Replication.Timestamp.sid;
            value = "v";
          },
        9, "repair" );
    ]
  in
  List.iter
    (fun (msg, op, tag) ->
      Alcotest.(check int) (tag ^ " op_id") op (Replication.Message.op_id msg);
      Alcotest.(check bool)
        (tag ^ " pp mentions tag")
        true
        (contains ~needle:tag
           (Format.asprintf "%a" Replication.Message.pp msg)))
    cases

let test_failure_pp () =
  let pp e = Format.asprintf "%a" Dsim.Failure.pp_entry e in
  Alcotest.(check bool) "crash" true
    (contains ~needle:"crash 3" (pp { Dsim.Failure.time = 1.0; event = Crash 3 }));
  Alcotest.(check bool) "recover" true
    (contains ~needle:"recover 3"
       (pp { Dsim.Failure.time = 2.0; event = Recover 3 }));
  Alcotest.(check bool) "partition" true
    (contains ~needle:"partition"
       (pp { Dsim.Failure.time = 3.0; event = Partition [ [ 0 ]; [ 1 ] ] }));
  Alcotest.(check bool) "heal" true
    (contains ~needle:"heal" (pp { Dsim.Failure.time = 4.0; event = Heal }))

let test_timestamp_pp () =
  let ts = Replication.Timestamp.make ~version:4 ~sid:2 in
  Alcotest.(check string) "format" "v4@2"
    (Format.asprintf "%a" Replication.Timestamp.pp ts)

let test_tree_pp () =
  let s = Format.asprintf "%a" Arbitrary.Tree.pp (Arbitrary.Tree.figure1 ()) in
  Alcotest.(check bool) "mentions n" true (contains ~needle:"n=8" s);
  Alcotest.(check bool) "mentions levels" true (contains ~needle:"level 2" s)

let test_config_names () =
  Alcotest.(check int) "six configurations" 6
    (List.length Arbitrary.Config.all_names);
  Alcotest.(check (list string)) "names"
    [ "BINARY"; "UNMODIFIED"; "ARBITRARY"; "HQC"; "MOSTLY-READ"; "MOSTLY-WRITE" ]
    (List.map Arbitrary.Config.name_to_string Arbitrary.Config.all_names)

let test_protocol_all_alive () =
  let proto = Quorum.Rowa.protocol (Quorum.Rowa.create ~n:4) in
  let alive = Quorum.Protocol.all_alive proto in
  Alcotest.(check int) "full universe" 4 (Dsutil.Bitset.cardinal alive);
  Alcotest.(check string) "name" "ROWA" (Quorum.Protocol.name proto);
  Alcotest.(check int) "size" 4 (Quorum.Protocol.universe_size proto)

let test_analysis_pp_summary () =
  let s =
    Format.asprintf "%a" Arbitrary.Analysis.pp_summary
      (Arbitrary.Analysis.summarize (Arbitrary.Tree.figure1 ()) ~p:0.7)
  in
  Alcotest.(check bool) "mentions tree spec" true (contains ~needle:"1-3-5" s);
  Alcotest.(check bool) "mentions both ops" true
    (contains ~needle:"read" s && contains ~needle:"write" s)

let test_harness_zero_op_edge () =
  let proto = Arbitrary.Quorums.protocol (Arbitrary.Tree.figure1 ()) in
  let s = Replication.Harness.default_scenario ~proto in
  let r = Replication.Harness.run { s with Replication.Harness.ops_per_client = 0 } in
  Alcotest.(check (float 1e-9)) "no ops, no cost" 0.0
    (Replication.Harness.messages_per_op r);
  Alcotest.(check (float 1e-9)) "no load" 0.0
    (Replication.Harness.measured_read_load r)

(* A negative op count, steady or burst, is refused up front: a client
   counting down from it would never reach zero. *)
let test_harness_negative_ops () =
  let module H = Replication.Harness in
  let proto = Arbitrary.Quorums.protocol (Arbitrary.Tree.figure1 ()) in
  let s = H.default_scenario ~proto in
  let refused what msg s =
    Alcotest.check_raises what (Invalid_argument msg) (fun () -> ignore (H.run s))
  in
  refused "steady" "Harness.run: negative ops_per_client" { s with ops_per_client = -1 };
  let burst burst_clients burst_ops =
    {
      s with
      overload =
        Some
          {
            H.overload_defaults with
            burst = Some { burst_at = 0.0; burst_clients; burst_ops; burst_think = 1.0 };
          };
    }
  in
  refused "burst clients" "Harness.run: negative burst_clients or burst_ops" (burst (-3) 1);
  refused "burst ops" "Harness.run: negative burst_clients or burst_ops" (burst 1 (-1));
  (* Negative times: a negative horizon ran nothing, a negative warmup was
     read as 0 and a negative think time failed mid-run in the engine. *)
  let times = "Harness.run: negative horizon, warmup or think_time" in
  refused "horizon" times { s with horizon = -10.0 };
  refused "warmup" times { s with warmup = -1.0 };
  refused "think time" times { s with think_time = -1.0 };
  refused "NaN think time" times { s with think_time = Float.nan };
  let burst_think t =
    match (burst 1 1).overload with
    | Some o ->
      let burst = Option.map (fun b -> { b with H.burst_think = t }) o.burst in
      { s with overload = Some { o with burst } }
    | None -> assert false
  in
  refused "burst think" "Harness.run: negative burst_at or burst_think" (burst_think (-1.0));
  (* The workload fields are checked before anything is built: they used
     to surface mid-set-up as Shard_map/Zipf/Generator messages, and NaN
     passed those checks. *)
  refused "no keys" "Harness.run: key_space must be >= 1" { s with key_space = 0 };
  let theta = "Harness.run: zipf_theta out of [0, 2]" in
  refused "negative theta" theta { s with zipf_theta = -0.5 };
  refused "theta past 2" theta { s with zipf_theta = 2.5 };
  refused "NaN theta" theta { s with zipf_theta = Float.nan };
  let fraction = "Harness.run: read_fraction out of [0, 1]" in
  refused "negative read fraction" fraction { s with read_fraction = -0.1 };
  refused "read fraction past 1" fraction { s with read_fraction = 1.5 };
  refused "NaN read fraction" fraction { s with read_fraction = Float.nan }

let test_bitset_pp () =
  let s = Format.asprintf "%a" Dsutil.Bitset.pp (Dsutil.Bitset.of_list 8 [ 1; 5 ]) in
  Alcotest.(check string) "set syntax" "{1,5}" s

let test_quorum_set_pp () =
  let qs = Quorum.Quorum_set.of_lists ~universe:3 [ [ 0; 1 ] ] in
  let s = Format.asprintf "%a" Quorum.Quorum_set.pp qs in
  Alcotest.(check bool) "mentions universe" true (contains ~needle:"universe=3" s)

let test_tablefmt_ragged () =
  (* Rows shorter than the header are padded implicitly; longer cells widen
     columns. *)
  let s =
    Eval.Tablefmt.render ~header:[ "col1"; "col2" ]
      ~rows:[ [ "a" ]; [ "bb"; "cc" ] ]
  in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let suite =
  [
    Alcotest.test_case "rng uniform_in" `Quick test_rng_uniform_in;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    Alcotest.test_case "store re-stage" `Quick test_store_restage;
    Alcotest.test_case "message pp and op_id" `Quick test_message_pp_and_op_id;
    Alcotest.test_case "failure entry pp" `Quick test_failure_pp;
    Alcotest.test_case "timestamp pp" `Quick test_timestamp_pp;
    Alcotest.test_case "tree pp" `Quick test_tree_pp;
    Alcotest.test_case "config names" `Quick test_config_names;
    Alcotest.test_case "protocol dynamic accessors" `Quick test_protocol_all_alive;
    Alcotest.test_case "analysis summary pp" `Quick test_analysis_pp_summary;
    Alcotest.test_case "harness zero-op edge" `Quick test_harness_zero_op_edge;
    Alcotest.test_case "harness negative op counts" `Quick test_harness_negative_ops;
    Alcotest.test_case "bitset pp" `Quick test_bitset_pp;
    Alcotest.test_case "quorum_set pp" `Quick test_quorum_set_pp;
    Alcotest.test_case "tablefmt ragged rows" `Quick test_tablefmt_ragged;
  ]
