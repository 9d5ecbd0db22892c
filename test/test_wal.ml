module Wal = Replication.Wal
module Store = Replication.Store
module Timestamp = Replication.Timestamp
module Batch = Replication.Batch

(* A hand-cranked virtual clock: the WAL only ever samples [now ()]. *)
let clock () =
  let t = ref 0.0 in
  ((fun () -> !t), fun v -> t := v)

let ts v = Timestamp.make ~version:v ~sid:0

let stage ~op ~key ~v value = Wal.Stage { op; key; ts = ts v; value }
let commit ~op ~key ~v value = Wal.Commit { op; key; ts = ts v; value }
let install ~key ~v value = Wal.Install { key; ts = ts v; value }

let test_policy_strings () =
  Alcotest.(check string) "commit" "commit" (Wal.policy_to_string Wal.Sync_on_commit);
  Alcotest.(check string) "prepare" "prepare" (Wal.policy_to_string Wal.Sync_on_prepare);
  Alcotest.(check string) "async" "async(60)" (Wal.policy_to_string (Wal.Async 60.0))

let test_invalid_lag () =
  let now, _ = clock () in
  Alcotest.check_raises "zero lag"
    (Invalid_argument "Wal.create: Async flush lag must be positive")
    (fun () -> ignore (Wal.create ~policy:(Wal.Async 0.0) ~now ()))

(* Sync_on_commit: commits and installs survive any crash, stages never do.
   A replica that loses a stage nacks the eventual 2PC Commit, so nothing
   is silently dropped — the write just fails visibly at the coordinator. *)
let test_sync_on_commit_crash () =
  let now, _ = clock () in
  let wal = Wal.create ~now () in
  Wal.append wal (stage ~op:1 ~key:0 ~v:1 "a");
  Wal.append wal (commit ~op:1 ~key:0 ~v:1 "a");
  Wal.append wal (stage ~op:2 ~key:1 ~v:1 "b");
  Alcotest.(check int) "three records" 3 (Wal.length wal);
  Wal.crash wal;
  Alcotest.(check int) "stages dropped" 1 (Wal.length wal);
  Alcotest.(check int) "two lost" 2 (Wal.lost_total wal);
  let store = Store.create () in
  Alcotest.(check int) "replayed" 1 (Wal.replay wal store);
  Alcotest.(check bool) "commit restored" true
    (Store.read store ~key:0 = (ts 1, "a"));
  Alcotest.(check bool) "stage gone" true (Store.staged store ~op:2 = None);
  Alcotest.(check bool) "staged key unwritten" true
    (Store.read store ~key:1 = (Timestamp.zero, ""))

(* Sync_on_prepare: the classic 2PC participant contract — the undecided
   stage set survives too, so replay rebuilds it for the coordinator's
   eventual decision. *)
let test_sync_on_prepare_crash () =
  let now, _ = clock () in
  let wal = Wal.create ~policy:Wal.Sync_on_prepare ~now () in
  Wal.append wal (stage ~op:1 ~key:0 ~v:1 "a");
  Wal.append wal (commit ~op:1 ~key:0 ~v:1 "a");
  Wal.append wal (stage ~op:2 ~key:1 ~v:1 "b");
  Wal.crash wal;
  Alcotest.(check int) "nothing lost" 0 (Wal.lost_total wal);
  let store = Store.create () in
  Alcotest.(check int) "all replayed" 3 (Wal.replay wal store);
  Alcotest.(check bool) "stage restored" true
    (Store.staged store ~op:2 = Some (1, ts 1, "b"));
  Alcotest.(check bool) "commit restored" true
    (Store.read store ~key:0 = (ts 1, "a"))

(* Async lag: a record is durable only once [lag] time has passed since the
   append — a crash inside the window loses acknowledged writes, which is
   exactly the anomaly the negative-control campaign manufactures. *)
let test_async_lag () =
  let now, set = clock () in
  let wal = Wal.create ~policy:(Wal.Async 10.0) ~now () in
  Wal.append wal (commit ~op:1 ~key:0 ~v:1 "a");
  set 5.0;
  Wal.append wal (commit ~op:2 ~key:0 ~v:2 "b");
  (* At t=12 the first append (durable from t=10) survives, the second
     (durable from t=15) does not. *)
  set 12.0;
  Wal.crash wal;
  Alcotest.(check int) "suffix lost" 1 (Wal.lost_total wal);
  let store = Store.create () in
  ignore (Wal.replay wal store);
  Alcotest.(check bool) "only the flushed prefix" true
    (Store.read store ~key:0 = (ts 1, "a"));
  (* The durability horizon is measured from each append. *)
  Wal.append wal (commit ~op:3 ~key:0 ~v:3 "c");
  set 30.0;
  Wal.crash wal;
  let store = Store.create () in
  ignore (Wal.replay wal store);
  Alcotest.(check bool) "flushed after the lag" true
    (Store.read store ~key:0 = (ts 3, "c"))

(* Regression: the Async durability boundary is pinned INCLUSIVE.  A
   record appended at t under [Async lag] is durable from exactly
   [t +. lag]; a crash at that very instant keeps it (the tie breaks in
   favour of durability — wal.mli documents the contract this test
   anchors).  One ulp earlier and the same record is gone. *)
let test_async_boundary_inclusive () =
  let now, set = clock () in
  let wal = Wal.create ~policy:(Wal.Async 10.0) ~now () in
  Wal.append wal (commit ~op:1 ~key:0 ~v:1 "a");
  set 10.0;
  (* crash at exactly t + lag *)
  Wal.crash wal;
  Alcotest.(check int) "boundary record survives" 0 (Wal.lost_total wal);
  let store = Store.create () in
  ignore (Wal.replay wal store);
  Alcotest.(check bool) "boundary record replayed" true
    (Store.read store ~key:0 = (ts 1, "a"));
  let now2, set2 = clock () in
  let wal2 = Wal.create ~policy:(Wal.Async 10.0) ~now:now2 () in
  Wal.append wal2 (commit ~op:1 ~key:0 ~v:1 "a");
  set2 (Float.pred 10.0);
  (* one ulp before the boundary *)
  Wal.crash wal2;
  Alcotest.(check int) "one ulp earlier loses it" 1 (Wal.lost_total wal2);
  let store2 = Store.create () in
  ignore (Wal.replay wal2 store2);
  Alcotest.(check bool) "nothing replayed" true
    (Store.read store2 ~key:0 = (Timestamp.zero, ""))

(* Group commit: a batch of records shares ONE durability point.  The
   sync counter is the only observable difference — per-record stamps,
   crash truncation and replay are identical to individual appends. *)
let test_group_commit_one_sync_per_batch () =
  let now, _ = clock () in
  let plain = Wal.create ~policy:Wal.Sync_on_prepare ~now () in
  Wal.append plain (stage ~op:1 ~key:0 ~v:1 "a");
  Wal.append plain (stage ~op:2 ~key:1 ~v:1 "b");
  Alcotest.(check int) "one sync per forcing append" 2 (Wal.syncs plain);
  let now2, _ = clock () in
  let grouped = Wal.create ~policy:Wal.Sync_on_prepare ~now:now2 () in
  Wal.append_batch grouped
    [ stage ~op:1 ~key:0 ~v:1 "a"; stage ~op:2 ~key:1 ~v:1 "b" ];
  Alcotest.(check int) "whole batch: one sync" 1 (Wal.syncs grouped);
  Alcotest.(check int) "same records" (Wal.length plain) (Wal.length grouped);
  Wal.crash plain;
  Wal.crash grouped;
  let s1 = Store.create () and s2 = Store.create () in
  let r1 = Wal.replay plain s1 and r2 = Wal.replay grouped s2 in
  Alcotest.(check int) "crash + replay parity" r1 r2;
  Alcotest.(check bool) "both stages rebuilt" true
    (Store.staged s2 ~op:1 = Some (0, ts 1, "a")
    && Store.staged s2 ~op:2 = Some (1, ts 1, "b"))

let test_group_commit_force_detection () =
  (* Sync_on_commit: a stage-only batch is lazy; a batch containing any
     forcing record costs exactly one sync.  Async never syncs. *)
  let now, _ = clock () in
  let wal = Wal.create ~now () in
  Wal.append_batch wal
    [ stage ~op:1 ~key:0 ~v:1 "a"; stage ~op:2 ~key:1 ~v:1 "b" ];
  Alcotest.(check int) "stage-only batch is lazy" 0 (Wal.syncs wal);
  Wal.append_batch wal
    [ commit ~op:1 ~key:0 ~v:1 "a"; commit ~op:2 ~key:1 ~v:1 "b" ];
  Alcotest.(check int) "commit batch forces once" 1 (Wal.syncs wal);
  let now2, _ = clock () in
  let async = Wal.create ~policy:(Wal.Async 5.0) ~now:now2 () in
  Wal.append_batch async
    [ commit ~op:1 ~key:0 ~v:1 "a"; commit ~op:2 ~key:1 ~v:1 "b" ];
  Alcotest.(check int) "async batch never syncs" 0 (Wal.syncs async)

(* The flat batch appends write the rows, charge the syncs and replay
   exactly as the record appends they stand for: [~group:false] as one
   [append] per write, [~group:true] and [install_batch] as one
   [append_batch]. *)
let test_flat_batches_match_records () =
  let batch =
    Batch.of_list [ (0, ts 1, "a"); (1, ts 1, "b"); (2, ts 2, "c") ]
  in
  let rows f = List.map (fun (key, t, value) -> f key t value) (Batch.to_list batch) in
  List.iter
    (fun policy ->
      let flat = Wal.create ~policy ~now:(fst (clock ())) () in
      let recs = Wal.create ~policy ~now:(fst (clock ())) () in
      Wal.stage_batch flat ~op:7 ~group:false batch;
      List.iter (Wal.append recs)
        (rows (fun key ts value -> Wal.Stage { op = 7; key; ts; value }));
      Wal.commit_batch flat ~op:7 ~group:true batch;
      Wal.append_batch recs
        (rows (fun key ts value -> Wal.Commit { op = 7; key; ts; value }));
      Wal.install_batch flat batch;
      Wal.append_batch recs (rows (fun key ts value -> Wal.Install { key; ts; value }));
      let name = Wal.policy_to_string policy in
      Alcotest.(check int) (name ^ ": syncs") (Wal.syncs recs) (Wal.syncs flat);
      Alcotest.(check int) (name ^ ": rows") (Wal.length recs) (Wal.length flat);
      Wal.crash flat;
      Wal.crash recs;
      let s1 = Store.create () and s2 = Store.create () in
      Alcotest.(check int) (name ^ ": replay") (Wal.replay recs s1) (Wal.replay flat s2);
      for key = 0 to 2 do
        Alcotest.(check bool) (name ^ ": same value") true
          (Store.read s1 ~key = Store.read s2 ~key)
      done)
    [ Wal.Sync_on_commit; Wal.Sync_on_prepare; Wal.Async 5.0 ]

(* Replaying the per-record Stage entries of one batched prepare must
   rebuild the whole staged batch — a second Stage under the same op id
   accumulates instead of clobbering. *)
let test_replay_rebuilds_batch_stage () =
  let now, _ = clock () in
  let wal = Wal.create ~policy:Wal.Sync_on_prepare ~now () in
  Wal.append_batch wal
    [
      stage ~op:9 ~key:0 ~v:1 "a";
      stage ~op:9 ~key:1 ~v:1 "b";
      stage ~op:9 ~key:2 ~v:1 "c";
    ];
  Wal.crash wal;
  let store = Store.create () in
  Alcotest.(check int) "all replayed" 3 (Wal.replay wal store);
  Alcotest.(check bool) "staged batch rebuilt in order" true
    (match Store.staged_many store ~op:9 with
    | Some b ->
      Replication.Batch.to_list b
      = [ (0, ts 1, "a"); (1, ts 1, "b"); (2, ts 1, "c") ]
    | None -> false);
  Alcotest.(check bool) "commit installs every key" true
    (Store.commit_staged store ~op:9);
  Alcotest.(check bool) "all keys installed" true
    (Store.read store ~key:0 = (ts 1, "a")
    && Store.read store ~key:1 = (ts 1, "b")
    && Store.read store ~key:2 = (ts 1, "c"))

(* Replay preserves install monotonicity and abort semantics. *)
let test_replay_order () =
  let now, _ = clock () in
  let wal = Wal.create ~now () in
  Wal.append wal (install ~key:0 ~v:3 "new");
  Wal.append wal (install ~key:0 ~v:1 "old");
  (* re-delivered, must not regress *)
  let store = Store.create () in
  ignore (Wal.replay wal store);
  Alcotest.(check bool) "monotone installs" true
    (Store.read store ~key:0 = (ts 3, "new"))

let test_replay_abort_clears_stage () =
  let now, _ = clock () in
  let wal = Wal.create ~policy:Wal.Sync_on_prepare ~now () in
  Wal.append wal (stage ~op:7 ~key:2 ~v:4 "x");
  Wal.append wal (Wal.Abort { op = 7 });
  let store = Store.create () in
  ignore (Wal.replay wal store);
  Alcotest.(check bool) "aborted stage not rebuilt" true
    (Store.staged store ~op:7 = None);
  Alcotest.(check int) "no staged writes" 0 (Store.staged_count store)

(* A Commit record is self-contained: it installs even when the matching
   Stage was volatile (the Sync_on_commit steady state). *)
let test_commit_record_self_contained () =
  let now, _ = clock () in
  let wal = Wal.create ~now () in
  Wal.append wal (stage ~op:1 ~key:0 ~v:2 "v");
  Wal.crash wal;
  (* stage lost *)
  Wal.append wal (commit ~op:1 ~key:0 ~v:2 "v");
  let store = Store.create () in
  ignore (Wal.replay wal store);
  Alcotest.(check bool) "installed from the commit alone" true
    (Store.read store ~key:0 = (ts 2, "v"))

(* --- snapshot-cut boundary ------------------------------------------------ *)

(* The tail boundary is inclusive at the stamp: a cut taken at
   [next_index] = s must yield a tail containing the record appended AT
   index s and nothing appended before it.  An off-by-one in either
   direction silently loses the first post-cut commit or re-ships the
   last pre-cut one. *)
let test_tail_boundary_at_stamp () =
  let now, _ = clock () in
  let wal = Wal.create ~now () in
  Wal.append wal (install ~key:0 ~v:1 "pre");
  let stamp = Wal.next_index wal in
  Alcotest.(check int) "stamp names the next index" 1 stamp;
  Wal.append wal (install ~key:1 ~v:1 "at-stamp");
  Wal.append wal (install ~key:2 ~v:1 "post");
  let tail = Wal.committed_since wal ~index:stamp in
  Alcotest.(check int) "tail holds exactly the records >= stamp" 2
    (Replication.Batch.length tail);
  Alcotest.(check int) "first tail record is the one AT the stamp" 1
    (Replication.Batch.key tail 0);
  Alcotest.(check string) "its value" "at-stamp"
    (Replication.Batch.value tail 0);
  (* stamp - 1 is NOT in the tail *)
  let from_before = Wal.committed_since wal ~index:(stamp - 1) in
  Alcotest.(check int) "one index earlier adds the pre-cut record" 3
    (Replication.Batch.length from_before)

let test_replay_from_boundary () =
  let now, _ = clock () in
  let wal = Wal.create ~now () in
  Wal.append wal (install ~key:0 ~v:5 "old");
  let stamp = Wal.next_index wal in
  Wal.append wal (install ~key:1 ~v:1 "new");
  let store = Store.create () in
  let applied = Wal.replay_from wal store ~index:stamp in
  Alcotest.(check int) "only the record at the stamp replays" 1 applied;
  Alcotest.(check bool) "pre-stamp key untouched" true
    (Store.read store ~key:0 = (Timestamp.zero, ""));
  Alcotest.(check bool) "at-stamp key installed" true
    (Store.read store ~key:1 = (ts 1, "new"));
  Alcotest.(check int) "replay_from 0 = full replay" 2
    (Wal.replay_from wal (Store.create ()) ~index:0)

(* Indices never rewind: a crash truncates records but the next append
   still gets a fresh index, so a donor's stamp from before the crash can
   never alias a post-crash record. *)
let test_indices_monotone_across_crash () =
  let now, set = clock () in
  let wal = Wal.create ~now () in
  Wal.append wal (stage ~op:1 ~key:0 ~v:1 "volatile");
  Wal.append wal (install ~key:1 ~v:1 "durable");
  Alcotest.(check int) "two appended" 2 (Wal.next_index wal);
  set 10.0;
  Wal.crash wal;
  Alcotest.(check int) "stage truncated" 1 (Wal.length wal);
  Alcotest.(check int) "counter did not rewind" 2 (Wal.next_index wal);
  Wal.append wal (install ~key:2 ~v:1 "after");
  Alcotest.(check int) "fresh index" 3 (Wal.next_index wal);
  (* the truncated record's index is simply absent from any tail *)
  Alcotest.(check int) "tail since 0 holds the two survivors" 2
    (Replication.Batch.length (Wal.committed_since wal ~index:0))

(* An amnesia crash immediately after a snapshot chunk was installed and
   marked: the mark is durable (Sync_on_commit batches the chunk installs
   and the mark at one durability point), so resume_state reports the
   chunk — the rejoin resumes after it instead of refetching chunk 0. *)
let test_resume_after_install_crash () =
  let now, set = clock () in
  let wal = Wal.create ~now () in
  Wal.append_batch wal
    [
      install ~key:0 ~v:1 "c0a";
      install ~key:1 ~v:1 "c0b";
      Wal.Mark { chunk = 0; wal_index = 7 };
    ];
  set 0.000001;
  (* crash "immediately": no later flush point, Sync_on_commit already
     made the batch durable at append time *)
  Wal.crash wal;
  (match Wal.resume_state wal with
  | Some (next_chunk, wal_index) ->
    Alcotest.(check int) "resume after chunk 0" 1 next_chunk;
    Alcotest.(check int) "stamp preserved" 7 wal_index
  | None -> Alcotest.fail "durable mark lost by the crash");
  (* the installs the mark covers replay into the store *)
  let store = Store.create () in
  ignore (Wal.replay wal store);
  Alcotest.(check bool) "chunk contents survived" true
    (Store.read store ~key:1 = (ts 1, "c0b"));
  (* a completion mark retires the resume state entirely *)
  Wal.append wal (Wal.Mark { chunk = -1; wal_index = 9 });
  Alcotest.(check bool) "completion mark means fresh transfer" true
    (Wal.resume_state wal = None)

(* --- model check: the columnar log against the list model ------------- *)

module Model = Wal_model

type action =
  | Flat_stage of int * int * int * string  (* op, key, version, value *)
  | Flat_commit of int * int * int * string
  | Flat_install of int * int * string
  | Append of Wal.record
  | Append_batch of Wal.record list
  | Crash
  | Tick of float

let values = [| "a"; "b"; "c" |]

let gen_record =
  QCheck.Gen.(
    let* op = int_bound 5 and* key = int_bound 5 and* v = int_range 1 6 in
    let* value = oneofa values in
    oneof
      [
        return (Wal.Stage { op; key; ts = ts v; value });
        return (Wal.Commit { op; key; ts = ts v; value });
        return (Wal.Install { key; ts = ts v; value });
        return (Wal.Abort { op });
        map2
          (fun chunk wal_index -> Wal.Mark { chunk; wal_index })
          (int_range (-1) 3) (int_bound 20);
      ])

let gen_action ~crash =
  QCheck.Gen.(
    let* op = int_bound 5 and* key = int_bound 5 and* v = int_range 1 6 in
    let* value = oneofa values in
    frequency
      [
        (30, return (Flat_stage (op, key, v, value)));
        (30, return (Flat_commit (op, key, v, value)));
        (10, return (Flat_install (key, v, value)));
        (30, map (fun r -> Append r) gen_record);
        (10, map (fun rs -> Append_batch rs) (list_size (int_range 1 4) gen_record));
        (crash, return Crash);
        (* steps on a binary grid, so a crash often lands exactly on an
           Async record's deadline *)
        (20, map (fun d -> Tick d) (oneofl [ 0.0; 0.5; 1.0; 2.0 ]));
      ])

let gen_policy =
  QCheck.Gen.oneofl [ Wal.Sync_on_commit; Wal.Sync_on_prepare; Wal.Async 2.0 ]

let print_action = function
  | Flat_stage (op, key, v, value) -> Printf.sprintf "stage(%d,%d,%d,%s)" op key v value
  | Flat_commit (op, key, v, value) -> Printf.sprintf "commit(%d,%d,%d,%s)" op key v value
  | Flat_install (key, v, value) -> Printf.sprintf "install(%d,%d,%s)" key v value
  | Append _ -> "append"
  | Append_batch rs -> Printf.sprintf "batch(%d)" (List.length rs)
  | Crash -> "crash"
  | Tick d -> Printf.sprintf "tick(%g)" d

(* What a replay leaves in a fresh store, over the generated op/key range. *)
let store_view store =
  ( List.init 6 (fun key -> Store.read store ~key),
    Store.staged_count store,
    List.init 6 (fun op ->
        ( Store.staged store ~op,
          Option.map Batch.to_list (Store.staged_many store ~op) )) )

(* Every observable of the two logs agrees, including a replay and a
   committed tail from three cut points. *)
let agree wal model =
  let next = Wal.next_index wal in
  Wal.length wal = Model.length model
  && Wal.lost_total wal = Model.lost_total model
  && Wal.syncs wal = Model.syncs model
  && next = Model.next_index model
  && Wal.resume_state wal = Model.resume_state model
  && List.for_all
       (fun index ->
         let s1 = Store.create () and s2 = Store.create () in
         Wal.replay_from wal s1 ~index = Model.replay_from model s2 ~index
         && store_view s1 = store_view s2
         && Batch.to_list (Wal.committed_since wal ~index)
            = Model.committed_since model ~index)
       [ 0; next / 2; next ]

(* Drive both logs through [actions]; false at the first disagreement
   (checked after every crash and at the end). *)
let run_both policy actions =
  let now, set = clock () in
  let wal = Wal.create ~policy ~now () and model = Model.create ~policy ~now () in
  let step ok action =
    ok
    &&
    match action with
    | Flat_stage (op, key, v, value) ->
      Wal.stage wal ~op ~key ~version:v ~sid:0 ~value;
      Model.append model (Wal.Stage { op; key; ts = ts v; value });
      true
    | Flat_commit (op, key, v, value) ->
      Wal.commit wal ~op ~key ~version:v ~sid:0 ~value;
      Model.append model (Wal.Commit { op; key; ts = ts v; value });
      true
    | Flat_install (key, v, value) ->
      Wal.install wal ~key ~version:v ~sid:0 ~value;
      Model.append model (Wal.Install { key; ts = ts v; value });
      true
    | Append r ->
      Wal.append wal r;
      Model.append model r;
      true
    | Append_batch rs ->
      Wal.append_batch wal rs;
      Model.append_batch model rs;
      true
    | Crash ->
      Wal.crash wal;
      Model.crash model;
      agree wal model
    | Tick d ->
      set (now () +. d);
      true
  in
  List.fold_left step true actions && agree wal model

let arb_run ~crash ~len =
  QCheck.make
    ~print:(fun (p, acts) ->
      Wal.policy_to_string p ^ ": " ^ String.concat " " (List.map print_action acts))
    QCheck.Gen.(pair gen_policy (list_size len (gen_action ~crash)))

let prop_matches_model =
  QCheck.Test.make ~name:"columnar WAL matches the list model" ~count:300
    (arb_run ~crash:10 ~len:(QCheck.Gen.int_range 0 60))
    (fun (policy, actions) -> run_both policy actions)

(* Logs long enough to span several storage chunks, with crashes
   compacting rows across chunk boundaries. *)
let prop_long_logs_match_model =
  QCheck.Test.make ~name:"long columnar WAL matches the list model" ~count:12
    (arb_run ~crash:1 ~len:(QCheck.Gen.int_range 2_000 4_000))
    (fun (policy, actions) -> run_both policy actions)

(* The pinned Async boundary, through both logs: a crash at exactly
   t + lag keeps the record, one an instant earlier loses it. *)
let test_model_async_boundary () =
  let policy = Wal.Async 2.0 in
  let rec_ = Flat_commit (1, 1, 1, "a") in
  Alcotest.(check bool) "crash at t+lag: logs agree" true
    (run_both policy [ Tick 1.0; rec_; Tick 2.0; Crash ]);
  Alcotest.(check bool) "crash before t+lag: logs agree" true
    (run_both policy [ Tick 1.0; rec_; Tick 1.5; Crash ]);
  let now, set = clock () in
  let wal = Wal.create ~policy ~now () in
  set 1.0;
  Wal.commit wal ~op:1 ~key:1 ~version:1 ~sid:0 ~value:"a";
  set 3.0;
  Wal.crash wal;
  Alcotest.(check int) "the record survives at exactly t+lag" 1 (Wal.length wal)

let suite =
  [
    Alcotest.test_case "policy strings" `Quick test_policy_strings;
    Alcotest.test_case "invalid async lag" `Quick test_invalid_lag;
    Alcotest.test_case "sync-on-commit crash semantics" `Quick
      test_sync_on_commit_crash;
    Alcotest.test_case "sync-on-prepare crash semantics" `Quick
      test_sync_on_prepare_crash;
    Alcotest.test_case "async flush lag" `Quick test_async_lag;
    Alcotest.test_case "async boundary is inclusive" `Quick
      test_async_boundary_inclusive;
    Alcotest.test_case "group commit: one sync per batch" `Quick
      test_group_commit_one_sync_per_batch;
    Alcotest.test_case "group commit: force detection per policy" `Quick
      test_group_commit_force_detection;
    Alcotest.test_case "flat batch appends match record appends" `Quick
      test_flat_batches_match_records;
    Alcotest.test_case "replay rebuilds a batched stage" `Quick
      test_replay_rebuilds_batch_stage;
    Alcotest.test_case "replay keeps installs monotone" `Quick
      test_replay_order;
    Alcotest.test_case "replay honors aborts" `Quick
      test_replay_abort_clears_stage;
    Alcotest.test_case "commit records are self-contained" `Quick
      test_commit_record_self_contained;
    Alcotest.test_case "tail boundary is inclusive at the stamp" `Quick
      test_tail_boundary_at_stamp;
    Alcotest.test_case "replay_from honors the stamp boundary" `Quick
      test_replay_from_boundary;
    Alcotest.test_case "indices monotone across crashes" `Quick
      test_indices_monotone_across_crash;
    Alcotest.test_case "crash right after a marked chunk resumes" `Quick
      test_resume_after_install_crash;
    Alcotest.test_case "model: async boundary" `Quick test_model_async_boundary;
    QCheck_alcotest.to_alcotest prop_matches_model;
    QCheck_alcotest.to_alcotest prop_long_logs_match_model;
  ]
