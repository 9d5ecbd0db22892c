(* Equivalence suite for the array-backed store: a randomized op stream
   drives the flat implementation and a plain-hashtable reference model
   side by side and asserts identical observable state after every step.
   The key universe deliberately straddles the dense/spill boundary —
   small ids, ids just under and over the dense limit (2^16), and
   negative ids — so both representations are exercised by one stream.
   Also holds the regression test for the [stage_accum] replay path,
   which used to rebuild the staged batch by quadratic list append. *)

module Store = Replication.Store
module Timestamp = Replication.Timestamp
module Batch = Replication.Batch
module Rng = Dsutil.Rng

let ts v s = Timestamp.make ~version:v ~sid:s

(* --- reference model ---------------------------------------------------

   The observable contract of store.mli, implemented the obvious way:
   one hashtable of committed (ts, value) per key, one of staged single
   writes per op, one of staged batches (write-order lists) per op. *)

module Model = struct
  type t = {
    committed : (int, Timestamp.t * string) Hashtbl.t;
    pending : (int, int * Timestamp.t * string) Hashtbl.t;
    pending_batch : (int, (int * Timestamp.t * string) list ref) Hashtbl.t;
  }

  let create () =
    {
      committed = Hashtbl.create 16;
      pending = Hashtbl.create 16;
      pending_batch = Hashtbl.create 16;
    }

  let read t ~key =
    match Hashtbl.find_opt t.committed key with
    | Some (ts, v) -> (ts, v)
    | None -> (Timestamp.zero, "")

  let install t ~key ~ts ~value =
    let cur, _ = read t ~key in
    if Timestamp.newer_than ts cur then begin
      Hashtbl.replace t.committed key (ts, value);
      true
    end
    else false

  let stage t ~op ~key ~ts ~value =
    Hashtbl.remove t.pending_batch op;
    Hashtbl.replace t.pending op (key, ts, value)

  let stage_many t ~op writes =
    Hashtbl.remove t.pending op;
    Hashtbl.replace t.pending_batch op (ref writes)

  let stage_accum t ~op ~key ~ts ~value =
    match Hashtbl.find_opt t.pending_batch op with
    | Some l -> l := !l @ [ (key, ts, value) ]
    | None -> (
      match Hashtbl.find_opt t.pending op with
      | Some w0 ->
        Hashtbl.remove t.pending op;
        Hashtbl.replace t.pending_batch op (ref [ w0; (key, ts, value) ])
      | None -> Hashtbl.replace t.pending op (key, ts, value))

  let commit_staged t ~op =
    match Hashtbl.find_opt t.pending op with
    | Some (key, ts, value) ->
      Hashtbl.remove t.pending op;
      ignore (install t ~key ~ts ~value);
      true
    | None -> (
      match Hashtbl.find_opt t.pending_batch op with
      | Some l ->
        Hashtbl.remove t.pending_batch op;
        List.iter (fun (key, ts, value) -> ignore (install t ~key ~ts ~value)) !l;
        true
      | None -> false)

  let abort_staged t ~op =
    Hashtbl.remove t.pending op;
    Hashtbl.remove t.pending_batch op

  let staged_count t = Hashtbl.length t.pending + Hashtbl.length t.pending_batch

  let keys t =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.committed []
    |> List.sort_uniq Int.compare
end

(* --- randomized driver ------------------------------------------------- *)

let dense_limit = 1 lsl 16

(* Mixed key universe: dense low ids, boundary ids, spill ids. *)
let random_key rng =
  match Rng.int rng 6 with
  | 0 | 1 | 2 -> Rng.int rng 64
  | 3 -> dense_limit - 1 - Rng.int rng 4
  | 4 -> dense_limit + Rng.int rng 1000
  | _ -> -1 - Rng.int rng 1000

let random_ts rng = ts (1 + Rng.int rng 8) (Rng.int rng 9)
let random_value rng = Printf.sprintf "v%d" (Rng.int rng 1000)

let check_key store model key =
  let mts, mv = Model.read model ~key in
  let sts, sv = Store.read store ~key in
  Alcotest.(check bool)
    (Printf.sprintf "key %d timestamp" key)
    true
    (Timestamp.equal mts sts);
  Alcotest.(check string) (Printf.sprintf "key %d value" key) mv sv;
  (* flat accessors agree with [read] *)
  Alcotest.(check int) "version_of" mts.Timestamp.version
    (Store.version_of store ~key);
  Alcotest.(check int) "sid_of" mts.Timestamp.sid (Store.sid_of store ~key);
  Alcotest.(check string) "value_of" mv (Store.value_of store ~key)

let check_full store model touched =
  Hashtbl.iter (fun key () -> check_key store model key) touched;
  Alcotest.(check int) "staged_count" (Model.staged_count model)
    (Store.staged_count store);
  Alcotest.(check (list int)) "keys" (Model.keys model) (Store.keys store)

let test_equivalence () =
  let rng = Rng.create 20250808 in
  let store = Store.create () and model = Model.create () in
  let touched = Hashtbl.create 64 in
  let ops = 4000 in
  for step = 1 to ops do
    let op = Rng.int rng 12 in
    (match Rng.int rng 10 with
    | 0 | 1 | 2 ->
      let key = random_key rng and ts = random_ts rng in
      let value = random_value rng in
      Hashtbl.replace touched key ();
      Alcotest.(check bool) "install agrees"
        (Model.install model ~key ~ts ~value)
        (Store.install store ~key ~ts ~value)
    | 3 | 4 ->
      let key = random_key rng and ts = random_ts rng in
      let value = random_value rng in
      Hashtbl.replace touched key ();
      Model.stage model ~op ~key ~ts ~value;
      Store.stage store ~op ~key ~ts ~value
    | 5 ->
      let n = Rng.int rng 5 in
      let writes =
        List.init n (fun _ ->
            let key = random_key rng in
            Hashtbl.replace touched key ();
            (key, random_ts rng, random_value rng))
      in
      Model.stage_many model ~op writes;
      Store.stage_many store ~op (Batch.of_list writes)
    | 6 | 7 ->
      let key = random_key rng and ts = random_ts rng in
      let value = random_value rng in
      Hashtbl.replace touched key ();
      Model.stage_accum model ~op ~key ~ts ~value;
      Store.stage_accum store ~op ~key ~version:ts.Timestamp.version ~sid:ts.Timestamp.sid ~value
    | 8 ->
      Alcotest.(check bool) "commit agrees"
        (Model.commit_staged model ~op)
        (Store.commit_staged store ~op)
    | _ ->
      Model.abort_staged model ~op;
      Store.abort_staged store ~op);
    if step mod 50 = 0 then check_full store model touched
  done;
  (* flush every op id and compare the final committed state *)
  for op = 0 to 11 do
    Alcotest.(check bool) "final commit agrees"
      (Model.commit_staged model ~op)
      (Store.commit_staged store ~op)
  done;
  check_full store model touched

(* Staged single writes and batches must round-trip through the
   inspection accessors identically to the model. *)
let test_staged_inspection () =
  let store = Store.create () in
  Alcotest.(check bool) "nothing staged" false (Store.has_staged store ~op:1);
  Store.stage store ~op:1 ~key:5 ~ts:(ts 2 1) ~value:"a";
  Store.stage store ~op:1 ~key:6 ~ts:(ts 3 0) ~value:"b";
  (* last-write-wins per op id *)
  (match Store.staged store ~op:1 with
  | Some (k, t, v) ->
    Alcotest.(check int) "staged key" 6 k;
    Alcotest.(check bool) "staged ts" true (Timestamp.equal t (ts 3 0));
    Alcotest.(check string) "staged value" "b" v
  | None -> Alcotest.fail "expected a staged write");
  (* stage_many clobbers the single stage, and vice versa *)
  Store.stage_many store ~op:1
    (Batch.of_list [ (1, ts 1 0, "x"); (2, ts 1 0, "y") ]);
  Alcotest.(check bool) "single stage gone" false (Store.has_staged store ~op:1);
  Alcotest.(check int) "batch size" 2 (Store.staged_batch_size store ~op:1);
  (match Store.staged_many store ~op:1 with
  | Some b -> Alcotest.(check int) "batch length" 2 (Batch.length b)
  | None -> Alcotest.fail "expected a staged batch");
  Store.stage store ~op:1 ~key:9 ~ts:(ts 9 0) ~value:"z";
  Alcotest.(check int) "batch gone" 0 (Store.staged_batch_size store ~op:1);
  Alcotest.(check int) "one staged entry" 1 (Store.staged_count store)

(* Regression for the quadratic replay: [stage_accum] used to rebuild the
   staged batch with [writes @ [w]] per record, O(k^2) over a k-record
   batch.  Replaying a large batched prepare must stay linear — this run
   is ~30k records (the old code walked ~450M cons cells here) — and
   rebuild exactly the batch that was staged. *)
let test_stage_accum_large_replay () =
  let store = Store.create () in
  let n = 30_000 in
  for i = 0 to n - 1 do
    Store.stage_accum store ~op:7 ~key:(i mod 1000) ~version:(i + 1) ~sid:0
      ~value:(string_of_int i)
  done;
  Alcotest.(check int) "all records accumulated" n
    (Store.staged_batch_size store ~op:7);
  (* write order is preserved in the rebuilt batch *)
  (match Store.staged_many store ~op:7 with
  | Some b ->
    Alcotest.(check int) "first key" 0 (Batch.key b 0);
    Alcotest.(check int) "last key" ((n - 1) mod 1000) (Batch.key b (n - 1));
    Alcotest.(check int) "last version" n (Batch.version b (n - 1))
  | None -> Alcotest.fail "expected a staged batch");
  Alcotest.(check bool) "commit applies" true (Store.commit_staged store ~op:7);
  (* each key's newest write (largest version) wins *)
  let t0, v0 = Store.read store ~key:0 in
  Alcotest.(check int) "key 0 newest version" (n - 1000 + 1)
    t0.Timestamp.version;
  Alcotest.(check string) "key 0 newest value" (string_of_int (n - 1000)) v0;
  Alcotest.(check int) "nothing left staged" 0 (Store.staged_count store)

(* A single re-delivered Stage record (no batch context) must keep plain
   last-write-wins semantics; a second accum under the same op promotes
   the pair to a batch. *)
let test_stage_accum_promotion () =
  let store = Store.create () in
  Store.stage_accum store ~op:3 ~key:1 ~version:1 ~sid:0 ~value:"a";
  Alcotest.(check bool) "single stage first" true (Store.has_staged store ~op:3);
  Alcotest.(check int) "no batch yet" 0 (Store.staged_batch_size store ~op:3);
  Store.stage_accum store ~op:3 ~key:2 ~version:1 ~sid:0 ~value:"b";
  Alcotest.(check bool) "promoted away from single" false
    (Store.has_staged store ~op:3);
  Alcotest.(check int) "promoted to a 2-batch" 2
    (Store.staged_batch_size store ~op:3);
  Alcotest.(check bool) "commit applies both" true
    (Store.commit_staged store ~op:3);
  Alcotest.(check string) "first write landed" "a"
    (snd (Store.read store ~key:1));
  Alcotest.(check string) "second write landed" "b"
    (snd (Store.read store ~key:2))

(* Dense-array growth must not disturb ordering of [keys] across the
   spill boundary. *)
let test_keys_across_spill () =
  let store = Store.create () in
  let ks = [ -5; 3; dense_limit - 1; dense_limit + 2; 0; 40_000 ] in
  List.iter
    (fun key -> ignore (Store.install store ~key ~ts:(ts 1 0) ~value:"v"))
    ks;
  Alcotest.(check (list int)) "ascending across representations"
    (List.sort Int.compare ks) (Store.keys store)

let suite =
  [
    Alcotest.test_case "randomized equivalence vs reference model" `Quick
      test_equivalence;
    Alcotest.test_case "staged inspection accessors" `Quick
      test_staged_inspection;
    Alcotest.test_case "stage_accum large replayed batch" `Quick
      test_stage_accum_large_replay;
    Alcotest.test_case "stage_accum single-record promotion" `Quick
      test_stage_accum_promotion;
    Alcotest.test_case "keys across the spill boundary" `Quick
      test_keys_across_spill;
  ]
