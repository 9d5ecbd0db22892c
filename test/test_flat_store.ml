(* Equivalence suite for the flat store: a randomized op stream drives
   the open-addressing implementation and a plain-hashtable reference
   model side by side and asserts identical observable state after every
   step.  The key universe mixes small ids, ids past 2^16, negative ids,
   [max_int] and ids that share a home slot, so probing, growth and
   ordering are all exercised by one stream.  Also holds the regression
   test for the [stage_accum] replay path, which used to rebuild the
   staged batch by quadratic list append, and the store's footprint
   test. *)

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

  let snapshot_chunk t ~lo ~hi =
    List.filter_map
      (fun key ->
        if lo <= key && key < hi then
          let ts, v = read t ~key in
          Some (key, ts, v)
        else None)
      (keys t)
end

(* --- randomized driver ------------------------------------------------- *)

(* Keys [base + j * 2^40] share their home slot in every table of up to
   2^20 slots under a multiplicative hash, the kind the store uses: the
   step only changes bits of [key * c] above the ones the slot keeps. *)
let same_home base j = base + (j lsl 40)

(* Mixed key universe: small ids, ids past 2^16, negative ids, [max_int]
   and a run of ids that share a home slot. *)
let random_key rng =
  match Rng.int rng 6 with
  | 0 | 1 -> Rng.int rng 64
  | 2 -> (1 lsl 16) + Rng.int rng 1000
  | 3 -> same_home 7 (Rng.int rng 8)
  | 4 -> if Rng.int rng 4 = 0 then max_int else max_int - Rng.int rng 4
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

let install_both store model ~key ~ts ~value =
  Alcotest.(check bool)
    (Printf.sprintf "install %d agrees" key)
    (Model.install model ~key ~ts ~value)
    (Store.install store ~key ~ts ~value)

(* Keys anywhere in the int range, including runs that share a home slot,
   read back as the model holds them through every table growth. *)
let test_keys_anywhere () =
  let store = Store.create () and model = Model.create () in
  let ks =
    [ -5; min_int + 1; 3; (1 lsl 16) - 1; 1 lsl 16; (1 lsl 16) + 2; 0; max_int;
      max_int - 1; 40_000 ]
    @ List.init 12 (same_home 11)
    @ List.init 12 (fun j -> same_home (-3) (-j))
  in
  List.iteri
    (fun i key -> install_both store model ~key ~ts:(ts 1 i) ~value:"v")
    ks;
  (* enough dense keys to grow the table twice more *)
  for key = 100 to 399 do
    install_both store model ~key ~ts:(ts 2 0) ~value:(string_of_int key)
  done;
  (* an older write loses, a newer one wins, wherever the key lives *)
  List.iter
    (fun key ->
      install_both store model ~key ~ts:(ts 1 99) ~value:"old";
      install_both store model ~key ~ts:(ts 3 0) ~value:"new")
    [ max_int; same_home 11 5; -5; 250 ];
  List.iter (check_key store model) (ks @ List.init 400 Fun.id @ [ -4; min_int ]);
  Alcotest.(check (list int)) "keys after growth, ascending" (Model.keys model)
    (Store.keys store)

(* Snapshot chunks match the model's filtered, sorted view whether the
   range is narrower than the table (probed key by key) or wider (the
   table's keys sorted), and whatever the sign of its ends. *)
let test_snapshot_ranges () =
  let store = Store.create () and model = Model.create () in
  let rng = Rng.create 7 in
  for i = 0 to 199 do
    let key = if i mod 3 = 0 then random_key rng else Rng.int rng 500 - 100 in
    install_both store model ~key ~ts:(random_ts rng) ~value:(random_value rng)
  done;
  let flat =
    List.map (fun (k, ts, v) ->
        (k, (ts.Timestamp.version, (ts.Timestamp.sid, v))))
  in
  let check (lo, hi) =
    Alcotest.(check (list (pair int (pair int (pair int string)))))
      (Printf.sprintf "snapshot [%d, %d)" lo hi)
      (flat (Model.snapshot_chunk model ~lo ~hi))
      (flat (Batch.to_list (Store.snapshot_chunk store ~lo ~hi)))
  in
  List.iter check
    [
      (0, 64);  (* narrower than the table *)
      (-50, 30);  (* narrow, negative [lo] *)
      (17, 17);  (* empty *)
      (-100, 400);  (* wider than the table *)
      (-2000, 0);  (* wide, negative [lo] *)
      (min_int, min_int + 8);  (* narrow, holds the empty marker *)
      (max_int - 8, max_int);  (* narrow, excludes [max_int] *)
      (min_int, max_int);  (* wider than any table: overflowing width *)
      (0, max_int);
    ]

(* [min_int] marks an empty slot, so it is the one key that cannot be
   installed. *)
let test_min_int_rejected () =
  let store = Store.create () in
  Alcotest.check_raises "install min_int"
    (Invalid_argument "Store.install: key min_int") (fun () ->
      ignore (Store.install store ~key:min_int ~ts:(ts 1 0) ~value:"v"));
  Alcotest.(check (list int)) "nothing installed" [] (Store.keys store);
  Alcotest.(check int) "min_int reads as never written" 0
    (Store.version_of store ~key:min_int)

(* The committed table grows with the number of keys, not with their
   ids: 256 keys spread over [0, 2^20) cost a few words each. *)
let test_footprint () =
  let store = Store.create () in
  let rng = Rng.create 11 in
  let n = ref 0 in
  while !n < 256 do
    let key = Rng.int rng (1 lsl 20) in
    if Store.install store ~key ~ts:(ts 1 0) ~value:"v" then incr n
  done;
  let words = Obj.reachable_words (Obj.repr store) in
  if words >= 32 * 256 then
    Alcotest.failf "store of 256 keys reaches %d words (%.1f per key; bound 32)"
      words (float_of_int words /. 256.)

(* The probe column shared by the store and the coordinator: random
   inserts and backward-shift deletions of op-id-like keys (a stride of
   the network size, plus a few that share a home slot) keep exactly the
   live keys reachable, in a table kept at most half full. *)
let test_probe_deletion () =
  let module Probe = Replication.Probe in
  let rng = Rng.create 5 in
  let keys = ref (Array.make 16 Probe.empty) and live = Hashtbl.create 64 in
  let insert key =
    if 2 * (Hashtbl.length live + 1) > Array.length !keys then begin
      let old = !keys in
      keys := Array.make (2 * Array.length old) Probe.empty;
      Array.iter
        (fun k -> if k <> Probe.empty then !keys.(Probe.slot !keys k) <- k)
        old
    end;
    !keys.(Probe.slot !keys key) <- key;
    Hashtbl.replace live key ()
  in
  let remove key =
    let ks = !keys in
    let i = Probe.slot ks key in
    if ks.(i) = key then begin
      let hole = ref i and j = ref (Probe.next_shift ks i) in
      while !j >= 0 do
        ks.(!hole) <- ks.(!j);
        hole := !j;
        j := Probe.next_shift ks !j
      done;
      ks.(!hole) <- Probe.empty
    end;
    Hashtbl.remove live key
  in
  let random_op () =
    if Rng.int rng 5 = 0 then same_home 3 (Rng.int rng 8)
    else (Rng.int rng 300 * 9) + Rng.int rng 9
  in
  for step = 1 to 20_000 do
    let key = random_op () in
    if Rng.int rng 2 = 0 then insert key else remove key;
    if step mod 100 = 0 then begin
      let ks = !keys in
      Hashtbl.iter
        (fun key () ->
          Alcotest.(check int) (Printf.sprintf "key %d reachable" key) key
            ks.(Probe.slot ks key))
        live;
      Alcotest.(check int) "no other key held" (Hashtbl.length live)
        (Array.fold_left (fun n k -> if k = Probe.empty then n else n + 1) 0 ks)
    end
  done

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
    Alcotest.test_case "keys anywhere" `Quick test_keys_anywhere;
    Alcotest.test_case "snapshot ranges narrow, wide and negative" `Quick
      test_snapshot_ranges;
    Alcotest.test_case "installing min_int raises" `Quick
      test_min_int_rejected;
    Alcotest.test_case "store memory follows the keys it holds" `Quick
      test_footprint;
    Alcotest.test_case "probe deletion keeps live keys reachable" `Quick
      test_probe_deletion;
  ]
