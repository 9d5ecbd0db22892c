module Heap = Dsutil.Heap

let test_empty () =
  let h = Heap.create ~compare:Int.compare in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check int) "length" 0 (Heap.length h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Heap.peek h = None)

let test_ordering () =
  let h = Heap.create ~compare:Int.compare in
  List.iter (fun k -> Heap.push h k (string_of_int k)) [ 5; 3; 8; 1; 9; 2 ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (k, _) ->
      order := k :: !order;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 8; 9 ] (List.rev !order)

let test_fifo_ties () =
  let h = Heap.create ~compare:Int.compare in
  List.iter (fun v -> Heap.push h 1 v) [ "a"; "b"; "c" ];
  let vs =
    List.init 3 (fun _ ->
        match Heap.pop h with Some (_, v) -> v | None -> assert false)
  in
  Alcotest.(check (list string)) "FIFO among ties" [ "a"; "b"; "c" ] vs

let test_interleaved () =
  let h = Heap.create ~compare:Int.compare in
  Heap.push h 4 "d";
  Heap.push h 2 "b";
  Alcotest.(check bool) "peek min" true (Heap.peek h = Some (2, "b"));
  ignore (Heap.pop h);
  Heap.push h 1 "a";
  Heap.push h 3 "c";
  Alcotest.(check bool) "pop a" true (Heap.pop h = Some (1, "a"));
  Alcotest.(check bool) "pop c" true (Heap.pop h = Some (3, "c"));
  Alcotest.(check bool) "pop d" true (Heap.pop h = Some (4, "d"))

let test_to_sorted_list () =
  let h = Heap.create ~compare:Int.compare in
  Alcotest.(check bool) "empty sorted list" true (Heap.to_sorted_list h = []);
  List.iter (fun k -> Heap.push h k k) [ 3; 1; 2 ];
  Alcotest.(check bool) "sorted list" true
    (Heap.to_sorted_list h = [ (1, 1); (2, 2); (3, 3) ]);
  Alcotest.(check int) "non-destructive" 3 (Heap.length h)

let test_clear () =
  let h = Heap.create ~compare:Int.compare in
  Heap.push h 1 ();
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

let test_min_key () =
  let h = Heap.create ~compare:Int.compare in
  Alcotest.check_raises "empty heap"
    (Invalid_argument "Heap.min_key: empty heap") (fun () ->
      ignore (Heap.min_key h));
  Heap.push h 7 "g";
  Heap.push h 2 "b";
  Heap.push h 5 "e";
  Alcotest.(check int) "min without pop" 2 (Heap.min_key h);
  Alcotest.(check int) "length untouched" 3 (Heap.length h)

(* --- space-leak regressions: released slots must not pin entries ---

   The helpers are [@inline never] so the tested values live only in
   their (discarded) stack frames, not the caller's, by the time the
   caller forces a major collection. *)

let[@inline never] push_and_pop_tracked h =
  let v = ref 42 in
  let w = Weak.create 1 in
  Weak.set w 0 (Some v);
  Heap.push h 0 v;
  (* Key 0 is the minimum: this pop removes exactly [v]. *)
  ignore (Heap.pop h);
  w

let test_pop_releases_value () =
  let h = Heap.create ~compare:Int.compare in
  (* Keep the heap non-empty so the backing array itself stays live; the
     leak under test is a stale pointer in a released slot. *)
  Heap.push h 5 (ref 0);
  let w = push_and_pop_tracked h in
  Gc.full_major ();
  Alcotest.(check bool) "popped value collected" false (Weak.check w 0);
  Alcotest.(check int) "heap intact" 1 (Heap.length h)

let[@inline never] fill_tracked h count =
  let w = Weak.create count in
  for i = 0 to count - 1 do
    let v = ref i in
    Weak.set w i (Some v);
    Heap.push h i v
  done;
  w

let test_drain_releases_everything () =
  let h = Heap.create ~compare:Int.compare in
  (* 40 entries cross the 16 → 32 → 64 growth path: spare slots created
     by [grow] must not retain entries either. *)
  let w = fill_tracked h 40 in
  for _ = 1 to 40 do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  for i = 0 to 39 do
    Alcotest.(check bool)
      (Printf.sprintf "entry %d collected" i)
      false (Weak.check w i)
  done;
  Heap.push h 1 (ref 1);
  Alcotest.(check bool) "heap reusable" true (Heap.pop h <> None)

let test_clear_releases_everything () =
  let h = Heap.create ~compare:Int.compare in
  let w = fill_tracked h 10 in
  Heap.clear h;
  Gc.full_major ();
  for i = 0 to 9 do
    Alcotest.(check bool)
      (Printf.sprintf "entry %d collected" i)
      false (Weak.check w i)
  done

let test_large_random () =
  let rng = Dsutil.Rng.create 31 in
  let h = Heap.create ~compare:Int.compare in
  let keys = List.init 5000 (fun _ -> Dsutil.Rng.int rng 1000) in
  List.iter (fun k -> Heap.push h k ()) keys;
  let rec drain last acc =
    match Heap.pop h with
    | None -> acc
    | Some (k, ()) ->
      Alcotest.(check bool) "non-decreasing" true (k >= last);
      drain k (acc + 1)
  in
  Alcotest.(check int) "drained all" 5000 (drain min_int 0)

(* The flat event queue claims pop-order identity with
   [Heap.create ~compare:Float.compare]: (time, insertion seq) is a
   strict total order, so arity and layout cannot matter.  Drive both
   through the same randomized push/pop stream — a coarse key grid forces
   plenty of ties, so FIFO tie-breaking is what's really under test. *)
let test_fheap_matches_generic_heap () =
  let module Fheap = Dsutil.Fheap in
  let rng = Dsutil.Rng.create 4242 in
  let fh = Fheap.create ~dummy_h:(-1) ~dummy_p:"" in
  let key = Float.Array.make 1 0.0 and clock = Float.Array.make 1 nan in
  let h = Heap.create ~compare:Float.compare in
  let next_id = ref 0 in
  let popped = ref 0 in
  let check_pop () =
    match Heap.pop h with
    | None -> Alcotest.(check bool) "both empty" true (Fheap.is_empty fh)
    | Some (k, id) ->
      incr popped;
      let got =
        Fheap.pop_apply fh clock (fun handler meta payload ->
            Alcotest.(check (float 0.0)) "same key" k (Float.Array.get clock 0);
            Alcotest.(check int) "same entry" id meta;
            Alcotest.(check int) "handler rides along" id handler;
            Alcotest.(check string) "payload rides along" (string_of_int id)
              payload)
      in
      Alcotest.(check bool) "flat heap not empty" true got
  in
  for _round = 1 to 4 do
    for _ = 1 to 3000 do
      if Dsutil.Rng.int rng 3 = 0 then check_pop ()
      else begin
        (* 40 distinct keys over thousands of pushes: ties everywhere *)
        let k = float_of_int (Dsutil.Rng.int rng 40) in
        let id = !next_id in
        incr next_id;
        Heap.push h k id;
        Float.Array.set key 0 k;
        Fheap.push fh key id id (string_of_int id)
      end
    done;
    Alcotest.(check int) "same length" (Heap.length h) (Fheap.length fh);
    if not (Heap.is_empty h) then
      Alcotest.(check (float 0.0)) "same min key" (Heap.min_key h)
        (Fheap.min_key fh)
  done;
  while not (Heap.is_empty h) do
    check_pop ()
  done;
  Alcotest.(check bool) "flat heap drained" true (Fheap.is_empty fh);
  Alcotest.(check bool) "popped plenty" true (!popped > 5000)

let test_fheap_clear () =
  let module Fheap = Dsutil.Fheap in
  let fh = Fheap.create ~dummy_h:0 ~dummy_p:() in
  let key = Float.Array.make 1 0.0 and clock = Float.Array.make 1 0.0 in
  let push k h meta =
    Float.Array.set key 0 k;
    Fheap.push fh key h meta ()
  in
  for i = 1 to 100 do
    push (float_of_int (i mod 7)) i 0
  done;
  Fheap.clear fh;
  Alcotest.(check bool) "empty after clear" true (Fheap.is_empty fh);
  Alcotest.(check int) "length 0" 0 (Fheap.length fh);
  Alcotest.(check bool) "pop on empty" false
    (Fheap.pop_apply fh clock (fun _ _ _ -> Alcotest.fail "popped from empty"));
  (* reusable after clear, slots recycle correctly *)
  push 2.0 1 10;
  push 1.0 2 20;
  let order = ref [] in
  while Fheap.pop_apply fh clock (fun _ meta _ -> order := meta :: !order) do
    ()
  done;
  Alcotest.(check (list int)) "ordered after reuse" [ 20; 10 ] (List.rev !order)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "pop ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO among equal keys" `Quick test_fifo_ties;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved;
    Alcotest.test_case "to_sorted_list" `Quick test_to_sorted_list;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "min_key" `Quick test_min_key;
    Alcotest.test_case "pop releases value (no leak)" `Quick
      test_pop_releases_value;
    Alcotest.test_case "drain releases everything (grow path)" `Quick
      test_drain_releases_everything;
    Alcotest.test_case "clear releases everything" `Quick
      test_clear_releases_everything;
    Alcotest.test_case "large random drain" `Quick test_large_random;
    Alcotest.test_case "flat heap matches generic heap" `Quick
      test_fheap_matches_generic_heap;
    Alcotest.test_case "flat heap clear and reuse" `Quick test_fheap_clear;
  ]
