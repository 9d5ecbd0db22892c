(* Committed state lives in an insert-only open-addressing table keyed
   by key id: linear probing over parallel key/version/sid/value columns
   (unboxed version and sid), a power-of-two size, at most half full.  A
   committed key is never removed, so the table needs no deletion, and
   its size follows the keys the replica holds, whatever their ids.  An
   empty slot holds [no_key] and reads as a never-written key,
   (0, 0, ""), so a lookup yields one slot whether or not the key is
   there.  The table starts as one empty slot, takes 128 slots at the
   first install and 512 at the first growth (each column then lives in
   the major heap), and doubles after that. *)
let no_key = Probe.empty

(* Staged writes live in an open-addressing table keyed by op id: linear
   probing over parallel columns, at most half full, with backward-shift
   deletion (no tombstones), so lookups stay O(1) expected however many
   stages leak (an Abort lost under faults never clears its stage).  A
   slot holds one op's stage: a single write in the key/version/sid/value
   columns, or a batch in [s_batch] (the first [s_len] writes of it).  So
   a stage of either kind replaces the other under the same op id, and
   staging and committing allocate nothing beyond amortized table
   growth; the table is only allocated by the first stage. *)
let no_op = Probe.empty  (* an empty slot of [s_ops] *)

(* [s_batch] of a slot holding a single write. *)
let no_batch = Batch.make ~keys:[||] ~versions:[||] ~sids:[||] ~values:[||]

type t = {
  mutable keys : int array;  (* [no_key] = empty *)
  mutable versions : int array;
  mutable sids : int array;
  mutable values : string array;
  mutable count : int;  (* committed keys *)
  mutable s_ops : int array;  (* power-of-two size; [no_op] = empty *)
  mutable s_keys : int array;
  mutable s_versions : int array;
  mutable s_sids : int array;
  mutable s_values : string array;
  mutable s_batch : Batch.t array;
      (* a staged batch, write order: the Prepare_batch envelope's own
         arrays until WAL replay appends to it, which copies on growth *)
  mutable s_len : int array;  (* writes of [s_batch] in force *)
  mutable s_count : int;
}

let create () =
  {
    keys = [| no_key |];
    versions = [| 0 |];
    sids = [| 0 |];
    values = [| "" |];
    count = 0;
    s_ops = [||];
    s_keys = [||];
    s_versions = [||];
    s_sids = [||];
    s_values = [||];
    s_batch = [||];
    s_len = [||];
    s_count = 0;
  }

(* ts_a newer than ts_b, unboxed (see Timestamp.newer_than). *)
let newer av asid bv bsid = av > bv || (av = bv && asid < bsid)

let committed_slot t ~key = Probe.slot t.keys key

let committed_version t i = t.versions.(i)
let committed_sid t i = t.sids.(i)
let committed_value t i = t.values.(i)
let version_of t ~key = t.versions.(committed_slot t ~key)
let sid_of t ~key = t.sids.(committed_slot t ~key)
let value_of t ~key = t.values.(committed_slot t ~key)

let read t ~key =
  let i = committed_slot t ~key in
  (Timestamp.make ~version:t.versions.(i) ~sid:t.sids.(i), t.values.(i))

let grow_committed t =
  let keys = t.keys and versions = t.versions and sids = t.sids
  and values = t.values in
  let cap =
    match Array.length keys with 1 -> 128 | 128 -> 512 | n -> 2 * n
  in
  t.keys <- Array.make cap no_key;
  t.versions <- Array.make cap 0;
  t.sids <- Array.make cap 0;
  t.values <- Array.make cap "";
  Array.iteri
    (fun j key ->
      if key <> no_key then begin
        let i = committed_slot t ~key in
        t.keys.(i) <- key;
        t.versions.(i) <- versions.(j);
        t.sids.(i) <- sids.(j);
        t.values.(i) <- values.(j)
      end)
    keys

let install_flat t ~key ~version ~sid ~value =
  if key = no_key then invalid_arg "Store.install: key min_int";
  let i = committed_slot t ~key in
  if newer version sid t.versions.(i) t.sids.(i) then begin
    let i =
      if t.keys.(i) = key then i
      else begin
        t.count <- t.count + 1;
        if 2 * t.count <= Array.length t.keys then i
        else begin
          grow_committed t;
          committed_slot t ~key
        end
      end
    in
    t.keys.(i) <- key;
    t.versions.(i) <- version;
    t.sids.(i) <- sid;
    t.values.(i) <- value;
    true
  end
  else false

let install t ~key ~(ts : Timestamp.t) ~value =
  install_flat t ~key ~version:ts.Timestamp.version ~sid:ts.Timestamp.sid ~value

(* --- staged writes --------------------------------------------------------- *)

(* Slot holding [op]'s stage, or -1. *)
let find_slot t ~op =
  if t.s_count = 0 then -1
  else
    let i = Probe.slot t.s_ops op in
    if t.s_ops.(i) = op then i else -1

let is_batch t i = t.s_batch.(i) != no_batch

let staged_slot t ~op =
  let i = find_slot t ~op in
  if i >= 0 && not (is_batch t i) then i else -1

let slot_key t i = t.s_keys.(i)
let slot_version t i = t.s_versions.(i)
let slot_sid t i = t.s_sids.(i)
let slot_value t i = t.s_values.(i)

let staged_batch_slot t ~op =
  let i = find_slot t ~op in
  if i >= 0 && is_batch t i then i else -1

let slot_batch t i = t.s_batch.(i)
let slot_length t i = t.s_len.(i)

(* Insert [op] (known absent) into a table with room for it; returns its
   slot. *)
let insert_fresh t ~op =
  let i = Probe.slot t.s_ops op in
  t.s_ops.(i) <- op;
  t.s_count <- t.s_count + 1;
  i

let move_slot t ~src ~dst =
  t.s_ops.(dst) <- t.s_ops.(src);
  t.s_keys.(dst) <- t.s_keys.(src);
  t.s_versions.(dst) <- t.s_versions.(src);
  t.s_sids.(dst) <- t.s_sids.(src);
  t.s_values.(dst) <- t.s_values.(src);
  t.s_batch.(dst) <- t.s_batch.(src);
  t.s_len.(dst) <- t.s_len.(src)

let grow_staging t =
  let ops = t.s_ops and keys = t.s_keys and versions = t.s_versions
  and sids = t.s_sids and values = t.s_values and batch = t.s_batch
  and len = t.s_len in
  let cap = max 16 (2 * Array.length ops) in
  t.s_ops <- Array.make cap no_op;
  t.s_keys <- Array.make cap 0;
  t.s_versions <- Array.make cap 0;
  t.s_sids <- Array.make cap 0;
  t.s_values <- Array.make cap "";
  t.s_batch <- Array.make cap no_batch;
  t.s_len <- Array.make cap 0;
  t.s_count <- 0;
  Array.iteri
    (fun i op ->
      if op <> no_op then begin
        let j = insert_fresh t ~op in
        t.s_keys.(j) <- keys.(i);
        t.s_versions.(j) <- versions.(i);
        t.s_sids.(j) <- sids.(i);
        t.s_values.(j) <- values.(i);
        t.s_batch.(j) <- batch.(i);
        t.s_len.(j) <- len.(i)
      end)
    ops

(* The slot for a new stage of [op]: its current one, or a fresh one. *)
let slot_for t ~op =
  let i = find_slot t ~op in
  if i >= 0 then i
  else begin
    if 2 * (t.s_count + 1) > Array.length t.s_ops then grow_staging t;
    insert_fresh t ~op
  end

(* Backward-shift deletion, so probing never needs a tombstone. *)
let remove_slot t i =
  let hole = ref i and j = ref (Probe.next_shift t.s_ops i) in
  while !j >= 0 do
    move_slot t ~src:!j ~dst:!hole;
    hole := !j;
    j := Probe.next_shift t.s_ops !j
  done;
  t.s_ops.(!hole) <- no_op;
  t.s_values.(!hole) <- "";
  t.s_batch.(!hole) <- no_batch;
  t.s_count <- t.s_count - 1

let put_single t ~op ~key ~version ~sid ~value =
  let i = slot_for t ~op in
  t.s_keys.(i) <- key;
  t.s_versions.(i) <- version;
  t.s_sids.(i) <- sid;
  t.s_values.(i) <- value;
  t.s_batch.(i) <- no_batch;
  t.s_len.(i) <- 0

let stage_flat t ~op ~key ~version ~sid ~value =
  put_single t ~op ~key ~version ~sid ~value

let stage t ~op ~key ~(ts : Timestamp.t) ~value =
  stage_flat t ~op ~key ~version:ts.Timestamp.version ~sid:ts.Timestamp.sid
    ~value

let has_staged t ~op = staged_slot t ~op >= 0

let staged t ~op =
  let i = staged_slot t ~op in
  if i < 0 then None
  else
    Some
      ( t.s_keys.(i),
        Timestamp.make ~version:t.s_versions.(i) ~sid:t.s_sids.(i),
        t.s_values.(i) )

let stage_many t ~op (writes : Batch.t) =
  let i = slot_for t ~op in
  t.s_values.(i) <- "";
  t.s_batch.(i) <- writes;
  t.s_len.(i) <- Batch.length writes

let staged_many t ~op =
  let i = staged_batch_slot t ~op in
  if i < 0 then None
  else
    let b = t.s_batch.(i) and n = t.s_len.(i) in
    if n = Batch.length b then Some b
    else
      Some
        (Batch.make ~keys:(Array.sub b.keys 0 n) ~versions:(Array.sub b.versions 0 n)
           ~sids:(Array.sub b.sids 0 n) ~values:(Array.sub b.values 0 n))

let staged_batch_size t ~op =
  let i = staged_batch_slot t ~op in
  if i < 0 then 0 else t.s_len.(i)

(* Append a write to the batch in slot [i].  A batch whose arrays are full
   may share them with the envelope it came in, so growth copies into
   doubled arrays that this store alone owns. *)
let push_write t i ~key ~version ~sid ~value =
  let b = t.s_batch.(i) and n = t.s_len.(i) in
  let b =
    if n < Batch.length b then b
    else begin
      let cap = max 4 (2 * n) in
      let grow a empty =
        let g = Array.make cap empty in
        Array.blit a 0 g 0 n;
        g
      in
      let g =
        Batch.make ~keys:(grow b.keys 0) ~versions:(grow b.versions 0)
          ~sids:(grow b.sids 0) ~values:(grow b.values "")
      in
      t.s_batch.(i) <- g;
      g
    end
  in
  b.keys.(n) <- key;
  b.versions.(n) <- version;
  b.sids.(n) <- sid;
  b.values.(n) <- value;
  t.s_len.(i) <- n + 1

(* WAL replay path: successive Stage records of one op accumulate into a
   batch instead of clobbering each other (plain [stage] keeps last-write-
   wins semantics for re-prepared single writes).  Appends are amortized
   O(1), so replaying a k-write batch is O(k), not the O(k²) the old
   list-append accumulation cost. *)
let stage_accum t ~op ~key ~version ~sid ~value =
  let i = find_slot t ~op in
  if i < 0 then put_single t ~op ~key ~version ~sid ~value
  else begin
    if not (is_batch t i) then begin
      (* The single write becomes the batch's first. *)
      let first =
        Batch.make ~keys:[| t.s_keys.(i) |] ~versions:[| t.s_versions.(i) |]
          ~sids:[| t.s_sids.(i) |] ~values:[| t.s_values.(i) |]
      in
      t.s_values.(i) <- "";
      t.s_batch.(i) <- first;
      t.s_len.(i) <- 1
    end;
    push_write t i ~key ~version ~sid ~value
  end

let commit_staged t ~op =
  let i = find_slot t ~op in
  if i < 0 then false
  else begin
    let b = t.s_batch.(i) in
    if b == no_batch then begin
      let key = t.s_keys.(i) and version = t.s_versions.(i)
      and sid = t.s_sids.(i) and value = t.s_values.(i) in
      remove_slot t i;
      ignore (install_flat t ~key ~version ~sid ~value)
    end
    else begin
      let n = t.s_len.(i) in
      remove_slot t i;
      for j = 0 to n - 1 do
        ignore
          (install_flat t ~key:b.keys.(j) ~version:b.versions.(j) ~sid:b.sids.(j)
             ~value:b.values.(j))
      done
    end;
    true
  end

let abort_staged t ~op =
  let i = find_slot t ~op in
  if i >= 0 then remove_slot t i

let staged_count t = t.s_count

(* Committed keys that pass [keep], ascending. *)
let sorted_keys t keep =
  Array.fold_left (fun acc k -> if k <> no_key && keep k then k :: acc else acc)
    [] t.keys
  |> List.sort Int.compare

(* Snapshot export: the committed entries with lo <= key < hi, ascending.
   The store is mutated only between engine events, so any single-event
   caller sees a consistent cut by construction; chunking a key range per
   call keeps each transfer message bounded.  A range no wider than the
   table probes each of its keys in order; a wider one sorts the table's
   keys that fall in it. *)
let snapshot_chunk t ~lo ~hi =
  if lo > hi then invalid_arg "Store.snapshot_chunk: lo > hi";
  let b = Batch.Builder.create ~capacity:64 () in
  let push key =
    let i = committed_slot t ~key in
    if key <> no_key && t.keys.(i) = key then
      Batch.Builder.push b ~key ~version:t.versions.(i) ~sid:t.sids.(i)
        ~value:t.values.(i)
  in
  let width = hi - lo (* negative on overflow *) in
  if width >= 0 && width <= Array.length t.keys then
    for j = 0 to width - 1 do
      push (lo + j)
    done
  else List.iter push (sorted_keys t (fun k -> lo <= k && k < hi));
  Batch.Builder.snapshot b

(* Snapshot import: a monotone merge, never an overwrite — an entry older
   than what the recipient already holds (own WAL replay, an earlier
   chunk, concurrent repairs) loses the [newer] race and changes
   nothing.  Returns how many entries advanced local state. *)
let import_chunk t chunk =
  let changed = ref 0 in
  for i = 0 to Batch.length chunk - 1 do
    if
      install_flat t ~key:(Batch.key chunk i) ~version:(Batch.version chunk i)
        ~sid:(Batch.sid chunk i) ~value:(Batch.value chunk i)
    then incr changed
  done;
  !changed

let keys t = sorted_keys t (fun _ -> true)
