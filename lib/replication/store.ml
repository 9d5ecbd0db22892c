(* Committed state lives in dense parallel arrays indexed by key id:
   unboxed version/sid columns and a string value column.  A key is
   absent exactly when its triple is (0, 0, "") — the same observable
   state [read] reports for never-written keys, and unreachable for a
   present key because [install] only ever stores a triple that won a
   [newer] race against (0, 0) (so a stored (0, 0, v) is impossible, and
   (0, s<0, "") is distinguishable).  Sparse and out-of-range keys spill
   to a hashtable. *)

let dense_limit = 1 lsl 16

(* Staged writes live in an open-addressing table keyed by op id: linear
   probing over parallel columns, at most half full, with backward-shift
   deletion (no tombstones), so lookups stay O(1) expected however many
   stages leak (an Abort lost under faults never clears its stage).  A
   slot holds one op's stage: a single write in the key/version/sid/value
   columns, or a batch in [s_batch] (the first [s_len] writes of it).  So
   a stage of either kind replaces the other under the same op id, and
   staging and committing allocate nothing beyond amortized table
   growth; the table is only allocated by the first stage. *)
let no_op = min_int  (* an empty slot of [s_ops] *)

(* [s_batch] of a slot holding a single write. *)
let no_batch = Batch.make ~keys:[||] ~versions:[||] ~sids:[||] ~values:[||]

type t = {
  mutable versions : int array;
  mutable sids : int array;
  mutable values : string array;
  spill : (int, int * int * string) Hashtbl.t;
      (* key -> (version, sid, value), for key < 0 or >= dense_limit *)
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
    versions = [||];
    sids = [||];
    values = [||];
    spill = Hashtbl.create 4;
    s_ops = [||];
    s_keys = [||];
    s_versions = [||];
    s_sids = [||];
    s_values = [||];
    s_batch = [||];
    s_len = [||];
    s_count = 0;
  }

let is_dense key = key >= 0 && key < dense_limit

(* ts_a newer than ts_b, unboxed (see Timestamp.newer_than). *)
let newer av asid bv bsid = av > bv || (av = bv && asid < bsid)

let version_of t ~key =
  if is_dense key then
    if key < Array.length t.versions then Array.unsafe_get t.versions key else 0
  else
    match Hashtbl.find t.spill key with
    | v, _, _ -> v
    | exception Not_found -> 0

let sid_of t ~key =
  if is_dense key then
    if key < Array.length t.sids then Array.unsafe_get t.sids key else 0
  else
    match Hashtbl.find t.spill key with
    | _, s, _ -> s
    | exception Not_found -> 0

let value_of t ~key =
  if is_dense key then
    if key < Array.length t.values then Array.unsafe_get t.values key else ""
  else
    match Hashtbl.find t.spill key with
    | _, _, v -> v
    | exception Not_found -> ""

let read t ~key =
  (Timestamp.make ~version:(version_of t ~key) ~sid:(sid_of t ~key),
   value_of t ~key)

let rec pow2_above n c = if c > n then c else pow2_above n (c * 2)

(* Columns start at 64 slots and double past the largest key seen, so a
   small key space costs three minor-heap arrays per replica, not three
   arrays allocated straight into the major heap. *)
let grow_dense t key =
  let cap = min dense_limit (pow2_above key (max 64 (Array.length t.versions))) in
  let versions = Array.make cap 0
  and sids = Array.make cap 0
  and values = Array.make cap "" in
  Array.blit t.versions 0 versions 0 (Array.length t.versions);
  Array.blit t.sids 0 sids 0 (Array.length t.sids);
  Array.blit t.values 0 values 0 (Array.length t.values);
  t.versions <- versions;
  t.sids <- sids;
  t.values <- values

let install_flat t ~key ~version ~sid ~value =
  if is_dense key then begin
    let within = key < Array.length t.versions in
    let cv = if within then Array.unsafe_get t.versions key else 0
    and cs = if within then Array.unsafe_get t.sids key else 0 in
    if newer version sid cv cs then begin
      if not within then grow_dense t key;
      Array.unsafe_set t.versions key version;
      Array.unsafe_set t.sids key sid;
      Array.unsafe_set t.values key value;
      true
    end
    else false
  end
  else begin
    let cv, cs =
      match Hashtbl.find t.spill key with
      | v, s, _ -> (v, s)
      | exception Not_found -> (0, 0)
    in
    if newer version sid cv cs then begin
      Hashtbl.replace t.spill key (version, sid, value);
      true
    end
    else false
  end

let install t ~key ~(ts : Timestamp.t) ~value =
  install_flat t ~key ~version:ts.Timestamp.version ~sid:ts.Timestamp.sid ~value

(* --- staged writes --------------------------------------------------------- *)

let home t op = ((op * 0x9E3779B97F4A7C1) lsr 20) land (Array.length t.s_ops - 1)

(* Slot holding [op]'s stage, or -1. *)
let find_slot t ~op =
  if t.s_count = 0 then -1
  else begin
    let mask = Array.length t.s_ops - 1 in
    let i = ref (home t op) in
    while
      let o = Array.unsafe_get t.s_ops !i in
      o <> op && o <> no_op
    do
      i := (!i + 1) land mask
    done;
    if Array.unsafe_get t.s_ops !i = op then !i else -1
  end

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
  let mask = Array.length t.s_ops - 1 in
  let i = ref (home t op) in
  while Array.unsafe_get t.s_ops !i <> no_op do
    i := (!i + 1) land mask
  done;
  t.s_ops.(!i) <- op;
  t.s_count <- t.s_count + 1;
  !i

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

(* Backward-shift deletion: pull every later member of the probe run that
   may live at or before the hole into it, so probing never needs a
   tombstone. *)
let remove_slot t i =
  let mask = Array.length t.s_ops - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while t.s_ops.(!j) <> no_op do
    let k = home t t.s_ops.(!j) in
    let h = !hole and jj = !j in
    (* [k] cyclically in (h, jj]: the entry must stay where it is *)
    let stays = if h <= jj then h < k && k <= jj else h < k || k <= jj in
    if not stays then begin
      move_slot t ~src:jj ~dst:h;
      hole := jj
    end;
    j := (jj + 1) land mask
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

(* Snapshot export: the committed entries with lo <= key < hi, ascending.
   The store is mutated only between engine events, so any single-event
   caller sees a consistent cut by construction; chunking a key range per
   call keeps each transfer message bounded.  Dense keys are a straight
   column scan; spill keys (outside the dense range) are collected and
   sorted only when the range can contain them. *)
let snapshot_chunk t ~lo ~hi =
  if lo > hi then invalid_arg "Store.snapshot_chunk: lo > hi";
  let b = Batch.Builder.create ~capacity:64 () in
  let dense_hi = min hi (Array.length t.versions) in
  for key = max lo 0 to dense_hi - 1 do
    let v = Array.unsafe_get t.versions key
    and s = Array.unsafe_get t.sids key in
    let value = Array.unsafe_get t.values key in
    if not (v = 0 && s = 0 && String.length value = 0) then
      Batch.Builder.push b ~key ~version:v ~sid:s ~value
  done;
  if lo < 0 || hi > dense_limit then begin
    let spilled =
      Hashtbl.fold
        (fun key (v, s, value) acc ->
          if key >= lo && key < hi then (key, v, s, value) :: acc else acc)
        t.spill []
    in
    List.iter
      (fun (key, version, sid, value) ->
        Batch.Builder.push b ~key ~version ~sid ~value)
      (List.sort compare spilled)
  end;
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

let keys t =
  let dense = ref [] in
  for key = Array.length t.versions - 1 downto 0 do
    if
      not
        (t.versions.(key) = 0 && t.sids.(key) = 0
        && String.length t.values.(key) = 0)
    then dense := key :: !dense
  done;
  let all = Hashtbl.fold (fun k _ acc -> k :: acc) t.spill !dense in
  List.sort_uniq Int.compare all
