(* Committed state lives in dense parallel arrays indexed by key id:
   unboxed version/sid columns and a string value column.  A key is
   absent exactly when its triple is (0, 0, "") — the same observable
   state [read] reports for never-written keys, and unreachable for a
   present key because [install] only ever stores a triple that won a
   [newer] race against (0, 0) (so a stored (0, 0, v) is impossible, and
   (0, s<0, "") is distinguishable).  Sparse and out-of-range keys spill
   to a hashtable. *)

let dense_limit = 1 lsl 16

type t = {
  mutable versions : int array;
  mutable sids : int array;
  mutable values : string array;
  spill : (int, int * int * string) Hashtbl.t;
      (* key -> (version, sid, value), for key < 0 or >= dense_limit *)
  pending : (int, int * int * int * string) Hashtbl.t;
      (* op -> (key, version, sid, value) staged *)
  pending_batch : (int, Batch.Builder.t) Hashtbl.t;
      (* op -> staged batch, write order *)
}

let create () =
  {
    versions = [||];
    sids = [||];
    values = [||];
    spill = Hashtbl.create 4;
    pending = Hashtbl.create 8;
    pending_batch = Hashtbl.create 4;
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

let stage_flat t ~op ~key ~version ~sid ~value =
  Hashtbl.remove t.pending_batch op;
  Hashtbl.replace t.pending op (key, version, sid, value)

let stage t ~op ~key ~(ts : Timestamp.t) ~value =
  stage_flat t ~op ~key ~version:ts.Timestamp.version ~sid:ts.Timestamp.sid
    ~value

let has_staged t ~op = Hashtbl.mem t.pending op

let staged t ~op =
  match Hashtbl.find t.pending op with
  | key, version, sid, value ->
    Some (key, Timestamp.make ~version ~sid, value)
  | exception Not_found -> None

let stage_many t ~op (writes : Batch.t) =
  Hashtbl.remove t.pending op;
  Hashtbl.replace t.pending_batch op (Batch.Builder.of_batch writes)

let staged_many t ~op =
  match Hashtbl.find t.pending_batch op with
  | b -> Some (Batch.Builder.snapshot b)
  | exception Not_found -> None

let staged_batch_size t ~op =
  match Hashtbl.find t.pending_batch op with
  | b -> Batch.Builder.length b
  | exception Not_found -> 0

(* WAL replay path: successive Stage records of one op accumulate into a
   batch instead of clobbering each other (plain [stage] keeps last-write-
   wins semantics for re-prepared single writes).  The builder appends in
   amortized O(1); replaying a k-write batch is O(k), not the O(k²) the
   old list-append accumulation cost. *)
let stage_accum t ~op ~key ~(ts : Timestamp.t) ~value =
  let version = ts.Timestamp.version and sid = ts.Timestamp.sid in
  match Hashtbl.find t.pending_batch op with
  | b -> Batch.Builder.push b ~key ~version ~sid ~value
  | exception Not_found -> (
    match Hashtbl.find t.pending op with
    | k0, v0, s0, val0 ->
      Hashtbl.remove t.pending op;
      let b = Batch.Builder.create ~capacity:4 () in
      Batch.Builder.push b ~key:k0 ~version:v0 ~sid:s0 ~value:val0;
      Batch.Builder.push b ~key ~version ~sid ~value;
      Hashtbl.replace t.pending_batch op b
    | exception Not_found ->
      Hashtbl.replace t.pending op (key, version, sid, value))

let commit_staged t ~op =
  match Hashtbl.find t.pending op with
  | key, version, sid, value ->
    Hashtbl.remove t.pending op;
    ignore (install_flat t ~key ~version ~sid ~value);
    true
  | exception Not_found -> (
    match Hashtbl.find t.pending_batch op with
    | b ->
      Hashtbl.remove t.pending_batch op;
      for i = 0 to Batch.Builder.length b - 1 do
        ignore
          (install_flat t ~key:(Batch.Builder.key b i)
             ~version:(Batch.Builder.version b i) ~sid:(Batch.Builder.sid b i)
             ~value:(Batch.Builder.value b i))
      done;
      true
    | exception Not_found -> false)

let abort_staged t ~op =
  Hashtbl.remove t.pending op;
  Hashtbl.remove t.pending_batch op

let staged_count t = Hashtbl.length t.pending + Hashtbl.length t.pending_batch

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
