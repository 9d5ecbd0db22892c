type policy = Sync_on_commit | Sync_on_prepare | Async of float

let policy_to_string = function
  | Sync_on_commit -> "commit"
  | Sync_on_prepare -> "prepare"
  | Async lag -> Printf.sprintf "async(%g)" lag

type record =
  | Stage of { op : int; key : int; ts : Timestamp.t; value : string }
  | Commit of { op : int; key : int; ts : Timestamp.t; value : string }
  | Install of { key : int; ts : Timestamp.t; value : string }
  | Abort of { op : int }
  | Mark of { chunk : int; wal_index : int }

(* The log is append-only rows in fixed-size chunks.  A chunk holds
   [chunk_rows] rows: their int fields packed in one flat int block
   ([width] ints a row: the tag, then op, key, version and sid; a Mark
   keeps its chunk in the op field and its wal_index in the key field),
   their values in a string column and, under [Async] only, the time from
   which each row survives a crash in a float column.  The tag is the
   row's absolute append index times 8 plus its kind.  The index is
   assigned once, never reused and monotone across crashes (truncation
   discards rows but never rewinds [next_index]), so a snapshot cut
   stamped with [next_index] names a stable point in this replica's
   history.

   Chunks are allocated as the log grows and never copied, so a long log
   costs its rows and nothing more: no doubling slack, no re-copying, and
   none of the garbage collector's work on discarded copies.  A replica
   that never logs allocates no chunk.  A flat append ([stage], [commit],
   [install]) writes one row and allocates nothing else; [append] decodes
   a ready [record] into the same row.

   Sync policies need no durability column: a record they force is
   durable from its append on (any crash comes later, the clock being
   monotone), and a stage or abort under [Sync_on_commit] never is.  So
   only [Async] reads the clock.  Such a volatile record is not stored at
   all: it takes its append index and is counted in [volatile] until the
   next crash loses it, and since replay only ever follows a crash, no
   reader could see its row.  Every stored row of a sync log is therefore
   durable, and only [Async] has rows for a crash to discard. *)

let k_stage = 0
let k_commit = 1
let k_install = 2
let k_abort = 3
let k_mark = 4

let chunk_bits = 10
let chunk_rows = 1 lsl chunk_bits
let width = 5

type t = {
  policy : policy;
  now : unit -> float;
  mutable ints : int array array;  (* chunk -> [chunk_rows * width] ints *)
  mutable values : string array array;  (* chunk -> [chunk_rows] values *)
  mutable durable : Float.Array.t array;  (* chunk -> durable-at; Async only *)
  mutable chunks : int;  (* allocated chunks, a prefix of the spines *)
  mutable n : int;  (* stored rows *)
  mutable volatile : int;  (* volatile records since the last crash *)
  lost : Obs.Metrics.counter;
  syncs : Obs.Metrics.counter;
  mutable next_index : int;
}

let create ?(policy = Sync_on_commit) ~now () =
  (match policy with
  | Async lag when lag <= 0.0 ->
    invalid_arg "Wal.create: Async flush lag must be positive"
  | _ -> ());
  {
    policy;
    now;
    ints = [||];
    values = [||];
    durable = [||];
    chunks = 0;
    n = 0;
    volatile = 0;
    lost = { value = 0 };
    syncs = { value = 0 };
    next_index = 0;
  }

let policy t = t.policy
let next_index t = t.next_index

(* A record is synchronously forced exactly when the policy makes it
   durable the instant it is appended. *)
let forces policy kind =
  match policy with
  | Sync_on_commit -> kind <> k_stage && kind <> k_abort
  | Sync_on_prepare -> true
  | Async _ -> false

let add_chunk t =
  let c = t.chunks in
  if c = Array.length t.ints then begin
    let cap = max 4 (2 * c) in
    let grow a empty =
      let b = Array.make cap empty in
      Array.blit a 0 b 0 c;
      b
    in
    t.ints <- grow t.ints [||];
    t.values <- grow t.values [||];
    t.durable <- grow t.durable (Float.Array.create 0)
  end;
  t.ints.(c) <- Array.make (chunk_rows * width) 0;
  t.values.(c) <- Array.make chunk_rows "";
  (match t.policy with
  | Async _ -> t.durable.(c) <- Float.Array.make chunk_rows 0.0
  | Sync_on_commit | Sync_on_prepare -> ());
  t.chunks <- c + 1

(* Row [i] is row [slot i] of chunk [chunk i]. *)
let chunk i = i lsr chunk_bits
let slot i = i land (chunk_rows - 1)

(* Field [f] of row [i]. *)
let field t i f = t.ints.(chunk i).((slot i * width) + f)

let kind t i = field t i 0 land 7
let row_index t i = field t i 0 lsr 3
let value t i = t.values.(chunk i).(slot i)

(* Whether a [kind] record is lost by any crash: it is then counted, not
   stored. *)
let volatile policy kind =
  match policy with
  | Sync_on_commit -> kind = k_stage || kind = k_abort
  | Sync_on_prepare | Async _ -> false

(* Row [t.n] holds the record appended at [t.next_index]. *)
let store_row t kind ~op ~key ~version ~sid ~value =
  let i = t.n in
  let c = chunk i and r = slot i in
  if c = t.chunks then add_chunk t;
  let ints = t.ints.(c) and b = r * width in
  ints.(b) <- (t.next_index lsl 3) lor kind;
  ints.(b + 1) <- op;
  ints.(b + 2) <- key;
  ints.(b + 3) <- version;
  ints.(b + 4) <- sid;
  t.values.(c).(r) <- value;
  (match t.policy with
  | Async lag -> Float.Array.set t.durable.(c) r (t.now () +. lag)
  | Sync_on_commit | Sync_on_prepare -> ());
  t.n <- i + 1

let push t kind ~op ~key ~version ~sid ~value =
  if volatile t.policy kind then t.volatile <- t.volatile + 1
  else store_row t kind ~op ~key ~version ~sid ~value;
  t.next_index <- t.next_index + 1

let push_forced t kind ~op ~key ~version ~sid ~value =
  if forces t.policy kind then t.syncs.value <- t.syncs.value + 1;
  push t kind ~op ~key ~version ~sid ~value

let stage t ~op ~key ~version ~sid ~value =
  push_forced t k_stage ~op ~key ~version ~sid ~value

let abort t ~op = push_forced t k_abort ~op ~key:0 ~version:0 ~sid:0 ~value:""

let commit t ~op ~key ~version ~sid ~value =
  push_forced t k_commit ~op ~key ~version ~sid ~value

let install t ~key ~version ~sid ~value =
  push_forced t k_install ~op:0 ~key ~version ~sid ~value

(* The first [n] writes of [batch] as [kind] records of [op], in order,
   without building a record.  With [group] they share one durability
   point. *)
let push_batch t kind ~op ~group ~n batch =
  if n > 0 && forces t.policy kind then
    t.syncs.value <- t.syncs.value + if group then 1 else n;
  for i = 0 to n - 1 do
    push t kind ~op ~key:(Batch.key batch i) ~version:(Batch.version batch i)
      ~sid:(Batch.sid batch i) ~value:(Batch.value batch i)
  done

let stage_batch t ~op ~group batch =
  push_batch t k_stage ~op ~group ~n:(Batch.length batch) batch

let commit_batch t ~op ~group ~len batch =
  if len < 0 || len > Batch.length batch then
    invalid_arg "Wal.commit_batch: len out of range";
  push_batch t k_commit ~op ~group ~n:len batch

let install_batch t batch =
  push_batch t k_install ~op:0 ~group:true ~n:(Batch.length batch) batch

let kind_of = function
  | Stage _ -> k_stage
  | Commit _ -> k_commit
  | Install _ -> k_install
  | Abort _ -> k_abort
  | Mark _ -> k_mark

(* Decode a ready record into a row: no allocation. *)
let push_record t record =
  match record with
  | Stage { op; key; ts; value } ->
    push t k_stage ~op ~key ~version:ts.Timestamp.version ~sid:ts.Timestamp.sid
      ~value
  | Commit { op; key; ts; value } ->
    push t k_commit ~op ~key ~version:ts.Timestamp.version
      ~sid:ts.Timestamp.sid ~value
  | Install { key; ts; value } ->
    push t k_install ~op:0 ~key ~version:ts.Timestamp.version
      ~sid:ts.Timestamp.sid ~value
  | Abort { op } -> push t k_abort ~op ~key:0 ~version:0 ~sid:0 ~value:""
  | Mark { chunk; wal_index } ->
    push t k_mark ~op:chunk ~key:wal_index ~version:0 ~sid:0 ~value:""

let append t record =
  if forces t.policy (kind_of record) then t.syncs.value <- t.syncs.value + 1;
  push_record t record

(* Group commit: the whole batch shares one durability point.  Each
   record keeps its per-policy durability (they are all stamped at the
   same virtual instant anyway), but however many of them the policy
   would force, at most ONE sync is charged — that amortization is the
   point of batching the log writes. *)
let append_batch t records =
  if List.exists (fun r -> forces t.policy (kind_of r)) records then
    t.syncs.value <- t.syncs.value + 1;
  List.iter (push_record t) records

let copy_row t ~src ~dst =
  Array.blit t.ints.(chunk src) (slot src * width) t.ints.(chunk dst)
    (slot dst * width) width;
  t.values.(chunk dst).(slot dst) <- value t src;
  Float.Array.set t.durable.(chunk dst) (slot dst)
    (Float.Array.get t.durable.(chunk src) (slot src))

(* Compact the rows of an Async log that survive a crash at [now] to the
   front, in order.  The boundary is INCLUSIVE: a row whose deadline
   equals the crash time has reached stable storage (see wal.mli). *)
let compact t ~now =
  let kept = ref 0 in
  for i = 0 to t.n - 1 do
    if Float.Array.get t.durable.(chunk i) (slot i) <= now then begin
      if !kept < i then copy_row t ~src:i ~dst:!kept;
      incr kept
    end
  done;
  let kept = !kept in
  for i = kept to t.n - 1 do
    t.values.(chunk i).(slot i) <- ""
  done;
  t.lost.value <- t.lost.value + (t.n - kept);
  t.n <- kept

(* [next_index] is deliberately NOT rewound: indices of lost records are
   retired, never reissued. *)
let crash t =
  (match t.policy with
  | Async _ -> compact t ~now:(t.now ())
  | Sync_on_commit | Sync_on_prepare -> ());
  t.lost.value <- t.lost.value + t.volatile;
  t.volatile <- 0

let apply_row t store i =
  let kind = kind t i and op = field t i 1 and key = field t i 2 in
  let version = field t i 3 and sid = field t i 4 and value = value t i in
  if kind = k_stage then Store.stage_accum store ~op ~key ~version ~sid ~value
  else if kind = k_commit then begin
    Store.abort_staged store ~op;
    ignore (Store.install_flat store ~key ~version ~sid ~value)
  end
  else if kind = k_install then
    ignore (Store.install_flat store ~key ~version ~sid ~value)
  else if kind = k_abort then Store.abort_staged store ~op
(* a Mark is provisioning progress only: no store effect *)

let replay_from t store ~index =
  if index < 0 then invalid_arg "Wal.replay_from: negative index";
  let applied = ref 0 in
  for i = 0 to t.n - 1 do
    if row_index t i >= index then begin
      apply_row t store i;
      incr applied
    end
  done;
  !applied

let replay t store = replay_from t store ~index:0

(* The committed-state tail since a snapshot cut: every Commit/Install at
   or after [index] (the record whose index equals the cut is IN the tail
   — the cut names the next index to be appended at stamp time, so
   everything from it onward post-dates the snapshot), flattened to
   (key, version, sid, value) in append order.  Stages, aborts and marks
   carry no committed state and are skipped. *)
let committed_since t ~index =
  if index < 0 then invalid_arg "Wal.committed_since: negative index";
  let b = Batch.Builder.create ~capacity:16 () in
  for i = 0 to t.n - 1 do
    let k = kind t i in
    if row_index t i >= index && (k = k_commit || k = k_install) then
      Batch.Builder.push b ~key:(field t i 2) ~version:(field t i 3)
        ~sid:(field t i 4) ~value:(value t i)
  done;
  Batch.Builder.snapshot b

(* Resume point of an interrupted provisioning transfer: the newest Mark
   decides.  A completion mark (chunk = -1) resets progress — marks from
   a finished transfer must not make a later rejoin skip its bulk phase. *)
let resume_state t =
  let rec scan i =
    if i < 0 then None
    else if kind t i = k_mark then
      let chunk = field t i 1 in
      if chunk < 0 then None else Some (chunk + 1, field t i 2)
    else scan (i - 1)
  in
  scan (t.n - 1)

let length t = t.n + t.volatile
let lost_total t = t.lost.value
let syncs t = t.syncs.value
let counters =
  [ ("replica.wal.syncs", fun t -> t.syncs); ("replica.wal.lost", fun t -> t.lost) ]

