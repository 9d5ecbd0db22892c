(* Reference model of {!Replication.Wal}: the original newest-first list
   of boxed entries, kept as the oracle for the columnar log, as
   [Dsutil.Heap] is for [Dsutil.Fheap].  Every record is stamped with the
   real time it becomes durable — the clock is read on every append under
   every policy — so the model also checks that the columnar log's
   clock-free stamps for the sync policies decide every crash the same
   way. *)

module Wal = Replication.Wal
module Store = Replication.Store
module Batch = Replication.Batch
module Timestamp = Replication.Timestamp

type entry = { record : Wal.record; durable_at : float; index : int }

type t = {
  policy : Wal.policy;
  now : unit -> float;
  mutable rev_log : entry list;  (* newest first *)
  mutable n : int;
  mutable lost : int;
  mutable syncs : int;
  mutable next_index : int;
}

let create ?(policy = Wal.Sync_on_commit) ~now () =
  { policy; now; rev_log = []; n = 0; lost = 0; syncs = 0; next_index = 0 }

let durable_at t (record : Wal.record) =
  let now = t.now () in
  match (t.policy, record) with
  | Wal.Sync_on_commit, (Commit _ | Install _ | Mark _) -> now
  | Wal.Sync_on_commit, (Stage _ | Abort _) -> Float.infinity
  | Wal.Sync_on_prepare, _ -> now
  | Wal.Async lag, _ -> now +. lag

let forces t (record : Wal.record) =
  match (t.policy, record) with
  | Wal.Sync_on_commit, (Commit _ | Install _ | Mark _) -> true
  | Wal.Sync_on_commit, (Stage _ | Abort _) -> false
  | Wal.Sync_on_prepare, _ -> true
  | Wal.Async _, _ -> false

let push t record =
  t.rev_log <-
    { record; durable_at = durable_at t record; index = t.next_index }
    :: t.rev_log;
  t.next_index <- t.next_index + 1;
  t.n <- t.n + 1

let append t record =
  if forces t record then t.syncs <- t.syncs + 1;
  push t record

let append_batch t records =
  if List.exists (forces t) records then t.syncs <- t.syncs + 1;
  List.iter (push t) records

let crash t =
  let now = t.now () in
  let survivors = List.filter (fun e -> e.durable_at <= now) t.rev_log in
  let kept = List.length survivors in
  t.lost <- t.lost + (t.n - kept);
  t.rev_log <- survivors;
  t.n <- kept

let apply_record store (record : Wal.record) =
  match record with
  | Stage { op; key; ts; value } ->
    Store.stage_accum store ~op ~key ~version:ts.Timestamp.version
      ~sid:ts.Timestamp.sid ~value
  | Commit { op; key; ts; value } ->
    Store.abort_staged store ~op;
    ignore (Store.install store ~key ~ts ~value)
  | Install { key; ts; value } -> ignore (Store.install store ~key ~ts ~value)
  | Abort { op } -> Store.abort_staged store ~op
  | Mark _ -> ()

(* A record no crash keeps (durable at infinity) is never replayed: the
   library replays only after a crash, so the log does not store it. *)
let replay_from t store ~index =
  let applied = ref 0 in
  List.iter
    (fun e ->
      if e.index >= index && e.durable_at < Float.infinity then begin
        apply_record store e.record;
        incr applied
      end)
    (List.rev t.rev_log);
  !applied

let committed_since t ~index =
  List.filter_map
    (fun e ->
      if e.index < index then None
      else
        match e.record with
        | Commit { key; ts; value; _ } | Install { key; ts; value } ->
          Some (key, ts, value)
        | Stage _ | Abort _ | Mark _ -> None)
    (List.rev t.rev_log)

let resume_state t =
  let rec scan = function
    | [] -> None
    | { record = Mark { chunk; wal_index }; _ } :: _ ->
      if chunk < 0 then None else Some (chunk + 1, wal_index)
    | _ :: rest -> scan rest
  in
  scan t.rev_log

let length t = t.n
let lost_total t = t.lost
let syncs t = t.syncs
let next_index t = t.next_index
