type t =
  | Read_request of { op : int; key : int }
  | Read_reply of {
      mutable op : int;
      mutable key : int;
      mutable version : int;
      mutable sid : int;
      mutable value : string;
      mutable inc : int;
      mutable freed : bool;
      home : pool;
    }
  | Prepare of {
      op : int;
      key : int;
      version : int;
      sid : int;
      value : string;
      reply : t;
    }
  | Prepare_ack of { op : int; inc : int }
  | Prepare_nack of { op : int; reason : string }
  | Commit of { op : int; inc : int; reply : t }
  | Commit_ack of { op : int; inc : int }
  | Abort of { op : int }
  | Repair of { op : int; key : int; version : int; sid : int; value : string }
      (** read-repair: install this committed (timestamp, value) directly —
          monotone installs make it always safe *)
  | Busy of { op : int }
      (** overload nack: the replica shed the request instead of queueing
          it; the coordinator should back off, not wait for a timeout *)
  | Read_batch of { op : int; n_keys : int; keys : int array }
      (** coalesced read envelope: one message, one service-queue slot,
          many keys.  The first [n_keys] entries of [keys] are live, so a
          pooled oversized buffer can ride as-is. *)
  | Read_batch_reply of {
      mutable op : int;
      mutable n : int;
      mutable versions : int array;
      mutable sids : int array;
      mutable values : string array;
      mutable inc : int;
      mutable freed : bool;
      home : pool;
    }
      (** the first [n] entries of each column are live; the columns keep
          the capacity of the largest batch the record has carried *)
  | Prepare_batch of { op : int; writes : Batch.t; reply : t }
      (** coalesced 2PC stage: the batch is staged (and later committed or
          aborted) atomically under one op id; acked with [Prepare_ack] *)
  | Provision_request of {
      op : int;
      from_chunk : int;
      chunk_size : int;
      key_space : int;
    }
      (** recipient → donor: start (or resume, at [from_chunk]) a chunked
          snapshot transfer.  Chunk [i] covers keys
          [i*chunk_size .. (i+1)*chunk_size), so chunk numbers stay
          meaningful across donor failover and recipient restarts *)
  | Snapshot_chunk of {
      op : int;
      chunk : int;
      n_chunks : int;
      wal_index : int;
      dinc : int;
      entries : Batch.t;
    }
      (** donor → recipient: one snapshot chunk.  [wal_index] is the
          donor's {!Wal.next_index} when it served the chunk (the cut
          stamp; the recipient keeps the minimum it has seen), [dinc]
          the donor's incarnation — a mid-transfer donor restart changes
          it, fencing the chunks of the broken transfer *)
  | Chunk_ack of { op : int; chunk : int; chunk_size : int; key_space : int }
      (** recipient → donor: chunk applied durably, send the next one.
          Carries the geometry so the donor stays stateless *)
  | Tail_request of { op : int; from_index : int }
      (** recipient → donor: all chunks applied; ship every committed WAL
          record at or after [from_index] (boundary inclusive) *)
  | Wal_tail of { op : int; dinc : int; next_index : int; entries : Batch.t }
      (** donor → recipient: the committed tail since the requested
          index, plus the donor's current [next_index] (the new cut, for
          a later delta request) *)
  | Ping of { seq : int }
  | Pong of { seq : int }

(* A free stack, filled [0, n_free): the slots above may still name
   records in flight, which only delays their collection until the slot
   is overwritten.  Clearing a slot at each pop would be a third
   write-barrier store per reply. *)
and stack = { mutable free : t array; mutable n_free : int }

and pool = { replies : stack; batches : stack }

let pool () =
  { replies = { free = [||]; n_free = 0 }; batches = { free = [||]; n_free = 0 } }

(* The top record of a non-empty stack. *)
let pop s =
  let i = s.n_free - 1 in
  s.n_free <- i;
  s.free.(i)

let read_reply p ~op ~key ~version ~sid ~value ~inc =
  if p.replies.n_free = 0 then
    Read_reply { op; key; version; sid; value; inc; freed = false; home = p }
  else
    match pop p.replies with
    | Read_reply r as m ->
      r.op <- op;
      r.key <- key;
      r.version <- version;
      r.sid <- sid;
      r.value <- value;
      r.inc <- inc;
      r.freed <- false;
      m
    | _ -> assert false

let read_batch_reply p ~op ~n ~inc =
  if p.batches.n_free = 0 then
    Read_batch_reply
      {
        op;
        n;
        versions = Array.make n 0;
        sids = Array.make n 0;
        values = Array.make n "";
        inc;
        freed = false;
        home = p;
      }
  else
    match pop p.batches with
    | Read_batch_reply r as m ->
      if Array.length r.versions < n then begin
        r.versions <- Array.make n 0;
        r.sids <- Array.make n 0;
        r.values <- Array.make n ""
      end;
      r.op <- op;
      r.n <- n;
      r.inc <- inc;
      r.freed <- false;
      m
    | _ -> assert false

(* A full stack doubles, its new slots filled with [m] itself. *)
let push s m =
  let n = s.n_free in
  if n = Array.length s.free then begin
    let a = Array.make (max 8 (2 * n)) m in
    Array.blit s.free 0 a 0 n;
    s.free <- a
  end;
  s.free.(n) <- m;
  s.n_free <- n + 1

let handed_back_twice () = invalid_arg "Message.recycle: reply handed back twice"

let recycle m =
  match m with
  | Read_reply r ->
    if r.freed then handed_back_twice ();
    r.freed <- true;
    push r.home.replies m
  | Read_batch_reply r ->
    if r.freed then handed_back_twice ();
    r.freed <- true;
    push r.home.batches m
  | Read_request _ | Prepare _ | Prepare_ack _ | Prepare_nack _ | Commit _
  | Commit_ack _ | Abort _ | Repair _ | Busy _ | Read_batch _ | Prepare_batch _
  | Provision_request _ | Snapshot_chunk _ | Chunk_ack _ | Tail_request _
  | Wal_tail _ | Ping _ | Pong _ ->
    ()

let op_id = function
  | Read_request { op; _ }
  | Read_reply { op; _ }
  | Prepare { op; _ }
  | Prepare_ack { op; _ }
  | Prepare_nack { op; _ }
  | Commit { op; _ }
  | Commit_ack { op; _ }
  | Abort { op }
  | Repair { op; _ }
  | Busy { op }
  | Read_batch { op; _ }
  | Read_batch_reply { op; _ }
  | Prepare_batch { op; _ }
  | Provision_request { op; _ }
  | Snapshot_chunk { op; _ }
  | Chunk_ack { op; _ }
  | Tail_request { op; _ }
  | Wal_tail { op; _ } ->
    op
  | Ping _ | Pong _ -> -1  (* never matches a pending operation *)

let no_incarnation = -1

let incarnation = function
  | Read_reply { inc; _ }
  | Prepare_ack { inc; _ }
  | Commit_ack { inc; _ }
  | Read_batch_reply { inc; _ } ->
    inc
  | Read_request _ | Prepare _ | Prepare_nack _ | Commit _ | Abort _
  | Repair _ | Busy _ | Read_batch _ | Prepare_batch _ | Ping _ | Pong _
  (* provisioning fences on the donor incarnation itself (the replica
     checks [dinc] against its transfer state), not via the
     coordinator's reply-fencing path *)
  | Provision_request _ | Snapshot_chunk _ | Chunk_ack _ | Tail_request _
  | Wal_tail _ ->
    no_incarnation

let pp ppf = function
  | Read_request { op; key } -> Format.fprintf ppf "read-req(op=%d key=%d)" op key
  | Read_reply { op; key; version; sid; _ } ->
    Format.fprintf ppf "read-reply(op=%d key=%d ts=v%d@@%d)" op key version sid
  | Prepare { op; key; version; sid; _ } ->
    Format.fprintf ppf "prepare(op=%d key=%d ts=v%d@@%d)" op key version sid
  | Prepare_ack { op; _ } -> Format.fprintf ppf "prepare-ack(op=%d)" op
  | Prepare_nack { op; reason } ->
    Format.fprintf ppf "prepare-nack(op=%d %s)" op reason
  | Commit { op; _ } -> Format.fprintf ppf "commit(op=%d)" op
  | Commit_ack { op; _ } -> Format.fprintf ppf "commit-ack(op=%d)" op
  | Abort { op } -> Format.fprintf ppf "abort(op=%d)" op
  | Repair { op; key; version; sid; _ } ->
    Format.fprintf ppf "repair(op=%d key=%d ts=v%d@@%d)" op key version sid
  | Busy { op } -> Format.fprintf ppf "busy(op=%d)" op
  | Read_batch { op; n_keys; _ } ->
    Format.fprintf ppf "read-batch(op=%d |keys|=%d)" op n_keys
  | Read_batch_reply { op; n; _ } ->
    Format.fprintf ppf "read-batch-reply(op=%d |entries|=%d)" op n
  | Prepare_batch { op; writes; _ } ->
    Format.fprintf ppf "prepare-batch(op=%d |writes|=%d)" op (Batch.length writes)
  | Provision_request { op; from_chunk; chunk_size; key_space } ->
    Format.fprintf ppf "provision-req(op=%d from=%d cs=%d ks=%d)" op from_chunk
      chunk_size key_space
  | Snapshot_chunk { op; chunk; n_chunks; wal_index; dinc; entries } ->
    Format.fprintf ppf
      "snapshot-chunk(op=%d %d/%d wal@@%d dinc=%d |entries|=%d)" op chunk
      n_chunks wal_index dinc (Batch.length entries)
  | Chunk_ack { op; chunk; _ } ->
    Format.fprintf ppf "chunk-ack(op=%d chunk=%d)" op chunk
  | Tail_request { op; from_index } ->
    Format.fprintf ppf "tail-req(op=%d from=%d)" op from_index
  | Wal_tail { op; dinc; next_index; entries } ->
    Format.fprintf ppf "wal-tail(op=%d dinc=%d next=%d |entries|=%d)" op dinc
      next_index (Batch.length entries)
  | Ping { seq } -> Format.fprintf ppf "ping(seq=%d)" seq
  | Pong { seq } -> Format.fprintf ppf "pong(seq=%d)" seq
