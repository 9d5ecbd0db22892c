module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng
module Stats = Dsutil.Stats
module Engine = Dsim.Engine
module Network = Dsim.Network
module Protocol = Quorum.Protocol

type config = {
  timeout : float;
  max_retries : int;
  read_repair : bool;
  adaptive_timeout : bool;
  deadline : float;
  backoff : Detect.Backoff.policy;
}

let default_config =
  {
    timeout = 25.0;
    max_retries = 4;
    read_repair = false;
    adaptive_timeout = false;
    deadline = Float.infinity;
    backoff = Detect.Backoff.default;
  }

type read_result = { value : string; ts : Timestamp.t; attempts : int }

type phase =
  | Querying  (** collecting Read_replies (a read, or a write's version
                  phase) *)
  | Preparing
  | Committing
  | Prepared  (** a held prepare: staged everywhere, awaiting the caller's
                  commit or abort *)

(* What an operation is and whom it answers.  A single-key op and a
   multi-key batch run the same machine; only the callback's shape (and
   the envelope, chosen by key count) differs.  A batch's callback gets
   the finished record itself, read through the [outcome_*] accessors.  A
   held prepare answers twice: [Prepare_hold] when its prepare completes
   (or fails), then [Commit_held] once the caller's commit completes. *)
type kind =
  | Read_one of (read_result option -> unit)
  | Write_one of (Timestamp.t option -> unit)
  | Read_many of (op_state -> unit)
  | Write_many of (op_state -> unit)
  | Prepare_hold of ((staged, [ `Version | `Prepare ]) result -> unit)
  | Commit_held of (bool -> unit)

(* One operation over [n_keys] >= 1 keys, from entry to outcome, across
   every attempt.  Every field is mutable so a finished operation's record
   can go back to a pool and be re-initialized in place: a steady stream
   of operations allocates no op_state at all.  The per-position columns
   keep their capacity across reuses, so a single-key op allocates none of
   them either.

   The quorum columns, sized by the replica universe: [q] holds the
   members of the current phase, with replied members overwritten by -1
   (so "waiting" is the >= 0 entries, in original send order).  [w]/[winc]
   hold the 2PC member set and the incarnation each member acked its
   prepare under.  [pos] maps a site to its position in [q] and [w]: a 2PC
   phase's [q] is a copy of [w], so one position serves both, and a lookup
   is trusted only when the array still holds the site there — stale
   entries from an earlier phase or operation need no reset. *)
and op_state = {
  mutable op : int;  (** the id of the {e current attempt} *)
  mutable kind : kind;
  mutable n_keys : int;
  mutable keys : int array;  (** [0, n_keys): the keys in request order *)
  mutable values : string array;  (** writes: the value for each position *)
  mutable spans : Obs.Span.t option array;
      (** one span per position (a key may repeat), across attempts *)
  mutable max_v : int array;
      (** per position, the newest (version, sid, value) seen while
          querying; once a write prepares, [max_v]/[max_s] hold the
          timestamp being written *)
  mutable max_s : int array;
  mutable max_val : string array;
  mutable attempts : int;  (** mutated in place by commit resends *)
  times : Float.Array.t;
      (** [\[| started; phase started |\]]: when the operation began, and
          when the current phase's requests went out.  Unboxed: a float
          field of this record would be a fresh box at every store. *)
  q : int array;
  mutable n_q : int;  (** members in the current phase *)
  mutable waiting_n : int;  (** of which, still to reply *)
  w : int array;
  mutable n_w : int;
  winc : int array;
  pos : int array;  (** site -> position in [q]/[w], by replica universe *)
  mutable phase : phase;
  mutable replies : (int * int * int) list;
      (** (member, version, sid) gathered while querying; only populated
          for single-key reads with read repair on *)
  mutable forced : Timestamp.t option;
      (** a single-key write's caller-chosen timestamp: no version phase *)
  mutable owner : int;
      (** a single-key op's lock owner while it holds its key's lock, else
          [no_owner] *)
  mutable slice_pos : int;  (** where the caller's slice of keys starts *)
  mutable ok : bool;  (** the outcome, set as the operation finishes *)
  mutable grant : unit -> unit;
      (** a locked single-key op's lock-grant callback, which starts its
          first attempt: built once per record, at its first lock wait *)
}

(* A held prepare's record, with the op id it parked under: a pooled
   record can park again under another op, and the id tells a spent
   handle from the new hold. *)
and staged = { st : op_state; held_op : int }

(* Pending operations by op id: a [Probe] table of parallel id/record
   columns, a power-of-two size at most half full, like [Store]'s staging
   table.  An empty slot holds [Probe.empty] and [dummy_op], so adding,
   finding and removing an attempt allocate nothing beyond amortized
   growth.  The table starts as one empty slot and takes 16 at the first
   attempt. *)
type pending = {
  mutable p_ids : int array;
  mutable p_sts : op_state array;
  mutable p_count : int;
}

type t = {
  site : int;
  net : Message.t Network.t;
  mutable proto : Protocol.t;
  locks : Lock_manager.t option;
  config : config;
  obs : Obs.t option;
  view : Detect.View.t;
  budget : Detect.Budget.t option;  (* shared across a process's coordinators *)
  breaker : Detect.Breaker.t option;  (* likewise shared *)
  rto : Detect.Rto.t option;  (* [Some] iff [config.adaptive_timeout] *)
  rng : Rng.t;
  n_replicas : int;
  mutable next_seq : int;
  mutable timeout_h : Engine.handler;
      (* preallocated handler for phase timeouts, which carry (op, phase)
         in the event's int slot, and backoff wake-ups, which carry the op
         record as payload: neither allocates a closure *)
  pending : pending;
  mutable pool : op_state array;  (* free op records, filled [0, pool_n) *)
  mutable pool_n : int;
  incs : int array;  (** replica site -> newest incarnation seen *)
  (* Counters: handles the coordinator owns; [?obs] registers them. *)
  reads_ok : Obs.Metrics.counter;
  reads_failed : Obs.Metrics.counter;
  writes_ok : Obs.Metrics.counter;
  writes_failed : Obs.Metrics.counter;
  retries : Obs.Metrics.counter;
  repairs_sent : Obs.Metrics.counter;
  deadline_exceeded : Obs.Metrics.counter;
  stale_inc_rejected : Obs.Metrics.counter;
  busy_received : Obs.Metrics.counter;
  retries_suppressed : Obs.Metrics.counter;
  batches : Obs.Metrics.counter;
  read_latency : Stats.t;
  write_latency : Stats.t;
}

let engine t = Network.engine t.net

(* The virtual time, read from the engine's clock slot: [Engine.now]
   would return it boxed. *)
let[@inline] now t = Float.Array.get (Engine.clock (engine t)) 0

let[@inline] started st = Float.Array.get st.times 0
let[@inline] set_started t st = Float.Array.set st.times 0 (now t)
let[@inline] set_phase_started t st = Float.Array.set st.times 1 (now t)

(* Placeholder until [create] installs the real handler. *)
let uninit_timeout_h = Engine.handler (fun _ _ -> ())

(* A parked op arms no timer and has no code: 3 is the backoff's. *)
let phase_code = function
  | Querying -> 0
  | Preparing -> 1
  | Committing -> 2
  | Prepared -> invalid_arg "Coordinator: a held prepare arms no timer"

(* Event code of a backoff wake-up: the op record rides as the payload. *)
let backoff_code = 3

let fresh_op t =
  let id = (t.next_seq * Network.size t.net) + t.site in
  t.next_seq <- t.next_seq + 1;
  id

let dummy_kind = Read_one (fun _ -> ())

(* op id of a pooled (released) record; doubles as the double-release
   guard in [release_op]. *)
let released = min_int

let no_owner = -1

(* A record's [grant] until its first lock wait builds the real one. *)
let no_grant () = ()

let make_op ~replicas cap =
  let r = max replicas 1 in
  {
    op = released;
    kind = dummy_kind;
    n_keys = 0;
    keys = Array.make cap 0;
    values = Array.make cap "";
    spans = Array.make cap None;
    max_v = Array.make cap 0;
    max_s = Array.make cap 0;
    max_val = Array.make cap "";
    attempts = 0;
    times = Float.Array.make 2 0.0;
    q = Array.make r (-1);
    n_q = 0;
    waiting_n = 0;
    w = Array.make r 0;
    n_w = 0;
    winc = Array.make r 0;
    pos = Array.make r 0;
    phase = Querying;
    replies = [];
    forced = None;
    owner = no_owner;
    slice_pos = 0;
    ok = false;
    grant = no_grant;
  }

(* Placeholder filling vacated pool slots so released records are not
   retained twice. *)
let dummy_op = make_op ~replicas:0 0

(* [dummy_op] when [op] is not pending. *)
let find_pending p op = p.p_sts.(Probe.slot p.p_ids op)

let add_pending p op st =
  if 2 * (p.p_count + 1) > Array.length p.p_ids then begin
    let ids = p.p_ids and sts = p.p_sts in
    let cap = max 16 (2 * Array.length ids) in
    p.p_ids <- Array.make cap Probe.empty;
    p.p_sts <- Array.make cap dummy_op;
    Array.iteri
      (fun j op ->
        if op <> Probe.empty then begin
          let i = Probe.slot p.p_ids op in
          p.p_ids.(i) <- op;
          p.p_sts.(i) <- sts.(j)
        end)
      ids
  end;
  let i = Probe.slot p.p_ids op in
  if p.p_ids.(i) <> op then begin
    p.p_ids.(i) <- op;
    p.p_count <- p.p_count + 1
  end;
  p.p_sts.(i) <- st

(* Backward-shift deletion, so probing never needs a tombstone. *)
let remove_pending p op =
  let ids = p.p_ids and sts = p.p_sts in
  let i = Probe.slot ids op in
  if op <> Probe.empty && ids.(i) = op then begin
    let hole = ref i and j = ref (Probe.next_shift ids i) in
    while !j >= 0 do
      ids.(!hole) <- ids.(!j);
      sts.(!hole) <- sts.(!j);
      hole := !j;
      j := Probe.next_shift ids !j
    done;
    ids.(!hole) <- Probe.empty;
    sts.(!hole) <- dummy_op;
    p.p_count <- p.p_count - 1
  end

(* What an empty batch answers with at once. *)
let empty_outcome = { (make_op ~replicas:0 0) with ok = true }

(* A record for a new operation over [n] keys; the caller fills [keys],
   [values] and [spans] for positions [0, n). *)
let alloc_op t ~kind ~n =
  let st =
    if t.pool_n > 0 then begin
      t.pool_n <- t.pool_n - 1;
      let st = t.pool.(t.pool_n) in
      t.pool.(t.pool_n) <- dummy_op;
      st
    end
    else make_op ~replicas:t.n_replicas (max n 1)
  in
  if Array.length st.keys < n then begin
    st.keys <- Array.make n 0;
    st.values <- Array.make n "";
    st.spans <- Array.make n None;
    st.max_v <- Array.make n 0;
    st.max_s <- Array.make n 0;
    st.max_val <- Array.make n ""
  end;
  st.kind <- kind;
  st.n_keys <- n;
  st.attempts <- 0;
  set_started t st;
  st

(* Only safe once nothing can reach [st] again: it must already be out of
   [t.pending] (stale timeout events look ops up there and drop misses),
   and the caller must not touch it after this returns. *)
let release_op t st =
  if st.op <> released then begin
    st.op <- released;
    st.kind <- dummy_kind;
    for i = 0 to st.n_keys - 1 do
      st.values.(i) <- "";
      st.spans.(i) <- None;
      st.max_val.(i) <- ""
    done;
    st.replies <- [];
    st.forced <- None;
    let cap = Array.length t.pool in
    if t.pool_n = cap then begin
      let grown = Array.make (max 4 (2 * cap)) dummy_op in
      Array.blit t.pool 0 grown 0 cap;
      t.pool <- grown
    end;
    t.pool.(t.pool_n) <- st;
    t.pool_n <- t.pool_n + 1
  end

(* The members of the current phase yet to reply, as a list (allocating:
   only for observability and detector bookkeeping on cold paths). *)
let live_members st =
  let rec go i acc =
    if i < 0 then acc
    else
      let m = st.q.(i) in
      go (i - 1) (if m >= 0 then m :: acc else acc)
  in
  go (st.n_q - 1) []

(* The believed-alive replica view comes from the pluggable detector:
   ground truth by default (the paper assumes detectable failures), or a
   caller-supplied view (e.g. Detect.Heartbeat).  The circuit breaker
   filters it: an Open site is alive but drowning, and quorum assembly
   must route around it. *)
let current_view t =
  let view = t.view.Detect.View.alive () in
  match t.breaker with
  | None -> view
  | Some b -> Detect.Breaker.filter b view

let phase_timeout t =
  match t.rto with
  | Some rto -> Detect.Rto.timeout rto
  | None -> t.config.timeout

let observe_rtt t st =
  match t.rto with
  | Some rto -> Detect.Rto.observe rto (now t -. Float.Array.get st.times 1)
  | None -> ()

let send t ~dst msg = Network.send t.net ~src:t.site ~dst msg

(* Send [msg] to every member of the current phase.  A multi-key envelope
   counts as [n_keys] logical messages at the network. *)
let fan_out t st msg =
  let units = if st.n_keys = 1 then None else Some st.n_keys in
  for i = 0 to st.n_q - 1 do
    Network.send t.net ?units ~src:t.site ~dst:st.q.(i) msg
  done

(* --- observability hooks (single match, no work, when [obs = None]) ----- *)

let ospan t ~op ~key =
  match t.obs with
  | None -> None
  | Some obs -> Some (Obs.span obs ~op ~site:t.site ~key ())

(* Phases and retries are traced on a single-key op's span.  A batch's
   spans share one quorum round and record only their outcome. *)
let ophase t st ~kind =
  match t.obs with
  | Some obs when st.n_keys = 1 -> (
    match st.spans.(0) with
    | Some sp -> Obs.phase obs sp ~kind ~quorum:(live_members st) ()
    | None -> ())
  | _ -> ()

let oend_phase t st ~timed_out =
  match t.obs with
  | Some obs when st.n_keys = 1 -> (
    match st.spans.(0) with
    | Some sp -> Obs.end_phase obs sp ~timed_out ()
    | None -> ())
  | _ -> ()

let oretry t st ~backoff =
  match t.obs with
  | Some obs when st.n_keys = 1 -> (
    match st.spans.(0) with
    | Some sp -> Obs.retry obs sp ~backoff ()
    | None -> ())
  | _ -> ()

let ofinish t span outcome =
  match (t.obs, span) with
  | Some obs, Some sp -> Obs.finish obs sp ~outcome
  | _ -> ()

let oresult_ts t span ~version ~sid =
  match (t.obs, span) with
  | Some obs, Some sp -> Obs.set_result_ts obs sp ~version ~sid
  | _ -> ()

(* Counting is a field store: no call across the -opaque library boundary. *)
let[@inline] bump (c : Obs.Metrics.counter) = c.value <- c.value + 1

let counters : t Obs.Metrics.handles =
  [
    ("coord.reads.ok", fun t -> t.reads_ok);
    ("coord.reads.failed", fun t -> t.reads_failed);
    ("coord.writes.ok", fun t -> t.writes_ok);
    ("coord.writes.failed", fun t -> t.writes_failed);
    ("coord.retries", fun t -> t.retries);
    ("coord.repairs_sent", fun t -> t.repairs_sent);
    ("coord.deadline_exceeded", fun t -> t.deadline_exceeded);
    ("coord.stale_inc.rejected", fun t -> t.stale_inc_rejected);
    ("coord.busy_received", fun t -> t.busy_received);
    ("coord.retries_suppressed", fun t -> t.retries_suppressed);
    ("coord.batches", fun t -> t.batches);
  ]

let count t name = Obs.Metrics.read counters t name

(* Overload evidence is charged to the breaker separately from the
   liveness view: a Busy nack rehabilitates the site in the detector
   (it answered — it is alive) while still counting against it here. *)
let breaker_failure t site =
  match t.breaker with
  | None -> ()
  | Some b -> ignore (Detect.Breaker.record_failure b site)

let breaker_ok t site =
  match t.breaker with None -> () | Some b -> Detect.Breaker.record_ok b site

(* A locked single-key op releases its key's lock as it finishes, before
   its callback runs, so the next holder may start in the same instant. *)
let unlock t st =
  if st.owner <> no_owner then begin
    (match t.locks with
    | Some lm -> Lock_manager.release lm ~key:st.keys.(0) ~owner:st.owner
    | None -> ());
    st.owner <- no_owner
  end

(* --- operation lifecycle ------------------------------------------------ *)

(* Record where each of the first [n] members of [a] sits. *)
let place st a n =
  for i = 0 to n - 1 do
    st.pos.(a.(i)) <- i
  done

(* Position of site [m] among the first [n] entries of [a] (the record's
   [q] or [w]), or [n]: one probe of [pos], checked against [a]. *)
let index st a n m =
  if m < 0 || m >= Array.length st.pos then n
  else
    let i = st.pos.(m) in
    if i < n && a.(i) = m then i else n

(* Incarnation this member acked the prepare under (0 when it has never
   crashed with amnesia — i.e. always, under fail-stop). *)
let member_inc st m =
  let i = index st st.w st.n_w m in
  if i = st.n_w then 0 else st.winc.(i)

(* Suspect (and optionally charge the breaker for) every member still
   waiting in the current phase. *)
let blame_waiting t st ~charge_breaker =
  for i = 0 to st.n_q - 1 do
    let m = st.q.(i) in
    if m >= 0 then begin
      t.view.Detect.View.suspect m;
      if charge_breaker then breaker_failure t m
    end
  done

let read_result st i =
  {
    value = st.max_val.(i);
    ts = Timestamp.make ~version:st.max_v.(i) ~sid:st.max_s.(i);
    attempts = st.attempts + 1;
  }

let write_ts st i = Timestamp.make ~version:st.max_v.(i) ~sid:st.max_s.(i)

let is_write st =
  match st.kind with
  | Write_one _ | Write_many _ | Prepare_hold _ | Commit_held _ -> true
  | Read_one _ | Read_many _ -> false

(* Per position: stamp the span, count the key, record its latency.  A
   write's timestamp is the one it prepared. *)
let account_ok t st i ~elapsed =
  let write = is_write st in
  oresult_ts t st.spans.(i) ~version:st.max_v.(i) ~sid:st.max_s.(i);
  ofinish t st.spans.(i) Obs.Span.Ok;
  if write then begin
    bump t.writes_ok;
    Stats.add t.write_latency elapsed
  end
  else begin
    bump t.reads_ok;
    Stats.add t.read_latency elapsed
  end

let finish t st ~ok =
  remove_pending t.pending st.op;
  let elapsed = now t -. started st in
  let k = st.n_keys in
  for i = 0 to k - 1 do
    if ok then account_ok t st i ~elapsed
    else ofinish t st.spans.(i) (Obs.Span.Failed "gave_up")
  done;
  if not ok then
    if is_write st then t.writes_failed.value <- t.writes_failed.value + k
    else t.reads_failed.value <- t.reads_failed.value + k;
  st.ok <- ok;
  unlock t st;
  (match st.kind with
  | Read_one cb -> cb (if ok then Some (read_result st 0) else None)
  | Write_one cb -> cb (if ok then Some (write_ts st 0) else None)
  | Read_many cb | Write_many cb -> cb st
  | Prepare_hold cb ->
    (* Only failure ends a held prepare here; success parks it. *)
    cb (Error (if st.phase = Querying then `Version else `Prepare))
  | Commit_held cb -> cb ok);
  (* Pool the record only after the completion callback has run: anything
     it started took a different record, and nothing reaches this one
     anymore. *)
  release_op t st

let arm_timeout t st =
  Engine.schedule_packed (engine t) ~delay:(phase_timeout t) t.timeout_h
    ~meta:((st.op lsl 2) lor phase_code st.phase) ~payload:(Obj.repr 0)

let retry ?(timed_out = false) t st =
  remove_pending t.pending st.op;
  (* Roll back any prepared members of this attempt. *)
  if st.phase = Preparing then begin
    let abort = Message.Abort { op = st.op } in
    for i = 0 to st.n_w - 1 do
      send t ~dst:st.w.(i) abort
    done
  end;
  oend_phase t st ~timed_out;
  (* The members that never answered are negative evidence for the
     detector (the oracle view ignores it).  A timeout is also overload
     evidence: every still-waiting member sat on the request past the
     deadline. *)
  blame_waiting t st ~charge_breaker:timed_out;
  if st.attempts >= t.config.max_retries then finish t st ~ok:false
  else begin
    (* Exponential backoff with jitter before re-assembling: an instant
       retry against the same failed view (e.g. during a partition) would
       burn the whole budget in one instant of virtual time, and a fixed
       pause keeps hammering a dead quorum in lockstep. *)
    let delay =
      Detect.Backoff.delay t.config.backoff ~rng:t.rng ~attempt:st.attempts
    in
    if now t +. delay >= started st +. t.config.deadline then begin
      bump t.deadline_exceeded;
      finish t st ~ok:false
    end
    else if
      not
        (match t.budget with
        | None -> true
        | Some b -> Detect.Budget.try_retry b)
    then begin
      (* The global retry budget is drained: retrying now would feed the
         storm that drained it.  Fail fast. *)
      bump t.retries_suppressed;
      finish t st ~ok:false
    end
    else begin
      bump t.retries;
      oretry t st ~backoff:delay;
      st.attempts <- st.attempts + 1;
      Engine.schedule_packed (engine t) ~delay t.timeout_h
        ~meta:backoff_code ~payload:(Obj.repr st)
    end
  end

(* 2PC over a write quorum of the timestamps in [max_v]/[max_s]: stage
   every key on every member with one [Prepare] (one key) or
   [Prepare_batch] envelope (several). *)
let start_prepare t st =
  st.phase <- Preparing;
  match Protocol.write_quorum t.proto ~alive:(current_view t) ~rng:t.rng with
  | None -> retry t st
  | Some quorum ->
    let n = Bitset.fill_elements quorum st.w in
    st.n_w <- n;
    place st st.w n;
    Array.blit st.w 0 st.q 0 n;
    Array.fill st.winc 0 n 0;
    st.n_q <- n;
    st.waiting_n <- n;
    set_phase_started t st;
    ophase t st ~kind:Obs.Span.Prepare;
    arm_timeout t st;
    let k = st.n_keys in
    (* Every member that never lost its state answers with this one ack. *)
    let reply = Message.Prepare_ack { op = st.op; inc = 0 } in
    fan_out t st
      (if k = 1 then
         Message.Prepare
           {
             op = st.op;
             key = st.keys.(0);
             version = st.max_v.(0);
             sid = st.max_s.(0);
             value = st.values.(0);
             reply;
           }
       else
         Message.Prepare_batch
           {
             op = st.op;
             writes =
               Batch.make ~keys:(Array.sub st.keys 0 k)
                 ~versions:(Array.sub st.max_v 0 k)
                 ~sids:(Array.sub st.max_s 0 k)
                 ~values:(Array.sub st.values 0 k);
             reply;
           })

(* One attempt: assemble a read quorum and send every member the query —
   a [Read_request] for one key, one [Read_batch] envelope (one message,
   one service slot) for several.  A write continues into 2PC from
   [query_complete]; a write with a forced timestamp starts there.
   Retries re-run the whole operation against fresh quorums: a round
   either assembled its quorum or it did not. *)
let start_attempt t st =
  let op = fresh_op t in
  st.op <- op;
  st.phase <- Querying;
  set_phase_started t st;
  for i = 0 to st.n_keys - 1 do
    st.max_v.(i) <- 0;
    st.max_s.(i) <- 0;
    st.max_val.(i) <- ""
  done;
  st.replies <- [];
  st.n_q <- 0;
  st.waiting_n <- 0;
  st.n_w <- 0;
  add_pending t.pending op st;
  match st.forced with
  | Some ts ->
    st.max_v.(0) <- ts.Timestamp.version;
    st.max_s.(0) <- ts.Timestamp.sid;
    start_prepare t st
  | None -> (
    let view = current_view t in
    match Protocol.read_quorum t.proto ~alive:view ~rng:t.rng with
    | None -> retry t st
    | Some quorum ->
      let n = Bitset.fill_elements quorum st.q in
      place st st.q n;
      st.n_q <- n;
      st.waiting_n <- n;
      ophase t st ~kind:Obs.Span.Query;
      arm_timeout t st;
      fan_out t st
        (if st.n_keys = 1 then Message.Read_request { op; key = st.keys.(0) }
         else
           Message.Read_batch
             { op; n_keys = st.n_keys; keys = Array.sub st.keys 0 st.n_keys }))

(* A commit for the members that acked their prepare under [inc], with the
   ack they answer it with. *)
let commit_msg op inc =
  Message.Commit { op; inc; reply = Message.Commit_ack { op; inc } }

let commit_timeout t st =
  (* The decision is already commit; resend to the laggards instead of
     aborting.  Give up (uncertain outcome, counted failed) after the retry
     budget.  Commit resends are exempt from the global retry budget: they
     are narrow (laggards only), bounded by [max_retries], and giving up
     early here turns overload into stuck prepared writes. *)
  blame_waiting t st ~charge_breaker:true;
  if st.attempts >= t.config.max_retries then begin
    oend_phase t st ~timed_out:true;
    finish t st ~ok:false
  end
  else begin
    bump t.retries;
    oretry t st ~backoff:0.0;
    st.attempts <- st.attempts + 1;
    ophase t st ~kind:Obs.Span.Commit;
    arm_timeout t st;
    for i = 0 to st.n_q - 1 do
      let m = st.q.(i) in
      if m >= 0 then send t ~dst:m (commit_msg st.op (member_inc st m))
    done
  end

let reply_received t st ~src =
  let i = index st st.q st.n_q src in
  if i < st.n_q then begin
    st.q.(i) <- -1;
    st.waiting_n <- st.waiting_n - 1;
    observe_rtt t st;
    breaker_ok t src
  end

let observe_value st i ~version ~sid ~value =
  if Timestamp.newer_flat version sid st.max_v.(i) st.max_s.(i) then begin
    st.max_v.(i) <- version;
    st.max_s.(i) <- sid;
    st.max_val.(i) <- value
  end

(* Push the newest value back to quorum members that replied with an older
   timestamp (§2.2's transient failures: a recovered replica catches up on
   first contact). *)
let send_repairs t st =
  let key = st.keys.(0) and value = st.max_val.(0) in
  let version = st.max_v.(0) and sid = st.max_s.(0) in
  if t.config.read_repair && not (version = 0 && sid = 0) then
    List.iter
      (fun (site, v, s) ->
        if Timestamp.newer_flat version sid v s then begin
          bump t.repairs_sent;
          send t ~dst:site
            (Message.Repair { op = st.op; key; version; sid; value })
        end)
      st.replies

(* The version to write at position [i]: one past the newest seen for its
   key, or one past the version already chosen for an earlier occurrence
   of the same key (positions [< i] hold chosen versions), so a repeated
   key gets strictly increasing versions and its last value wins. *)
let rec base_version st i j =
  if j < 0 then st.max_v.(i)
  else if st.keys.(j) = st.keys.(i) then st.max_v.(j)
  else base_version st i (j - 1)

let query_complete t st =
  oend_phase t st ~timed_out:false;
  send_repairs t st;
  match st.kind with
  | Read_one _ | Read_many _ -> finish t st ~ok:true
  | Write_one _ | Write_many _ | Prepare_hold _ | Commit_held _ ->
    (* Versions obtained: write one past each under this site's id. *)
    for i = 0 to st.n_keys - 1 do
      st.max_v.(i) <- base_version st i (i - 1) + 1;
      st.max_s.(i) <- t.site
    done;
    start_prepare t st

let prepare_complete t st =
  st.phase <- Committing;
  set_phase_started t st;
  Array.blit st.w 0 st.q 0 st.n_w;
  st.n_q <- st.n_w;
  st.waiting_n <- st.n_w;
  ophase t st ~kind:Obs.Span.Commit;
  arm_timeout t st;
  (* One [Commit] per run of members that acked under the same
     incarnation: a failure-free round sends every member the same one. *)
  let commit = ref (commit_msg st.op st.winc.(0)) in
  for i = 0 to st.n_w - 1 do
    let inc = st.winc.(i) in
    (match !commit with
    | Message.Commit { inc = c; _ } when c = inc -> ()
    | _ -> commit := commit_msg st.op inc);
    send t ~dst:st.w.(i) !commit
  done

(* A reply stamped with an incarnation older than the newest one seen from
   its sender is evidence from a pre-crash life: the state it vouches for
   was (possibly) lost, so it must not complete a quorum.  Returns whether
   the message should be dropped.  Only replicas stamp incarnations, so a
   sender outside the replica universe is never fenced. *)
let stale_incarnation t ~src msg =
  let inc = Message.incarnation msg in
  if inc = Message.no_incarnation || src < 0 || src >= t.n_replicas then false
  else
    let newest = t.incs.(src) in
    if inc > newest then t.incs.(src) <- inc;
    if inc < newest then begin
      bump t.stale_inc_rejected;
      true
    end
    else false

let handle_op t ~src st msg =
  match (msg : Message.t) with
  | Read_reply { version; sid; value; _ } when st.phase = Querying ->
    reply_received t st ~src;
    if t.config.read_repair then
      st.replies <- (src, version, sid) :: st.replies;
    observe_value st 0 ~version ~sid ~value;
    if st.waiting_n = 0 then query_complete t st
  | Read_batch_reply { n; versions; sids; values; _ } when st.phase = Querying ->
    (* Entries answer the request positions in order, so a repeated key's
       positions all see the same entry values. *)
    reply_received t st ~src;
    for i = 0 to min st.n_keys n - 1 do
      observe_value st i ~version:versions.(i) ~sid:sids.(i) ~value:values.(i)
    done;
    if st.waiting_n = 0 then query_complete t st
  | Prepare_ack { inc; _ } when st.phase = Preparing ->
    reply_received t st ~src;
    let i = index st st.w st.n_w src in
    if i < st.n_w then st.winc.(i) <- inc;
    if st.waiting_n = 0 then begin
      match st.kind with
      | Prepare_hold cb ->
        (* Staged everywhere: park until the caller decides. *)
        oend_phase t st ~timed_out:false;
        st.phase <- Prepared;
        cb (Ok { st; held_op = st.op })
      | Read_one _ | Write_one _ | Read_many _ | Write_many _ | Commit_held _ ->
        prepare_complete t st
    end
  | Prepare_nack _ when st.phase = Querying || st.phase = Preparing ->
    (* Refusal: a queried or prepared member cannot take part (it is
       recovering, or our commit raced its crash).  Re-assemble. *)
    retry t st
  | Busy _ when st.phase = Querying || st.phase = Preparing ->
    (* The replica shed us: alive (the nack itself rehabilitated it in
       the detector) but drowning.  Charge the breaker and re-assemble
       elsewhere — the retry path's backoff and budget apply. *)
    bump t.busy_received;
    breaker_failure t src;
    retry t st
  | Prepare_nack _ when st.phase = Committing ->
    (* The decision was commit but this member lost its stage to a
       crash; the outcome is uncertain (other members did commit), so
       count the operation failed rather than resend forever. *)
    oend_phase t st ~timed_out:false;
    finish t st ~ok:false
  | Commit_ack { inc; _ }
    when st.phase = Committing && inc = member_inc st src ->
    reply_received t st ~src;
    if st.waiting_n = 0 then finish t st ~ok:true
  | Read_reply _ | Read_batch_reply _ | Prepare_ack _ | Prepare_nack _
  | Commit_ack _ | Busy _ | Read_request _ | Prepare _ | Commit _ | Abort _
  | Repair _ | Read_batch _ | Prepare_batch _ | Ping _ | Pong _
  | Provision_request _ | Snapshot_chunk _ | Chunk_ack _ | Tail_request _
  | Wal_tail _ ->
    (* Out-of-phase or replica-bound: ignore.  A committing op ignores
       [Busy] in particular — commits ride the priority lane, so a
       stray Busy must not fail a decided transaction. *)
    ()

(* Every message ends here, so this is where a read reply goes back to
   its sender's pool: nothing above keeps the record. *)
let handle t ~src msg =
  (* Any message is proof of life: rehabilitate its sender (clears any
     pluggable detector's suspicion). *)
  if src >= 0 && src < t.n_replicas then t.view.Detect.View.observe src;
  (if not (stale_incarnation t ~src msg) then
     let st = find_pending t.pending (Message.op_id msg) in
     if st != dummy_op then handle_op t ~src st msg);
  Message.recycle msg

let create ~site ~net ~proto ?locks ?view ?budget ?breaker ?obs
    ?(config = default_config) () =
  let n_replicas = Protocol.universe_size proto in
  let t =
    {
      site;
      net;
      proto;
      locks;
      config;
      obs;
      view =
        (match view with
        | Some v -> v
        | None -> Detect.View.oracle ~net ~self:site ~n:n_replicas);
      budget;
      breaker;
      rto =
        (if config.adaptive_timeout then
           Some (Detect.Rto.create ())
         else None);
      rng = Rng.split (Engine.rng (Network.engine net));
      n_replicas;
      next_seq = 0;
      timeout_h = uninit_timeout_h;
      pending = { p_ids = [| Probe.empty |]; p_sts = [| dummy_op |]; p_count = 0 };
      pool = Array.make 4 dummy_op;
      pool_n = 0;
      incs = Array.make n_replicas 0;
      reads_ok = { value = 0 };
      reads_failed = { value = 0 };
      writes_ok = { value = 0 };
      writes_failed = { value = 0 };
      retries = { value = 0 };
      repairs_sent = { value = 0 };
      deadline_exceeded = { value = 0 };
      stale_inc_rejected = { value = 0 };
      busy_received = { value = 0 };
      retries_suppressed = { value = 0 };
      batches = { value = 0 };
      read_latency = Stats.create ();
      write_latency = Stats.create ();
    }
  in
  (* One handler serves every timed event, capturing only [t].  A phase
     timeout carries its op id and phase in the int slot, and the check
     drops events whose op finished or moved on; a backoff wake-up carries
     the op record itself (it is out of [t.pending] while it waits). *)
  t.timeout_h <-
    Engine.handler (fun meta payload ->
        let pc = meta land 3 in
        if pc = backoff_code then start_attempt t (Obj.obj payload : op_state)
        else
          let st = find_pending t.pending (meta lsr 2) in
          if st != dummy_op && st.phase <> Prepared && phase_code st.phase = pc
             && st.waiting_n > 0
          then
            if pc = 2 then commit_timeout t st
            else retry ~timed_out:true t st);
  Network.set_handler net ~site (fun ~src msg -> handle t ~src msg);
  Option.iter (fun o -> Obs.Metrics.register_all (Obs.metrics o) counters t) obs;
  t

(* A span opens at operation entry — before any local lock wait — so its
   duration covers what the caller experiences.  With locks in play the
   wait shows up as an explicit [Lock] phase, auto-closed when the first
   quorum phase opens. *)
let open_span t ~op ~key =
  let span = ospan t ~op ~key in
  (match (t.obs, span, t.locks) with
  | Some obs, Some sp, Some _ -> Obs.phase obs sp ~kind:Obs.Span.Lock ()
  | _ -> ());
  span

(* Every *first-attempt* operation entry deposits into the shared retry
   budget: the more first-attempt traffic flows, the more retries the
   budget affords.  Caller-level re-issues pass [~retry:true] and must
   not deposit — otherwise a retry storm refills its own bucket. *)
let budget_attempt t =
  match t.budget with None -> () | Some b -> Detect.Budget.on_attempt b

(* A single-key op.  With [locks] (and no forced timestamp) it starts once
   its key's lock is granted, and each locked operation is its own lock
   owner, so one client may have several operations in flight on a key
   (pipelined windows, or one window spread over shards).  Owner ids come
   from the shared lock manager, so coordinators that share one (a
   client's per-shard coordinators, on one site) never collide.  A forced
   write is state transfer, which runs under its caller's fences: it takes
   no lock of its own.
   The record is taken and filled before the lock wait, so the grant is
   the record's own callback and a lock wait allocates no closure; the
   operation's start time is still stamped at the grant. *)
let start_one t kind ~op ~mode ~key ~pos ~value ~forced =
  let span = open_span t ~op ~key in
  let st = alloc_op t ~kind ~n:1 in
  st.keys.(0) <- key;
  st.values.(0) <- value;
  st.spans.(0) <- span;
  st.forced <- forced;
  st.slice_pos <- pos;
  match (t.locks, forced) with
  | Some lm, None ->
    st.owner <- Lock_manager.fresh_owner lm;
    if st.grant == no_grant then
      st.grant <-
        (fun () ->
          set_started t st;
          start_attempt t st);
    Lock_manager.acquire lm ~key ~mode ~owner:st.owner st.grant
  | _ ->
    st.owner <- no_owner;
    start_attempt t st

let read t ?(retry = false) ~key k =
  if not retry then budget_attempt t;
  start_one t (Read_one k) ~op:"read" ~mode:Lock_manager.Shared ~key ~pos:0
    ~value:"" ~forced:None

let write t ?(retry = false) ~key ?ts ~value k =
  if not retry then budget_attempt t;
  start_one t (Write_one k) ~op:"write" ~mode:Lock_manager.Exclusive ~key
    ~pos:0 ~value ~forced:ts

(* Multi-key entries, over the caller's slice [pos, pos + len) of [keys]
   (and [values]), copied into the record's columns.  A batch of one key
   is a plain single-key op — locks, spans, RNG draws and all.  Batches
   of >= 2 keys skip the per-key lock manager: monotone installs plus
   quorum intersection make concurrent multi-key writes safe without it
   (timestamps totally order by (version, sid)), and one lock per batch
   would serialize exactly the parallelism batching exists to create. *)
let check_slice fn keys ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length keys - len then
    invalid_arg ("Coordinator." ^ fn ^ ": slice out of bounds")

let no_values : string array = [||]

let start_many t kind ~op ~keys ~values ~pos ~len =
  budget_attempt t;
  if len > 1 then bump t.batches;
  let st = alloc_op t ~kind ~n:len in
  Array.blit keys pos st.keys 0 len;
  if values != no_values then Array.blit values pos st.values 0 len;
  st.slice_pos <- pos;
  for i = 0 to len - 1 do
    st.spans.(i) <- ospan t ~op ~key:st.keys.(i)
  done;
  start_attempt t st

let read_batch t ~keys ~pos ~len k =
  check_slice "read_batch" keys ~pos ~len;
  if len = 0 then k empty_outcome
  else if len = 1 then begin
    budget_attempt t;
    start_one t (Read_many k) ~op:"read" ~mode:Lock_manager.Shared
      ~key:keys.(pos) ~pos ~value:"" ~forced:None
  end
  else start_many t (Read_many k) ~op:"read" ~keys ~values:no_values ~pos ~len

let check_values fn keys values ~pos ~len =
  check_slice fn keys ~pos ~len;
  check_slice fn values ~pos ~len

let write_batch t ~keys ~values ~pos ~len k =
  check_values "write_batch" keys values ~pos ~len;
  if len = 0 then k empty_outcome
  else if len = 1 then begin
    budget_attempt t;
    start_one t (Write_many k) ~op:"write" ~mode:Lock_manager.Exclusive
      ~key:keys.(pos) ~pos ~value:values.(pos) ~forced:None
  end
  else start_many t (Write_many k) ~op:"write" ~keys ~values ~pos ~len

(* A held prepare is a write batch whose machine parks in [Prepared]
   between the prepare and commit phases: the same record, quorum and op
   id carry on into [commit_staged]'s commit phase, or end with
   [abort_staged]'s rollback.  Any key count, one included, and no locks:
   the caller owns concurrency control. *)
let prepare_batch t ~keys ~values ~pos ~len k =
  check_values "prepare_batch" keys values ~pos ~len;
  if len = 0 then invalid_arg "Coordinator.prepare_batch: no writes";
  start_many t (Prepare_hold k) ~op:"write" ~keys ~values ~pos ~len

type outcome = op_state

let outcome_ok o = o.ok
let outcome_pos o = o.slice_pos
let outcome_length o = o.n_keys

let check_position o i =
  if i < 0 || i >= o.n_keys then invalid_arg "Coordinator.outcome: position out of range"

let outcome_version o i =
  check_position o i;
  o.max_v.(i)

let outcome_sid o i =
  check_position o i;
  o.max_s.(i)

let outcome_value o i =
  check_position o i;
  o.max_val.(i)

let check_held fn { st; held_op } =
  if st.op <> held_op || st.phase <> Prepared then
    invalid_arg ("Coordinator." ^ fn ^ ": not a held prepare");
  st

let commit_staged t h k =
  let st = check_held "commit_staged" h in
  st.kind <- Commit_held k;
  prepare_complete t st

let abort_staged t h =
  let st = check_held "abort_staged" h in
  let abort = Message.Abort { op = st.op } in
  for i = 0 to st.n_w - 1 do
    send t ~dst:st.w.(i) abort
  done;
  (* Rolled back: each key's span closes failed, and the keys count as
     failed writes. *)
  for i = 0 to st.n_keys - 1 do
    ofinish t st.spans.(i) (Obs.Span.Failed "aborted");
    st.spans.(i) <- None
  done;
  st.kind <- Commit_held ignore;
  finish t st ~ok:false

let protocol t = t.proto

let set_protocol t proto =
  if Protocol.universe_size proto <> t.n_replicas then
    invalid_arg "Coordinator.set_protocol: replica universe changed";
  t.proto <- proto

let read_latency t = t.read_latency
let write_latency t = t.write_latency
