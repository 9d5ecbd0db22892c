module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng
module Stats = Dsutil.Stats
module Engine = Dsim.Engine
module Network = Dsim.Network
module Protocol = Quorum.Protocol

type config = {
  timeout : float;
  max_retries : int;
  oracle_view : bool;
  read_repair : bool;
  adaptive_timeout : bool;
  deadline : float;
  backoff : Detect.Backoff.policy;
  rto : Detect.Rto.config;
}

let default_config =
  {
    timeout = 25.0;
    max_retries = 4;
    oracle_view = true;
    read_repair = false;
    adaptive_timeout = false;
    deadline = Float.infinity;
    backoff = Detect.Backoff.default;
    rto = Detect.Rto.default_config;
  }

type read_result = { value : string; ts : Timestamp.t; attempts : int }

type phase =
  | Querying  (** collecting Read_replies (a read, or a write's version
                  phase) *)
  | Preparing
  | Committing
  | Prepared  (** a held prepare: staged everywhere, awaiting the caller's
                  commit or abort *)

(* Pooled per-operation quorum scratch.  [q] holds the members of the
   current phase, with replied members overwritten by -1 (so "waiting" is
   the >= 0 entries, in original send order, and a reply is matched by a
   linear scan — no list filtering, no allocation).  [w]/[winc] hold the
   2PC member set and the incarnation each member acked its prepare under.
   A scratch is taken from the coordinator's pool when an operation starts
   and returned when it ends, so a steady stream of operations allocates
   none of this. *)
type op_scratch = {
  q : int array;
  mutable n_q : int;  (** members in the current phase *)
  mutable waiting_n : int;  (** of which, still to reply *)
  w : int array;
  mutable n_w : int;
  winc : int array;
}

let make_scratch n =
  {
    q = Array.make (max n 1) (-1);
    n_q = 0;
    waiting_n = 0;
    w = Array.make (max n 1) 0;
    n_w = 0;
    winc = Array.make (max n 1) 0;
  }

(* Placeholder installed in place of a released scratch; doubles as the
   double-release guard ([release_scratch] is a no-op once it is in). *)
let dummy_scratch = make_scratch 0

(* What an operation is and whom it answers.  A single-key op and a
   multi-key batch run the same machine; only the callback's shape (and
   the envelope, chosen by key count) differs.  A held prepare answers
   twice: [Prepare_hold] when its prepare completes (or fails), then
   [Commit_held] once the caller's commit completes. *)
type kind =
  | Read_one of (read_result option -> unit)
  | Write_one of (Timestamp.t option -> unit)
  | Read_many of ((int * read_result option) list -> unit)
  | Write_many of ((int * Timestamp.t option) list -> unit)
  | Prepare_hold of ((staged, [ `Version | `Prepare ]) result -> unit)
  | Commit_held of (bool -> unit)

(* One operation over [n_keys] >= 1 keys, from entry to outcome, across
   every attempt.  Every field is mutable so a finished operation's record
   can go back to a pool and be re-initialized in place: a steady stream
   of operations allocates no op_state at all.  The per-position columns
   keep their capacity across reuses, so a single-key op allocates none of
   them either. *)
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
  mutable started : float;
  mutable sc : op_scratch;
  mutable phase : phase;
  mutable phase_started : float;  (** when this phase's requests went out *)
  mutable replies : (int * int * int) list;
      (** (member, version, sid) gathered while querying; only populated
          for single-key reads with read repair on *)
  mutable forced : Timestamp.t option;
      (** a single-key write's caller-chosen timestamp: no version phase *)
}

(* A held prepare's record, with the op id it parked under: a pooled
   record can park again under another op, and the id tells a spent
   handle from the new hold. *)
and staged = { st : op_state; held_op : int }

type t = {
  site : int;
  net : Message.t Network.t;
  mutable proto : Protocol.t;
  locks : Lock_manager.t option;
  config : config;
  obs : Obs.t option;
  mutable view : Detect.View.t;
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
  pending : (int, op_state) Hashtbl.t;
  mutable pool : op_scratch array;  (* free scratches, filled [0, pool_n) *)
  mutable pool_n : int;
  mutable op_pool : op_state array;  (* free op records, filled [0, op_pool_n) *)
  mutable op_pool_n : int;
  suspects : (int, float) Hashtbl.t;  (** site -> suspicion expiry time
                                          (timeout-suspicion ablation) *)
  incs : (int, int) Hashtbl.t;  (** site -> newest incarnation seen *)
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

let alloc_scratch t =
  if t.pool_n > 0 then begin
    t.pool_n <- t.pool_n - 1;
    let sc = t.pool.(t.pool_n) in
    t.pool.(t.pool_n) <- dummy_scratch;
    sc
  end
  else make_scratch t.n_replicas

let release_scratch t st =
  let sc = st.sc in
  if sc != dummy_scratch then begin
    st.sc <- dummy_scratch;
    let cap = Array.length t.pool in
    if t.pool_n = cap then begin
      let grown = Array.make (max 4 (2 * cap)) dummy_scratch in
      Array.blit t.pool 0 grown 0 cap;
      t.pool <- grown
    end;
    t.pool.(t.pool_n) <- sc;
    t.pool_n <- t.pool_n + 1
  end

let dummy_kind = Read_one (fun _ -> ())

(* op id of a pooled (released) record; doubles as the double-release
   guard in [release_op]. *)
let released = min_int

let make_op cap =
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
    started = 0.0;
    sc = dummy_scratch;
    phase = Querying;
    phase_started = 0.0;
    replies = [];
    forced = None;
  }

(* Placeholder filling vacated pool slots so released records are not
   retained twice. *)
let dummy_op = make_op 0

(* A record for a new operation over [n] keys; the caller fills [keys],
   [values] and [spans] for positions [0, n). *)
let alloc_op t ~kind ~n =
  let st =
    if t.op_pool_n > 0 then begin
      t.op_pool_n <- t.op_pool_n - 1;
      let st = t.op_pool.(t.op_pool_n) in
      t.op_pool.(t.op_pool_n) <- dummy_op;
      st
    end
    else make_op (max n 1)
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
  st.started <- Engine.now (engine t);
  st.sc <- alloc_scratch t;
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
    let cap = Array.length t.op_pool in
    if t.op_pool_n = cap then begin
      let grown = Array.make (max 4 (2 * cap)) dummy_op in
      Array.blit t.op_pool 0 grown 0 cap;
      t.op_pool <- grown
    end;
    t.op_pool.(t.op_pool_n) <- st;
    t.op_pool_n <- t.op_pool_n + 1
  end

(* The members of the current phase yet to reply, as a list (allocating:
   only for observability and detector bookkeeping on cold paths). *)
let live_members sc =
  let rec go i acc =
    if i < 0 then acc
    else
      let m = sc.q.(i) in
      go (i - 1) (if m >= 0 then m :: acc else acc)
  in
  go (sc.n_q - 1) []

(* The believed-alive replica view comes from the pluggable detector:
   ground truth by default (the paper assumes detectable failures), a
   timeout-suspicion ablation with [oracle_view = false], or any
   caller-supplied view (e.g. Detect.Heartbeat).  The circuit breaker
   filters it: an Open site is alive but drowning, and quorum assembly
   must route around it. *)
let current_view t =
  let view = t.view.Detect.View.alive () in
  match t.breaker with
  | None -> view
  | Some b -> Detect.Breaker.filter b view

let view t = t.view

(* Legacy timeout-based suspicion, packaged as a detector view: sites are
   suspected for a fixed window after missing a deadline and — the crucial
   rehabilitation rule — cleared the moment they are heard from again. *)
let suspicion_view t =
  let alive () =
    let now = Engine.now (engine t) in
    let view = Bitset.create t.n_replicas in
    for i = 0 to t.n_replicas - 1 do
      let believed_up =
        match Hashtbl.find_opt t.suspects i with
        | Some expiry when expiry > now -> false
        | _ -> true
      in
      if believed_up && Network.reachable t.net t.site i then Bitset.add view i
    done;
    view
  in
  Detect.View.make ~alive
    ~observe:(fun site -> Hashtbl.remove t.suspects site)
    ~suspect:(fun site ->
      let expiry = Engine.now (engine t) +. (4.0 *. t.config.timeout) in
      Hashtbl.replace t.suspects site expiry)
    ()

let phase_timeout t =
  match t.rto with
  | Some rto -> Detect.Rto.timeout rto
  | None -> t.config.timeout

let observe_rtt t ~since =
  match t.rto with
  | Some rto -> Detect.Rto.observe rto (Engine.now (engine t) -. since)
  | None -> ()

let observed_timeout t = phase_timeout t

let send t ~dst msg = Network.send t.net ~src:t.site ~dst msg

(* Send [msg] to every member of the current phase.  A multi-key envelope
   counts as [n_keys] logical messages at the network. *)
let fan_out t st msg =
  let sc = st.sc in
  let units = if st.n_keys = 1 then None else Some st.n_keys in
  for i = 0 to sc.n_q - 1 do
    Network.send t.net ?units ~src:t.site ~dst:sc.q.(i) msg
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
    | Some sp -> Obs.phase obs sp ~kind ~quorum:(live_members st.sc) ()
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

let register_counters t obs =
  let reg = Obs.Metrics.register (Obs.metrics obs) in
  reg "coord.reads.ok" t.reads_ok;
  reg "coord.reads.failed" t.reads_failed;
  reg "coord.writes.ok" t.writes_ok;
  reg "coord.writes.failed" t.writes_failed;
  reg "coord.retries" t.retries;
  reg "coord.repairs_sent" t.repairs_sent;
  reg "coord.deadline_exceeded" t.deadline_exceeded;
  reg "coord.stale_inc.rejected" t.stale_inc_rejected;
  reg "coord.busy_received" t.busy_received;
  reg "coord.retries_suppressed" t.retries_suppressed;
  reg "coord.batches" t.batches

(* Overload evidence is charged to the breaker separately from the
   liveness view: a Busy nack rehabilitates the site in the detector
   (it answered — it is alive) while still counting against it here. *)
let breaker_failure t site =
  match t.breaker with
  | None -> ()
  | Some b -> ignore (Detect.Breaker.record_failure b site)

let breaker_ok t site =
  match t.breaker with None -> () | Some b -> Detect.Breaker.record_ok b site

(* Each locked operation is its own lock owner, so one client may have
   several operations in flight on a key (pipelined windows, or one window
   spread over shards).  Owner ids come from the shared lock manager, so
   coordinators that share one (a client's per-shard coordinators, on one
   site) never collide. *)
let with_lock t ~key ~mode body =
  match t.locks with
  | None -> body (fun k -> k ())
  | Some lm ->
    let owner = Lock_manager.fresh_owner lm in
    Lock_manager.acquire lm ~key ~mode ~owner (fun () ->
        body (fun k ->
            Lock_manager.release lm ~key ~owner;
            k ()))

(* --- operation lifecycle ------------------------------------------------ *)

(* Reply matching scans the scratch with top-level loops over explicit
   arguments: a local [let rec] would capture [sc] and the sender and so
   allocate a closure on every reply. *)

(* Position of [m] in the 2PC member set, or [n_w]. *)
let rec member_index sc m i =
  if i = sc.n_w || sc.w.(i) = m then i else member_index sc m (i + 1)

(* Position of [src] among the current phase's members still waiting
   (replied members are -1), or [n_q]. *)
let rec waiting_index sc src i =
  if i = sc.n_q || sc.q.(i) = src then i else waiting_index sc src (i + 1)

(* Incarnation this member acked the prepare under (0 when it has never
   crashed with amnesia — i.e. always, under fail-stop). *)
let member_inc sc m =
  let i = member_index sc m 0 in
  if i = sc.n_w then 0 else sc.winc.(i)

(* Suspect (and optionally charge the breaker for) every member still
   waiting in the current phase. *)
let blame_waiting t st ~charge_breaker =
  let sc = st.sc in
  for i = 0 to sc.n_q - 1 do
    let m = sc.q.(i) in
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

(* [(key, f i)] for every position, in request order. *)
let per_key st f =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) ((st.keys.(i), f i) :: acc)
  in
  go (st.n_keys - 1) []

let finish t st ~ok =
  Hashtbl.remove t.pending st.op;
  release_scratch t st;
  let elapsed = Engine.now (engine t) -. st.started in
  let k = st.n_keys in
  for i = 0 to k - 1 do
    if ok then account_ok t st i ~elapsed
    else ofinish t st.spans.(i) (Obs.Span.Failed "gave_up")
  done;
  if not ok then
    if is_write st then t.writes_failed.value <- t.writes_failed.value + k
    else t.reads_failed.value <- t.reads_failed.value + k;
  (match st.kind with
  | Read_one cb -> cb (if ok then Some (read_result st 0) else None)
  | Write_one cb -> cb (if ok then Some (write_ts st 0) else None)
  | Read_many cb ->
    cb (per_key st (fun i -> if ok then Some (read_result st i) else None))
  | Write_many cb ->
    cb (per_key st (fun i -> if ok then Some (write_ts st i) else None))
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
  Hashtbl.remove t.pending st.op;
  let sc = st.sc in
  (* Roll back any prepared members of this attempt. *)
  if st.phase = Preparing then begin
    let abort = Message.Abort { op = st.op } in
    for i = 0 to sc.n_w - 1 do
      send t ~dst:sc.w.(i) abort
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
    if Engine.now (engine t) +. delay >= st.started +. t.config.deadline then begin
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
    let sc = st.sc in
    let n = Bitset.fill_elements quorum sc.w in
    sc.n_w <- n;
    Array.blit sc.w 0 sc.q 0 n;
    Array.fill sc.winc 0 n 0;
    sc.n_q <- n;
    sc.waiting_n <- n;
    st.phase_started <- Engine.now (engine t);
    ophase t st ~kind:Obs.Span.Prepare;
    arm_timeout t st;
    let k = st.n_keys in
    fan_out t st
      (if k = 1 then
         Message.Prepare
           {
             op = st.op;
             key = st.keys.(0);
             version = st.max_v.(0);
             sid = st.max_s.(0);
             value = st.values.(0);
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
  st.phase_started <- Engine.now (engine t);
  for i = 0 to st.n_keys - 1 do
    st.max_v.(i) <- 0;
    st.max_s.(i) <- 0;
    st.max_val.(i) <- ""
  done;
  st.replies <- [];
  let sc = st.sc in
  sc.n_q <- 0;
  sc.waiting_n <- 0;
  sc.n_w <- 0;
  Hashtbl.replace t.pending op st;
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
      let n = Bitset.fill_elements quorum sc.q in
      sc.n_q <- n;
      sc.waiting_n <- n;
      ophase t st ~kind:Obs.Span.Query;
      arm_timeout t st;
      fan_out t st
        (if st.n_keys = 1 then Message.Read_request { op; key = st.keys.(0) }
         else
           Message.Read_batch
             { op; n_keys = st.n_keys; keys = Array.sub st.keys 0 st.n_keys }))

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
    let sc = st.sc in
    for i = 0 to sc.n_q - 1 do
      let m = sc.q.(i) in
      if m >= 0 then
        send t ~dst:m (Message.Commit { op = st.op; inc = member_inc sc m })
    done
  end

let reply_received t st ~src =
  let sc = st.sc in
  let i = waiting_index sc src 0 in
  if i < sc.n_q then begin
    sc.q.(i) <- -1;
    sc.waiting_n <- sc.waiting_n - 1;
    observe_rtt t ~since:st.phase_started;
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
  let sc = st.sc in
  st.phase <- Committing;
  st.phase_started <- Engine.now (engine t);
  Array.blit sc.w 0 sc.q 0 sc.n_w;
  sc.n_q <- sc.n_w;
  sc.waiting_n <- sc.n_w;
  ophase t st ~kind:Obs.Span.Commit;
  arm_timeout t st;
  for i = 0 to sc.n_w - 1 do
    let m = sc.w.(i) in
    send t ~dst:m (Message.Commit { op = st.op; inc = sc.winc.(i) })
  done

(* A reply stamped with an incarnation older than the newest one seen from
   its sender is evidence from a pre-crash life: the state it vouches for
   was (possibly) lost, so it must not complete a quorum.  Returns whether
   the message should be dropped. *)
let stale_incarnation t ~src msg =
  let inc = Message.incarnation msg in
  if inc = Message.no_incarnation then false
  else
    let newest =
      match Hashtbl.find t.incs src with i -> i | exception Not_found -> 0
    in
    if inc > newest then Hashtbl.replace t.incs src inc;
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
    if st.sc.waiting_n = 0 then query_complete t st
  | Read_batch_reply { entries; _ } when st.phase = Querying ->
    (* Entries answer the request positions in order, so a repeated key's
       positions all see the same entry values. *)
    reply_received t st ~src;
    for i = 0 to min st.n_keys (Batch.length entries) - 1 do
      observe_value st i ~version:(Batch.version entries i)
        ~sid:(Batch.sid entries i) ~value:(Batch.value entries i)
    done;
    if st.sc.waiting_n = 0 then query_complete t st
  | Prepare_ack { inc; _ } when st.phase = Preparing ->
    reply_received t st ~src;
    let sc = st.sc in
    let i = member_index sc src 0 in
    if i < sc.n_w then sc.winc.(i) <- inc;
    if sc.waiting_n = 0 then begin
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
    when st.phase = Committing && inc = member_inc st.sc src ->
    reply_received t st ~src;
    if st.sc.waiting_n = 0 then finish t st ~ok:true
  | Read_reply _ | Read_batch_reply _ | Prepare_ack _ | Prepare_nack _
  | Commit_ack _ | Busy _ | Read_request _ | Prepare _ | Commit _ | Abort _
  | Repair _ | Read_batch _ | Prepare_batch _ | Ping _ | Pong _
  | Provision_request _ | Snapshot_chunk _ | Chunk_ack _ | Tail_request _
  | Wal_tail _ ->
    (* Out-of-phase or replica-bound: ignore.  A committing op ignores
       [Busy] in particular — commits ride the priority lane, so a
       stray Busy must not fail a decided transaction. *)
    ()

let handle t ~src msg =
  (* Any message is proof of life: rehabilitate its sender (clears both
     the ablation suspect list and any pluggable detector's suspicion). *)
  if src >= 0 && src < t.n_replicas then t.view.Detect.View.observe src;
  if not (stale_incarnation t ~src msg) then
    match Hashtbl.find t.pending (Message.op_id msg) with
    | st -> handle_op t ~src st msg
    | exception Not_found -> ()

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
      view = Detect.View.always_up ~n:1;  (* placeholder, set below *)
      budget;
      breaker;
      rto =
        (if config.adaptive_timeout then
           Some (Detect.Rto.create ~config:config.rto ())
         else None);
      rng = Rng.split (Engine.rng (Network.engine net));
      n_replicas;
      next_seq = 0;
      timeout_h = uninit_timeout_h;
      pending = Hashtbl.create 16;
      pool = Array.make 4 dummy_scratch;
      pool_n = 0;
      op_pool = Array.make 4 dummy_op;
      op_pool_n = 0;
      suspects = Hashtbl.create 16;
      incs = Hashtbl.create 16;
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
  (t.view <-
     (match view with
     | Some v -> v
     | None ->
       if config.oracle_view then
         Detect.View.oracle ~net ~self:site ~n:n_replicas
       else suspicion_view t));
  (* One handler serves every timed event, capturing only [t].  A phase
     timeout carries its op id and phase in the int slot, and the check
     drops events whose op finished or moved on; a backoff wake-up carries
     the op record itself (it is out of [t.pending] while it waits). *)
  t.timeout_h <-
    Engine.handler (fun meta payload ->
        let pc = meta land 3 in
        if pc = backoff_code then start_attempt t (Obj.obj payload : op_state)
        else
          match Hashtbl.find t.pending (meta lsr 2) with
          | exception Not_found -> ()
          | st ->
            if st.phase <> Prepared && phase_code st.phase = pc
               && st.sc.waiting_n > 0
            then
              if pc = 2 then commit_timeout t st
              else retry ~timed_out:true t st);
  Network.set_handler net ~site (fun ~src msg -> handle t ~src msg);
  Option.iter (register_counters t) obs;
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

let start_one t kind ~key ~value ~span ~forced =
  let st = alloc_op t ~kind ~n:1 in
  st.keys.(0) <- key;
  st.values.(0) <- value;
  st.spans.(0) <- span;
  st.forced <- forced;
  start_attempt t st

let read t ?(retry = false) ~key k =
  if not retry then budget_attempt t;
  let span = open_span t ~op:"read" ~key in
  with_lock t ~key ~mode:Lock_manager.Shared (fun unlock ->
      start_one t (Read_one (fun r -> unlock (fun () -> k r))) ~key ~value:""
        ~span ~forced:None)

(* A forced write is state transfer, which runs under its caller's
   fences: it takes no lock of its own. *)
let write t ?(retry = false) ~key ?ts ~value k =
  if not retry then budget_attempt t;
  let span = open_span t ~op:"write" ~key in
  match ts with
  | Some _ -> start_one t (Write_one k) ~key ~value ~span ~forced:ts
  | None ->
    with_lock t ~key ~mode:Lock_manager.Exclusive (fun unlock ->
        start_one t (Write_one (fun r -> unlock (fun () -> k r))) ~key ~value
          ~span ~forced:None)

(* Multi-key entries.  A batch of one key is a plain single-key op — locks,
   spans, RNG draws and all — so batch size 1 is byte-identical to
   unbatched operation.  Batches of >= 2 keys skip the per-key lock
   manager: monotone installs plus quorum intersection make concurrent
   multi-key writes safe without it (timestamps totally order by (version,
   sid)), and one lock per batch would serialize exactly the parallelism
   batching exists to create. *)
let start_many t ~retry ~op ~n kind fill =
  if not retry then budget_attempt t;
  if n > 1 then bump t.batches;
  let st = alloc_op t ~kind ~n in
  fill st;
  for i = 0 to n - 1 do
    st.spans.(i) <- ospan t ~op ~key:st.keys.(i)
  done;
  start_attempt t st

let read_batch t ?(retry = false) ~keys k =
  match keys with
  | [] -> k []
  | [ key ] -> read t ~retry ~key (fun r -> k [ (key, r) ])
  | _ ->
    start_many t ~retry ~op:"read" ~n:(List.length keys) (Read_many k)
      (fun st -> List.iteri (fun i key -> st.keys.(i) <- key) keys)

let fill_writes writes st =
  List.iteri
    (fun i (key, value) ->
      st.keys.(i) <- key;
      st.values.(i) <- value)
    writes

let write_batch t ?(retry = false) ~writes k =
  match writes with
  | [] -> k []
  | [ (key, value) ] -> write t ~retry ~key ~value (fun r -> k [ (key, r) ])
  | _ ->
    start_many t ~retry ~op:"write" ~n:(List.length writes) (Write_many k)
      (fill_writes writes)

(* A held prepare is a write batch whose machine parks in [Prepared]
   between the prepare and commit phases: the same record, quorum and op
   id carry on into [commit_staged]'s commit phase, or end with
   [abort_staged]'s rollback.  Any key count, one included, and no locks:
   the caller owns concurrency control. *)
let prepare_batch t ~writes k =
  if writes = [] then invalid_arg "Coordinator.prepare_batch: no writes";
  start_many t ~retry:false ~op:"write" ~n:(List.length writes) (Prepare_hold k)
    (fill_writes writes)

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
  let sc = st.sc in
  let abort = Message.Abort { op = st.op } in
  for i = 0 to sc.n_w - 1 do
    send t ~dst:sc.w.(i) abort
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

let reads_ok t = t.reads_ok.value
let reads_failed t = t.reads_failed.value
let writes_ok t = t.writes_ok.value
let writes_failed t = t.writes_failed.value
let retries t = t.retries.value
let repairs_sent t = t.repairs_sent.value
let deadline_exceeded t = t.deadline_exceeded.value
let stale_incarnation_rejections t = t.stale_inc_rejected.value
let busy_received t = t.busy_received.value
let retries_suppressed t = t.retries_suppressed.value
let batches t = t.batches.value
let read_latency t = t.read_latency
let write_latency t = t.write_latency
