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
  pipeline_levels : bool;
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
    pipeline_levels = false;
  }

type read_result = { value : string; ts : Timestamp.t; attempts : int }

type metrics = {
  reads_ok : int;
  reads_failed : int;
  writes_ok : int;
  writes_failed : int;
  retries : int;
  repairs_sent : int;
  deadline_exceeded : int;
  stale_incarnation_rejections : int;
  busy_received : int;
  retries_suppressed : int;
  batches : int;
  read_latency : Stats.t;
  write_latency : Stats.t;
}

type kind =
  | Read_op of (read_result option -> unit)
  | Write_op of string * (Timestamp.t option -> unit)

type phase =
  | Querying  (** collecting Read_replies (a read, or a write's version
                  phase) *)
  | Preparing
  | Committing

(* Pooled per-operation quorum scratch.  [q] holds the members of the
   current phase, with replied members overwritten by -1 (so "waiting" is
   the >= 0 entries, in original send order, and a reply is matched by a
   linear scan — no list filtering, no allocation).  [w]/[winc] hold the
   2PC member set and the incarnation each member acked its prepare under.
   A scratch is taken from the coordinator's pool at attempt start and
   returned when the attempt ends, so a steady stream of operations
   allocates none of this. *)
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

(* Every field is mutable so a finished operation's record can go back to
   a pool and be re-initialized in place: a steady stream of operations
   allocates no op_state at all (the record is ~18 words, paid per
   attempt otherwise). *)
type op_state = {
  mutable op : int;  (** the id of the {e current attempt} *)
  mutable key : int;
  mutable kind : kind;
  mutable attempts : int;  (** mutated in place by commit resends *)
  mutable started : float;
  mutable span : Obs.Span.t option;
      (** one span per logical op, across attempts *)
  mutable sc : op_scratch;
  mutable phase : phase;
  mutable phase_started : float;  (** when this phase's requests went out *)
  mutable max_version : int;  (** newest (version, sid, value) seen while *)
  mutable max_sid : int;  (** querying — flat, boxed only at finish *)
  mutable max_value : string;
  mutable write_version : int;  (** chosen write timestamp, flat *)
  mutable write_sid : int;
  mutable replies : (int * int * int) list;
      (** (member, version, sid) gathered while querying; only populated
          when read repair is on *)
}

(* A batched operation: one quorum round (and, for writes, one 2PC
   exchange) carries many keys.  Parallel to [op_state]; single-key
   batches never build one — the public entries delegate to the plain
   operations, keeping unbatched behavior byte-identical. *)
type batch_kind =
  | Batch_read of ((int * read_result option) list -> unit)
  | Batch_write of ((int * Timestamp.t option) list -> unit)

type batch_state = {
  b_op : int;
  b_keys : int list;  (** requested keys, in request order *)
  b_values : (int * string) list;  (** writes only: key -> value *)
  b_kind : batch_kind;
  mutable b_attempts : int;
  b_started : float;
  b_spans : Obs.Span.t option list;
      (** one span per entry of [b_keys], by position: a key may repeat *)
  mutable b_phase : phase;
  mutable b_phase_started : float;
  mutable b_waiting : int list;
  b_max : (int, int * int * string) Hashtbl.t;
      (** per-key newest (version, sid, value) *)
  mutable b_quorum : int list;
  mutable b_writes : Batch.t;
  mutable b_member_inc : (int * int) list;
}

type t = {
  site : int;
  net : Message.t Network.t;
  mutable proto : Protocol.t;
  mutable levels : Protocol.level_plan option;
      (* cached [read_levels] of the current protocol; [None] unless
         [pipeline_levels] is set and the protocol supports it *)
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
      (* preallocated phase-timeout handler: (op, phase) packed in the
         event's int slot, so arming a timeout allocates no closure *)
  pending : (int, op_state) Hashtbl.t;
  pending_batches : (int, batch_state) Hashtbl.t;
  mutable pool : op_scratch array;  (* free scratches, filled [0, pool_n) *)
  mutable pool_n : int;
  mutable op_pool : op_state array;  (* free op records, filled [0, op_pool_n) *)
  mutable op_pool_n : int;
  suspects : (int, float) Hashtbl.t;  (** site -> suspicion expiry time
                                          (timeout-suspicion ablation) *)
  incs : (int, int) Hashtbl.t;  (** site -> newest incarnation seen *)
  mutable stale_inc_rejections : int;
  mutable reads_ok : int;
  mutable reads_failed : int;
  mutable writes_ok : int;
  mutable writes_failed : int;
  mutable retries : int;
  mutable repairs_sent : int;
  mutable deadline_exceeded : int;
  mutable busy_received : int;
  mutable retries_suppressed : int;
  mutable batches : int;
  read_latency : Stats.t;
  write_latency : Stats.t;
}

let engine t = Network.engine t.net

(* Sentinel installed by [create]; the first armed timeout swaps in the
   real handler (built inside the operation-lifecycle recursion). *)
let uninit_timeout_h = Engine.handler (fun _ _ -> ())

let phase_code = function Querying -> 0 | Preparing -> 1 | Committing -> 2

let fresh_op t =
  let id = (t.next_seq * Network.size t.net) + t.site in
  t.next_seq <- t.next_seq + 1;
  id

let alloc_scratch t =
  if t.pool_n > 0 then begin
    t.pool_n <- t.pool_n - 1;
    let sc = t.pool.(t.pool_n) in
    t.pool.(t.pool_n) <- dummy_scratch;
    sc.n_q <- 0;
    sc.waiting_n <- 0;
    sc.n_w <- 0;
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

let dummy_kind = Read_op (fun _ -> ())

(* op id of a pooled (released) record; doubles as the double-release
   guard in [release_op]. *)
let released = min_int

let make_op () =
  {
    op = released;
    key = 0;
    kind = dummy_kind;
    attempts = 0;
    started = 0.0;
    span = None;
    sc = dummy_scratch;
    phase = Querying;
    phase_started = 0.0;
    max_version = 0;
    max_sid = 0;
    max_value = "";
    write_version = 0;
    write_sid = 0;
    replies = [];
  }

(* Placeholder filling vacated pool slots so released records are not
   retained twice. *)
let dummy_op = make_op ()

let alloc_op t ~op ~key ~kind ~attempts ~started ~span =
  let st =
    if t.op_pool_n > 0 then begin
      t.op_pool_n <- t.op_pool_n - 1;
      let st = t.op_pool.(t.op_pool_n) in
      t.op_pool.(t.op_pool_n) <- dummy_op;
      st
    end
    else make_op ()
  in
  st.op <- op;
  st.key <- key;
  st.kind <- kind;
  st.attempts <- attempts;
  st.started <- started;
  st.span <- span;
  st.sc <- alloc_scratch t;
  st.phase <- Querying;
  st.phase_started <- Engine.now (engine t);
  st.max_version <- 0;
  st.max_sid <- 0;
  st.max_value <- "";
  st.write_version <- 0;
  st.write_sid <- 0;
  st.replies <- [];
  st

(* Only safe once nothing can reach [st] again: it must already be out of
   [t.pending] (stale timeout events look ops up there and drop misses),
   and the caller must not touch it after this returns. *)
let release_op t st =
  if st.op <> released then begin
    st.op <- released;
    st.kind <- dummy_kind;
    st.span <- None;
    st.max_value <- "";
    st.replies <- [];
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

(* --- observability hooks (single match, no work, when [obs = None]) ----- *)

let ospan t ~op ~key =
  match t.obs with
  | None -> None
  | Some obs -> Some (Obs.span obs ~op ~site:t.site ~key ())

let ophase t st ~kind =
  match (t.obs, st.span) with
  | Some obs, Some sp -> Obs.phase obs sp ~kind ~quorum:(live_members st.sc) ()
  | _ -> ()

let oend_phase t st ~timed_out =
  match (t.obs, st.span) with
  | Some obs, Some sp -> Obs.end_phase obs sp ~timed_out ()
  | _ -> ()

let oretry t st ~backoff =
  match (t.obs, st.span) with
  | Some obs, Some sp -> Obs.retry obs sp ~backoff ()
  | _ -> ()

let ofinish t st outcome =
  match (t.obs, st.span) with
  | Some obs, Some sp -> Obs.finish obs sp ~outcome
  | _ -> ()

let ocount t name =
  match t.obs with
  | None -> ()
  | Some obs -> Obs.Metrics.incr (Obs.Metrics.counter (Obs.metrics obs) name)

(* Overload evidence is charged to the breaker separately from the
   liveness view: a Busy nack rehabilitates the site in the detector
   (it answered — it is alive) while still counting against it here. *)
let breaker_failure t site =
  match t.breaker with
  | None -> ()
  | Some b ->
    if Detect.Breaker.record_failure b site then ocount t "coord.breaker.trips"

let breaker_ok t site =
  match t.breaker with None -> () | Some b -> Detect.Breaker.record_ok b site

let oresult_ts t st ~version ~sid =
  match (t.obs, st.span) with
  | Some obs, Some sp -> Obs.set_result_ts obs sp ~version ~sid
  | _ -> ()

let with_lock t ~key ~mode body =
  match t.locks with
  | None -> body (fun k -> k ())
  | Some lm ->
    Lock_manager.acquire lm ~key ~mode ~owner:t.site (fun () ->
        body (fun k ->
            Lock_manager.release lm ~key ~owner:t.site;
            k ()))

(* --- operation lifecycle ------------------------------------------------ *)

(* Incarnation this member acked the prepare under (0 when it has never
   crashed with amnesia — i.e. always, under fail-stop). *)
let member_inc sc m =
  let rec go i =
    if i = sc.n_w then 0 else if sc.w.(i) = m then sc.winc.(i) else go (i + 1)
  in
  go 0

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

let finish t st outcome =
  Hashtbl.remove t.pending st.op;
  release_scratch t st;
  let elapsed = Engine.now (engine t) -. st.started in
  (match outcome with
  | `Read_ok r ->
    oresult_ts t st ~version:r.ts.Timestamp.version ~sid:r.ts.Timestamp.sid
  | `Write_ok (ts : Timestamp.t) ->
    oresult_ts t st ~version:ts.Timestamp.version ~sid:ts.Timestamp.sid
  | `Failed -> ());
  (match outcome with
  | `Read_ok _ | `Write_ok _ -> ofinish t st Obs.Span.Ok
  | `Failed -> ofinish t st (Obs.Span.Failed "gave_up"));
  (match (st.kind, outcome) with
  | Read_op k, `Read_ok result ->
    t.reads_ok <- t.reads_ok + 1;
    Stats.add t.read_latency elapsed;
    k (Some result)
  | Read_op k, `Failed ->
    t.reads_failed <- t.reads_failed + 1;
    k None
  | Write_op (_, k), `Write_ok ts ->
    t.writes_ok <- t.writes_ok + 1;
    Stats.add t.write_latency elapsed;
    k (Some ts)
  | Write_op (_, k), `Failed ->
    t.writes_failed <- t.writes_failed + 1;
    k None
  | Read_op _, `Write_ok _ | Write_op _, `Read_ok _ -> assert false);
  (* Pool the record only after the completion callback has run: anything
     it started took a different record, and nothing reaches this one
     anymore. *)
  release_op t st

let rec start_attempt t ~key ~kind ~attempts ~started ~span =
  let op = fresh_op t in
  let st = alloc_op t ~op ~key ~kind ~attempts ~started ~span in
  Hashtbl.replace t.pending op st;
  let view = current_view t in
  let pipelined =
    match (st.kind, t.levels) with
    | Read_op _, Some lp -> start_pipelined t st ~view lp
    | _ -> false
  in
  if not pipelined then begin
    match Protocol.read_quorum t.proto ~alive:view ~rng:t.rng with
    | None -> retry t st
    | Some quorum ->
      let sc = st.sc in
      let n = Bitset.fill_elements quorum sc.q in
      sc.n_q <- n;
      sc.waiting_n <- n;
      ophase t st ~kind:Obs.Span.Query;
      arm_timeout t st;
      let msg = Message.Read_request { op; key } in
      for i = 0 to n - 1 do
        send t ~dst:sc.q.(i) msg
      done
  end

(* Tree-level pipelined read (opt-in): stream the quorum instead of
   materializing it — each level's request leaves the moment that level's
   member resolves from the plan cache, rather than after every level has
   been walked and the whole quorum bitset built.  Selection consumes the
   RNG exactly as whole-quorum assembly would (see
   {!Quorum.Protocol.level_plan}); what changes is dispatch order (level
   order rather than ascending site id) and the absence of the quorum
   bitset/member-list materialization.  Returns false (caller falls back)
   only when called with no level plan; a level with no alive candidate
   behaves like failed quorum assembly — the attempt retries, and replies
   to the already-issued requests are dropped as stale. *)
and start_pipelined t st ~view (lp : Protocol.level_plan) =
  let sc = st.sc in
  arm_timeout t st;
  let msg = Message.Read_request { op = st.op; key = st.key } in
  let rec issue level =
    if level = lp.n_levels then true
    else begin
      let m = lp.level_site ~alive:view ~rng:t.rng ~level in
      if m < 0 then false
      else begin
        sc.q.(sc.n_q) <- m;
        sc.n_q <- sc.n_q + 1;
        sc.waiting_n <- sc.waiting_n + 1;
        send t ~dst:m msg;
        issue (level + 1)
      end
    end
  in
  if issue 0 then ophase t st ~kind:Obs.Span.Query
  else begin
    (* Assembly failed mid-stream: the members already contacted are not
       at fault — drop them from the phase before the retry machinery
       assigns blame. *)
    sc.n_q <- 0;
    sc.waiting_n <- 0;
    retry t st
  end;
  true

and retry ?(timed_out = false) t st =
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
  if st.attempts >= t.config.max_retries then finish t st `Failed
  else begin
    (* Exponential backoff with jitter before re-assembling: an instant
       retry against the same failed view (e.g. during a partition) would
       burn the whole budget in one instant of virtual time, and a fixed
       pause keeps hammering a dead quorum in lockstep. *)
    let delay =
      Detect.Backoff.delay t.config.backoff ~rng:t.rng ~attempt:st.attempts
    in
    if Engine.now (engine t) +. delay >= st.started +. t.config.deadline then begin
      t.deadline_exceeded <- t.deadline_exceeded + 1;
      ocount t "coord.deadline_exceeded";
      finish t st `Failed
    end
    else if
      not
        (match t.budget with
        | None -> true
        | Some b -> Detect.Budget.try_retry b)
    then begin
      (* The global retry budget is drained: retrying now would feed the
         storm that drained it.  Fail fast. *)
      t.retries_suppressed <- t.retries_suppressed + 1;
      ocount t "coord.retries_suppressed";
      finish t st `Failed
    end
    else begin
      t.retries <- t.retries + 1;
      oretry t st ~backoff:delay;
      release_scratch t st;
      (* Snapshot before pooling: the closure fires after the record may
         have been re-initialized for another operation. *)
      let key = st.key and kind = st.kind and attempts = st.attempts + 1 in
      let started = st.started and span = st.span in
      release_op t st;
      Engine.schedule (engine t) ~delay (fun () ->
          start_attempt t ~key ~kind ~attempts ~started ~span)
    end
  end

and arm_timeout t st =
  (* The handler captures only [t]; the op id and armed phase travel in
     the event's int slot, and the fire-time check drops events whose op
     finished or moved on.  One-time lazy install: the handler body needs
     [retry]/[commit_timeout] from this recursion. *)
  if t.timeout_h == uninit_timeout_h then
    t.timeout_h <-
      Engine.handler (fun meta _ ->
          let op = meta lsr 2 and pc = meta land 3 in
          match Hashtbl.find t.pending op with
          | exception Not_found -> ()
          | st' ->
            if phase_code st'.phase = pc && st'.sc.waiting_n > 0 then
              if pc = 2 then commit_timeout t st'
              else retry ~timed_out:true t st');
  Engine.schedule_packed (engine t) ~delay:(phase_timeout t) t.timeout_h
    ~meta:((st.op lsl 2) lor phase_code st.phase) ~payload:(Obj.repr 0)

and commit_timeout t st =
  (* The decision is already commit; resend to the laggards instead of
     aborting.  Give up (uncertain outcome, counted failed) after the retry
     budget.  Commit resends are exempt from the global retry budget: they
     are narrow (laggards only), bounded by [max_retries], and giving up
     early here turns overload into stuck prepared writes. *)
  blame_waiting t st ~charge_breaker:true;
  if st.attempts >= t.config.max_retries then begin
    Hashtbl.remove t.pending st.op;
    oend_phase t st ~timed_out:true;
    finish t st `Failed
  end
  else begin
    t.retries <- t.retries + 1;
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
  let rec mark i =
    if i = sc.n_q then false
    else if sc.q.(i) = src then begin
      sc.q.(i) <- -1;
      sc.waiting_n <- sc.waiting_n - 1;
      true
    end
    else mark (i + 1)
  in
  if mark 0 then begin
    observe_rtt t ~since:st.phase_started;
    breaker_ok t src
  end

(* Push the newest value back to quorum members that replied with an older
   timestamp (§2.2's transient failures: a recovered replica catches up on
   first contact). *)
let send_repairs t st =
  if t.config.read_repair && not (st.max_version = 0 && st.max_sid = 0) then
    List.iter
      (fun (site, version, sid) ->
        if Timestamp.newer_flat st.max_version st.max_sid version sid then begin
          t.repairs_sent <- t.repairs_sent + 1;
          ocount t "coord.repairs_sent";
          send t ~dst:site
            (Message.Repair
               {
                 op = st.op;
                 key = st.key;
                 version = st.max_version;
                 sid = st.max_sid;
                 value = st.max_value;
               })
        end)
      st.replies

let query_complete t st =
  oend_phase t st ~timed_out:false;
  send_repairs t st;
  match st.kind with
  | Read_op _ ->
    finish t st
      (`Read_ok
        {
          value = st.max_value;
          ts = Timestamp.make ~version:st.max_version ~sid:st.max_sid;
          attempts = st.attempts + 1;
        })
  | Write_op (value, _) -> begin
    (* Version obtained; move to 2PC over a write quorum. *)
    let view = current_view t in
    match Protocol.write_quorum t.proto ~alive:view ~rng:t.rng with
    | None -> retry t st
    | Some quorum ->
      let sc = st.sc in
      let n = Bitset.fill_elements quorum sc.w in
      sc.n_w <- n;
      Array.blit sc.w 0 sc.q 0 n;
      Array.fill sc.winc 0 n 0;
      sc.n_q <- n;
      sc.waiting_n <- n;
      let version = st.max_version + 1 in
      st.phase <- Preparing;
      st.phase_started <- Engine.now (engine t);
      st.write_version <- version;
      st.write_sid <- t.site;
      ophase t st ~kind:Obs.Span.Prepare;
      arm_timeout t st;
      let msg =
        Message.Prepare { op = st.op; key = st.key; version; sid = t.site; value }
      in
      for i = 0 to n - 1 do
        send t ~dst:sc.w.(i) msg
      done
  end

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

(* --- batched operations ------------------------------------------------- *)

let b_member_inc bst m =
  match List.assoc_opt m bst.b_member_inc with Some i -> i | None -> 0

let ofinish_sp t span outcome =
  match (t.obs, span) with
  | Some obs, Some sp -> Obs.finish obs sp ~outcome
  | _ -> ()

let oresult_ts_sp t span ~version ~sid =
  match (t.obs, span) with
  | Some obs, Some sp -> Obs.set_result_ts obs sp ~version ~sid
  | _ -> ()

let finish_batch_failed t bst =
  Hashtbl.remove t.pending_batches bst.b_op;
  List.iter (fun sp -> ofinish_sp t sp (Obs.Span.Failed "gave_up")) bst.b_spans;
  match bst.b_kind with
  | Batch_read k ->
    t.reads_failed <- t.reads_failed + List.length bst.b_keys;
    k (List.map (fun key -> (key, None)) bst.b_keys)
  | Batch_write k ->
    t.writes_failed <- t.writes_failed + List.length bst.b_values;
    k (List.map (fun (key, _) -> (key, None)) bst.b_values)

let finish_batch_reads t bst =
  Hashtbl.remove t.pending_batches bst.b_op;
  let elapsed = Engine.now (engine t) -. bst.b_started in
  let results =
    List.map2
      (fun key sp ->
        let version, sid, value =
          match Hashtbl.find_opt bst.b_max key with
          | Some vsv -> vsv
          | None -> (0, 0, "")
        in
        oresult_ts_sp t sp ~version ~sid;
        ofinish_sp t sp Obs.Span.Ok;
        t.reads_ok <- t.reads_ok + 1;
        Stats.add t.read_latency elapsed;
        ( key,
          Some
            {
              value;
              ts = Timestamp.make ~version ~sid;
              attempts = bst.b_attempts + 1;
            } ))
      bst.b_keys bst.b_spans
  in
  match bst.b_kind with
  | Batch_read k -> k results
  | Batch_write _ -> assert false

let finish_batch_writes t bst =
  Hashtbl.remove t.pending_batches bst.b_op;
  let elapsed = Engine.now (engine t) -. bst.b_started in
  let writes = bst.b_writes in
  let results =
    List.mapi
      (fun i sp ->
        let key = Batch.key writes i in
        let version = Batch.version writes i and sid = Batch.sid writes i in
        oresult_ts_sp t sp ~version ~sid;
        ofinish_sp t sp Obs.Span.Ok;
        t.writes_ok <- t.writes_ok + 1;
        Stats.add t.write_latency elapsed;
        (key, Some (Timestamp.make ~version ~sid)))
      bst.b_spans
  in
  match bst.b_kind with
  | Batch_write k -> k results
  | Batch_read _ -> assert false

let batch_reply_received t bst ~src =
  if List.mem src bst.b_waiting then begin
    observe_rtt t ~since:bst.b_phase_started;
    breaker_ok t src
  end;
  bst.b_waiting <- List.filter (fun m -> m <> src) bst.b_waiting

(* The batch lifecycle mirrors the single-op one: assemble a read quorum
   and fan out ONE multi-key envelope per member (counted as one message,
   one service slot); writes continue into a 2PC whose prepare is likewise
   one envelope.  Retries re-run the whole batch — per-key partial retry
   would need per-key quorum state for no observable gain, since a batch
   either assembled its quorum or did not. *)
let rec start_batch t ~keys ~values ~kind ~attempts ~started ~spans =
  let op = fresh_op t in
  let bst =
    {
      b_op = op;
      b_keys = keys;
      b_values = values;
      b_kind = kind;
      b_attempts = attempts;
      b_started = started;
      b_spans = spans;
      b_phase = Querying;
      b_phase_started = Engine.now (engine t);
      b_waiting = [];
      b_max = Hashtbl.create (List.length keys);
      b_quorum = [];
      b_writes = Batch.empty;
      b_member_inc = [];
    }
  in
  Hashtbl.replace t.pending_batches op bst;
  let view = current_view t in
  match Protocol.read_quorum t.proto ~alive:view ~rng:t.rng with
  | None -> batch_retry t bst
  | Some quorum ->
    let members = Bitset.elements quorum in
    bst.b_waiting <- members;
    arm_batch_timeout t bst;
    let keys_arr = Array.of_list keys in
    let units = Array.length keys_arr in
    let msg = Message.Read_batch { op; n_keys = units; keys = keys_arr } in
    List.iter
      (fun m -> Network.send t.net ~units ~src:t.site ~dst:m msg)
      members

and batch_retry ?(timed_out = false) t bst =
  Hashtbl.remove t.pending_batches bst.b_op;
  if bst.b_phase = Preparing then
    List.iter
      (fun m -> send t ~dst:m (Message.Abort { op = bst.b_op }))
      bst.b_quorum;
  List.iter t.view.Detect.View.suspect bst.b_waiting;
  if timed_out then List.iter (breaker_failure t) bst.b_waiting;
  if bst.b_attempts >= t.config.max_retries then finish_batch_failed t bst
  else begin
    let delay =
      Detect.Backoff.delay t.config.backoff ~rng:t.rng ~attempt:bst.b_attempts
    in
    if Engine.now (engine t) +. delay >= bst.b_started +. t.config.deadline
    then begin
      t.deadline_exceeded <- t.deadline_exceeded + 1;
      ocount t "coord.deadline_exceeded";
      finish_batch_failed t bst
    end
    else if
      not
        (match t.budget with
        | None -> true
        | Some b -> Detect.Budget.try_retry b)
    then begin
      t.retries_suppressed <- t.retries_suppressed + 1;
      ocount t "coord.retries_suppressed";
      finish_batch_failed t bst
    end
    else begin
      t.retries <- t.retries + 1;
      Engine.schedule (engine t) ~delay (fun () ->
          start_batch t ~keys:bst.b_keys ~values:bst.b_values ~kind:bst.b_kind
            ~attempts:(bst.b_attempts + 1) ~started:bst.b_started
            ~spans:bst.b_spans)
    end
  end

and arm_batch_timeout t bst =
  let op = bst.b_op and phase = bst.b_phase in
  Engine.schedule (engine t) ~delay:(phase_timeout t) (fun () ->
      match Hashtbl.find_opt t.pending_batches op with
      | Some b' when b'.b_phase = phase && b'.b_waiting <> [] ->
        if phase = Committing then batch_commit_timeout t b'
        else batch_retry ~timed_out:true t b'
      | _ -> ())

and batch_commit_timeout t bst =
  (* The decision is commit: resend to the laggards, as in the single-op
     path; commit resends stay exempt from the global retry budget. *)
  List.iter t.view.Detect.View.suspect bst.b_waiting;
  List.iter (breaker_failure t) bst.b_waiting;
  if bst.b_attempts >= t.config.max_retries then begin
    Hashtbl.remove t.pending_batches bst.b_op;
    finish_batch_failed t bst
  end
  else begin
    t.retries <- t.retries + 1;
    bst.b_attempts <- bst.b_attempts + 1;
    arm_batch_timeout t bst;
    List.iter
      (fun m ->
        send t ~dst:m (Message.Commit { op = bst.b_op; inc = b_member_inc bst m }))
      bst.b_waiting
  end

and batch_query_complete t bst =
  match bst.b_kind with
  | Batch_read _ -> finish_batch_reads t bst
  | Batch_write _ -> (
    let view = current_view t in
    match Protocol.write_quorum t.proto ~alive:view ~rng:t.rng with
    | None -> batch_retry t bst
    | Some quorum ->
      let members = Bitset.elements quorum in
      (* Per-key version bump from the per-key newest seen in the query
         round — keys in one batch are at unrelated versions.  A key
         written twice in one batch gets strictly increasing versions, so
         the later value wins at install time. *)
      let n = List.length bst.b_values in
      let builder = Batch.Builder.create ~capacity:n () in
      let bumped = Hashtbl.create 8 in
      List.iter
        (fun (key, value) ->
          let version =
            match Hashtbl.find_opt bumped key with
            | Some v -> v
            | None -> (
              match Hashtbl.find_opt bst.b_max key with
              | Some (v, _, _) -> v
              | None -> 0)
          in
          Hashtbl.replace bumped key (version + 1);
          Batch.Builder.push builder ~key ~version:(version + 1) ~sid:t.site
            ~value)
        bst.b_values;
      let writes = Batch.Builder.snapshot builder in
      bst.b_phase <- Preparing;
      bst.b_phase_started <- Engine.now (engine t);
      bst.b_waiting <- members;
      bst.b_quorum <- members;
      bst.b_writes <- writes;
      arm_batch_timeout t bst;
      let units = Batch.length writes in
      let msg = Message.Prepare_batch { op = bst.b_op; writes } in
      List.iter
        (fun m -> Network.send t.net ~units ~src:t.site ~dst:m msg)
        members)

let batch_prepare_complete t bst =
  bst.b_phase <- Committing;
  bst.b_phase_started <- Engine.now (engine t);
  bst.b_waiting <- bst.b_quorum;
  arm_batch_timeout t bst;
  List.iter
    (fun m ->
      send t ~dst:m (Message.Commit { op = bst.b_op; inc = b_member_inc bst m }))
    bst.b_quorum

let handle_batch t ~src bst msg =
  match (msg : Message.t) with
  | Read_batch_reply { entries; _ } when bst.b_phase = Querying ->
    batch_reply_received t bst ~src;
    for i = 0 to Batch.length entries - 1 do
      let key = Batch.key entries i in
      let version = Batch.version entries i and sid = Batch.sid entries i in
      let newer =
        match Hashtbl.find_opt bst.b_max key with
        | Some (cv, cs, _) -> Timestamp.newer_flat version sid cv cs
        | None -> Timestamp.newer_flat version sid 0 0
      in
      if newer then
        Hashtbl.replace bst.b_max key (version, sid, Batch.value entries i)
    done;
    if bst.b_waiting = [] then batch_query_complete t bst
  | Prepare_ack { inc; _ } when bst.b_phase = Preparing ->
    batch_reply_received t bst ~src;
    bst.b_member_inc <- (src, inc) :: bst.b_member_inc;
    if bst.b_waiting = [] then batch_prepare_complete t bst
  | Prepare_nack _ when bst.b_phase = Querying || bst.b_phase = Preparing ->
    batch_retry t bst
  | Busy _ when bst.b_phase = Querying || bst.b_phase = Preparing ->
    t.busy_received <- t.busy_received + 1;
    ocount t "coord.busy_received";
    breaker_failure t src;
    batch_retry t bst
  | Prepare_nack _ when bst.b_phase = Committing ->
    (* A member lost its staged batch to a crash mid-commit: uncertain
       outcome, counted failed — same contract as the single-op path. *)
    finish_batch_failed t bst
  | Commit_ack { inc; _ }
    when bst.b_phase = Committing && inc = b_member_inc bst src ->
    batch_reply_received t bst ~src;
    if bst.b_waiting = [] then finish_batch_writes t bst
  | _ -> ()  (* out-of-phase or replica-bound: ignore *)

(* A reply stamped with an incarnation older than the newest one seen from
   its sender is evidence from a pre-crash life: the state it vouches for
   was (possibly) lost, so it must not complete a quorum.  Returns whether
   the message should be dropped. *)
let stale_incarnation t ~src msg =
  match Message.incarnation msg with
  | None -> false
  | Some inc ->
    let newest =
      match Hashtbl.find t.incs src with i -> i | exception Not_found -> 0
    in
    if inc > newest then Hashtbl.replace t.incs src inc;
    if inc < newest then begin
      t.stale_inc_rejections <- t.stale_inc_rejections + 1;
      ocount t "coord.stale_inc.rejected";
      true
    end
    else false

let handle_single t ~src st msg =
  match (msg : Message.t) with
  | Read_reply { version; sid; value; _ } when st.phase = Querying ->
    reply_received t st ~src;
    if t.config.read_repair then
      st.replies <- (src, version, sid) :: st.replies;
    if Timestamp.newer_flat version sid st.max_version st.max_sid then begin
      st.max_version <- version;
      st.max_sid <- sid;
      st.max_value <- value
    end;
    if st.sc.waiting_n = 0 then query_complete t st
  | Prepare_ack { inc; _ } when st.phase = Preparing ->
    reply_received t st ~src;
    let sc = st.sc in
    let rec note i =
      if i < sc.n_w then
        if sc.w.(i) = src then sc.winc.(i) <- inc else note (i + 1)
    in
    note 0;
    if sc.waiting_n = 0 then prepare_complete t st
  | Prepare_nack _ when st.phase = Querying || st.phase = Preparing ->
    (* Refusal: a queried or prepared member cannot take part (it is
       recovering, or our commit raced its crash).  Re-assemble. *)
    retry t st
  | Busy _ when st.phase = Querying || st.phase = Preparing ->
    (* The replica shed us: alive (the nack itself rehabilitated it in
       the detector) but drowning.  Charge the breaker and re-assemble
       elsewhere — the retry path's backoff and budget apply. *)
    t.busy_received <- t.busy_received + 1;
    ocount t "coord.busy_received";
    breaker_failure t src;
    retry t st
  | Prepare_nack _ when st.phase = Committing ->
    (* The decision was commit but this member lost its stage to a
       crash; the outcome is uncertain (other members did commit), so
       count the operation failed rather than resend forever. *)
    oend_phase t st ~timed_out:false;
    finish t st `Failed
  | Commit_ack { inc; _ }
    when st.phase = Committing && inc = member_inc st.sc src ->
    reply_received t st ~src;
    if st.sc.waiting_n = 0 then
      finish t st
        (`Write_ok (Timestamp.make ~version:st.write_version ~sid:st.write_sid))
  | Read_reply _ | Prepare_ack _ | Prepare_nack _ | Commit_ack _ | Busy _
  | Read_request _ | Prepare _ | Commit _ | Abort _ | Repair _
  | Read_batch _ | Read_batch_reply _ | Prepare_batch _ | Ping _
  | Pong _ | Provision_request _ | Snapshot_chunk _ | Chunk_ack _
  | Tail_request _ | Wal_tail _ ->
    (* Out-of-phase or replica-bound: ignore.  A committing op ignores
       [Busy] in particular — commits ride the priority lane, so a
       stray Busy must not fail a decided transaction. *)
    ()

let handle t ~src msg =
  (* Any message is proof of life: rehabilitate its sender (clears both
     the ablation suspect list and any pluggable detector's suspicion). *)
  if src >= 0 && src < t.n_replicas then t.view.Detect.View.observe src;
  if not (stale_incarnation t ~src msg) then begin
    let op = Message.op_id msg in
    match Hashtbl.find t.pending op with
    | st -> handle_single t ~src st msg
    | exception Not_found -> (
      (* Not a single-key op: maybe a batch (stale otherwise). *)
      match Hashtbl.find t.pending_batches op with
      | bst -> handle_batch t ~src bst msg
      | exception Not_found -> ())
  end

let level_plan_of t proto =
  if t.config.pipeline_levels then Protocol.read_levels proto else None

let create ~site ~net ~proto ?locks ?view ?budget ?breaker ?obs
    ?(config = default_config) () =
  let n_replicas = Protocol.universe_size proto in
  let t =
    {
      site;
      net;
      proto;
      levels = None;  (* set below, once the config is in the record *)
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
      pending_batches = Hashtbl.create 8;
      pool = Array.make 4 dummy_scratch;
      pool_n = 0;
      op_pool = Array.make 4 dummy_op;
      op_pool_n = 0;
      suspects = Hashtbl.create 16;
      incs = Hashtbl.create 16;
      stale_inc_rejections = 0;
      reads_ok = 0;
      reads_failed = 0;
      writes_ok = 0;
      writes_failed = 0;
      retries = 0;
      repairs_sent = 0;
      deadline_exceeded = 0;
      busy_received = 0;
      retries_suppressed = 0;
      batches = 0;
      read_latency = Stats.create ();
      write_latency = Stats.create ();
    }
  in
  t.levels <- level_plan_of t proto;
  (t.view <-
     (match view with
     | Some v -> v
     | None ->
       if config.oracle_view then
         Detect.View.oracle ~net ~self:site ~n:n_replicas
       else suspicion_view t));
  Network.set_handler net ~site (fun ~src msg -> handle t ~src msg);
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

let read t ?(retry = false) ~key k =
  if not retry then budget_attempt t;
  let span = open_span t ~op:"read" ~key in
  with_lock t ~key ~mode:Lock_manager.Shared (fun unlock ->
      start_attempt t ~key
        ~kind:(Read_op (fun r -> unlock (fun () -> k r)))
        ~attempts:0
        ~started:(Engine.now (engine t))
        ~span)

let write t ?(retry = false) ~key ~value k =
  if not retry then budget_attempt t;
  let span = open_span t ~op:"write" ~key in
  with_lock t ~key ~mode:Lock_manager.Exclusive (fun unlock ->
      start_attempt t ~key
        ~kind:(Write_op (value, fun r -> unlock (fun () -> k r)))
        ~attempts:0
        ~started:(Engine.now (engine t))
        ~span)

(* Batched entries.  Size <= 1 delegates to the plain single-key path —
   locks, spans, RNG draws and all — so a batch size of 1 is byte-identical
   to unbatched operation.  True batches (>= 2 keys) skip the per-key lock
   manager: monotone installs plus quorum intersection make concurrent
   multi-key writes safe without it (timestamps totally order by (version,
   sid)), and one lock per batch would serialize exactly the parallelism
   batching exists to create. *)
let read_batch t ?(retry = false) ~keys k =
  match keys with
  | [] -> k []
  | [ key ] -> read t ~retry ~key (fun r -> k [ (key, r) ])
  | _ ->
    if not retry then budget_attempt t;
    t.batches <- t.batches + 1;
    ocount t "coord.batches";
    let spans = List.map (fun key -> ospan t ~op:"read" ~key) keys in
    start_batch t ~keys ~values:[] ~kind:(Batch_read k) ~attempts:0
      ~started:(Engine.now (engine t))
      ~spans

let write_batch t ?(retry = false) ~writes k =
  match writes with
  | [] -> k []
  | [ (key, value) ] -> write t ~retry ~key ~value (fun r -> k [ (key, r) ])
  | _ ->
    if not retry then budget_attempt t;
    t.batches <- t.batches + 1;
    ocount t "coord.batches";
    let keys = List.map fst writes in
    let spans = List.map (fun key -> ospan t ~op:"write" ~key) keys in
    start_batch t ~keys ~values:writes ~kind:(Batch_write k) ~attempts:0
      ~started:(Engine.now (engine t))
      ~spans

let set_protocol t proto =
  if Protocol.universe_size proto <> t.n_replicas then
    invalid_arg "Coordinator.set_protocol: replica universe changed";
  t.proto <- proto;
  t.levels <- level_plan_of t proto

let metrics t =
  {
    reads_ok = t.reads_ok;
    reads_failed = t.reads_failed;
    writes_ok = t.writes_ok;
    writes_failed = t.writes_failed;
    retries = t.retries;
    repairs_sent = t.repairs_sent;
    deadline_exceeded = t.deadline_exceeded;
    stale_incarnation_rejections = t.stale_inc_rejections;
    busy_received = t.busy_received;
    retries_suppressed = t.retries_suppressed;
    batches = t.batches;
    read_latency = t.read_latency;
    write_latency = t.write_latency;
  }
