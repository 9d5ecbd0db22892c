module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng
module Engine = Dsim.Engine
module Network = Dsim.Network
module Protocol = Quorum.Protocol

type config = {
  timeout : float;
  max_retries : int;
  adaptive_timeout : bool;
  deadline : float;
  backoff : Detect.Backoff.policy;
  rto : Detect.Rto.config;
}

let default_config =
  {
    timeout = 25.0;
    max_retries = 4;
    adaptive_timeout = false;
    deadline = Float.infinity;
    backoff = Detect.Backoff.default;
    rto = Detect.Rto.default_config;
  }

type phase = Query | Prepare_phase | Commit_phase

type gather = {
  phase : phase;
  started : float;  (** phase start, for RTT samples *)
  members : int array;  (** phase members; replied entries marked -1 *)
  mutable waiting_n : int;
  mutable max_ts : Timestamp.t;
  mutable max_value : string;
  complete : unit -> unit;
  failed : unit -> unit;
      (** a member refused ([Prepare_nack]): fail the phase now instead of
          waiting out the timeout *)
}

(* Position of [src] among [g]'s members still waiting (replied members
   are -1), or their count: a top-level loop, so matching a reply
   allocates no closure. *)
let rec waiting_index g src i =
  if i = Array.length g.members || g.members.(i) = src then i
  else waiting_index g src (i + 1)

(* The members of [g] still waiting, as a list (cold paths only: blame
   assignment after a timeout, commit resends). *)
let gather_waiting g =
  let rec go i acc =
    if i < 0 then acc
    else
      let m = g.members.(i) in
      go (i - 1) (if m >= 0 then m :: acc else acc)
  in
  go (Array.length g.members - 1) []

type t = {
  site : int;
  net : Message.t Network.t;
  mutable proto : Protocol.t;
  config : config;
  obs : Obs.t option;
  view : Detect.View.t;
  budget : Detect.Budget.t option;
  breaker : Detect.Breaker.t option;
  rto : Detect.Rto.t option;  (* [Some] iff [config.adaptive_timeout] *)
  rng : Rng.t;
  mutable next_seq : int;
  pending : (int, gather) Hashtbl.t;
  incs : (int, int) Hashtbl.t;  (** site -> newest incarnation seen *)
  prep_incs : (int, (int * int) list) Hashtbl.t;
      (** op -> (member, incarnation it acked the prepare under) *)
  (* Counters: handles the endpoint owns; [?obs] registers them. *)
  stale_inc_rejected : Obs.Metrics.counter;
  busy_received : Obs.Metrics.counter;
  retries_suppressed : Obs.Metrics.counter;
  deadline_exceeded : Obs.Metrics.counter;
}

let engine t = Network.engine t.net
let site t = t.site
let protocol t = t.proto
let view t = t.view

let set_protocol t proto =
  if Protocol.universe_size proto <> Protocol.universe_size t.proto then
    invalid_arg "Quorum_rpc.set_protocol: replica universe changed";
  t.proto <- proto

let fresh_op t =
  let id = (t.next_seq * Network.size t.net) + t.site in
  t.next_seq <- t.next_seq + 1;
  id

(* The breaker removes overloaded-but-alive sites from quorum assembly. *)
let current_view t =
  let view = t.view.Detect.View.alive () in
  match t.breaker with
  | None -> view
  | Some b -> Detect.Breaker.filter b view

(* Per-phase response deadline: fixed, or derived from the observed RTT
   quantile once enough samples exist. *)
let phase_timeout t =
  match t.rto with
  | Some rto -> Detect.Rto.timeout rto
  | None -> t.config.timeout

let observed_timeout t = phase_timeout t
let retries_suppressed t = t.retries_suppressed.value

(* --- observability hooks (single match, no work, when [obs = None]).
   Spans are threaded explicitly: [write] owns one span whose phases cover
   its version query, prepare and commit; the public phase primitives run
   span-less unless a caller supplies one. *)

let obs_kind = function
  | Query -> Obs.Span.Query
  | Prepare_phase -> Obs.Span.Prepare
  | Commit_phase -> Obs.Span.Commit

let ospan t ~op ~key =
  match t.obs with
  | None -> None
  | Some obs -> Some (Obs.span obs ~op ~site:t.site ~key ())

let ophase t span ~kind ~quorum =
  match (t.obs, span) with
  | Some obs, Some sp -> Obs.phase obs sp ~kind ~quorum ()
  | _ -> ()

let oend t span ~timed_out =
  match (t.obs, span) with
  | Some obs, Some sp -> Obs.end_phase obs sp ~timed_out ()
  | _ -> ()

let oretry t span ~backoff =
  match (t.obs, span) with
  | Some obs, Some sp -> Obs.retry obs sp ~backoff ()
  | _ -> ()

let ofinish t span result =
  match (t.obs, span) with
  | Some obs, Some sp ->
    let outcome =
      if result then Obs.Span.Ok else Obs.Span.Failed "gave_up"
    in
    Obs.finish obs sp ~outcome
  | _ -> ()

(* Counting is a field store: no call across the -opaque library boundary. *)
let[@inline] bump (c : Obs.Metrics.counter) = c.value <- c.value + 1

let register_counters t obs =
  let reg = Obs.Metrics.register (Obs.metrics obs) in
  reg "rpc.stale_inc.rejected" t.stale_inc_rejected;
  reg "rpc.busy_received" t.busy_received;
  reg "rpc.retries_suppressed" t.retries_suppressed;
  reg "rpc.deadline_exceeded" t.deadline_exceeded

let breaker_failure t site =
  match t.breaker with
  | None -> ()
  | Some b -> ignore (Detect.Breaker.record_failure b site)

let breaker_ok t site =
  match t.breaker with None -> () | Some b -> Detect.Breaker.record_ok b site

let budget_attempt t =
  match t.budget with None -> () | Some b -> Detect.Budget.on_attempt b

let member_inc t ~op m =
  match Hashtbl.find_opt t.prep_incs op with
  | None -> 0
  | Some l -> ( match List.assoc_opt m l with Some i -> i | None -> 0)

(* Drop replies stamped with an incarnation older than the newest seen from
   their sender: pre-crash evidence must not complete a post-crash quorum. *)
let stale_incarnation t ~src msg =
  let inc = Message.incarnation msg in
  if inc = Message.no_incarnation then false
  else
    let newest =
      match Hashtbl.find_opt t.incs src with Some i -> i | None -> 0
    in
    if inc > newest then Hashtbl.replace t.incs src inc;
    if inc < newest then begin
      bump t.stale_inc_rejected;
      true
    end
    else false

let handle t ~src msg =
  (* Any message is proof of life for its sender (replicas only: detector
     views cover the replica universe, not client sites). *)
  if src >= 0 && src < Protocol.universe_size t.proto then
    t.view.Detect.View.observe src;
  if not (stale_incarnation t ~src msg) then begin
    let op = Message.op_id msg in
    match Hashtbl.find_opt t.pending op with
    | None -> ()
    | Some g -> begin
      match (msg : Message.t) with
      | Prepare_nack _ ->
        (* A member refuses (recovering, or the commit's incarnation went
           stale): the phase cannot complete — fail it immediately. *)
        Hashtbl.remove t.pending op;
        g.failed ()
      | Busy _ when g.phase <> Commit_phase ->
        (* An overloaded member shed us: same fast failure as a refusal,
           plus breaker evidence.  Commit gathers ignore Busy — commits
           ride the replica's priority lane. *)
        bump t.busy_received;
        breaker_failure t src;
        Hashtbl.remove t.pending op;
        g.failed ()
      | _ ->
        let expected =
          match (msg : Message.t) with
          | Read_reply { version; sid; value; _ } ->
            if g.phase = Query then begin
              if
                Timestamp.newer_flat version sid g.max_ts.Timestamp.version
                  g.max_ts.Timestamp.sid
              then begin
                g.max_ts <- Timestamp.make ~version ~sid;
                g.max_value <- value
              end;
              true
            end
            else false
          | Prepare_ack { inc; _ } ->
            if g.phase = Prepare_phase then begin
              let l =
                match Hashtbl.find_opt t.prep_incs op with
                | Some l -> l
                | None -> []
              in
              Hashtbl.replace t.prep_incs op ((src, inc) :: l);
              true
            end
            else false
          | Commit_ack { inc; _ } ->
            g.phase = Commit_phase && inc = member_inc t ~op src
          | Read_request _ | Prepare _ | Prepare_nack _ | Busy _ | Commit _
          | Abort _ | Repair _ | Read_batch _ | Read_batch_reply _
          | Prepare_batch _ | Ping _ | Pong _ | Provision_request _
          | Snapshot_chunk _ | Chunk_ack _ | Tail_request _ | Wal_tail _ ->
            false
        in
        if expected then begin
          let i = waiting_index g src 0 in
          if i < Array.length g.members then begin
            g.members.(i) <- -1;
            g.waiting_n <- g.waiting_n - 1;
            (match t.rto with
            | Some rto ->
              Detect.Rto.observe rto (Engine.now (engine t) -. g.started)
            | None -> ());
            breaker_ok t src
          end;
          if g.waiting_n = 0 then begin
            Hashtbl.remove t.pending op;
            g.complete ()
          end
        end
    end
  end

let create ~site ~net ~proto ?view ?budget ?breaker ?obs
    ?(config = default_config) () =
  let view =
    match view with
    | Some v -> v
    | None ->
      Detect.View.oracle ~net ~self:site ~n:(Protocol.universe_size proto)
  in
  let t =
    {
      site;
      net;
      proto;
      config;
      obs;
      view;
      budget;
      breaker;
      rto =
        (if config.adaptive_timeout then
           Some (Detect.Rto.create ~config:config.rto ())
         else None);
      rng = Rng.split (Engine.rng (Network.engine net));
      next_seq = 0;
      pending = Hashtbl.create 16;
      incs = Hashtbl.create 16;
      prep_incs = Hashtbl.create 16;
      stale_inc_rejected = { value = 0 };
      busy_received = { value = 0 };
      retries_suppressed = { value = 0 };
      deadline_exceeded = { value = 0 };
    }
  in
  Network.set_handler net ~site (fun ~src msg -> handle t ~src msg);
  Option.iter (register_counters t) obs;
  t

(* One gather phase over [members]: send [mk_msg op] to each, then either
   [on_success op gather] once every member answered or [on_timeout] after
   the deadline. *)
let run_phase t ~span ~phase ~members ~mk_msg ~on_success ~on_timeout =
  let op = fresh_op t in
  let marr = Array.of_list members in
  let rec g =
    {
      phase;
      started = Engine.now (engine t);
      members = marr;
      waiting_n = Array.length marr;
      max_ts = Timestamp.zero;
      max_value = "";
      complete = (fun () -> on_success op g);
      failed = (fun () -> on_timeout ());
    }
  in
  ophase t span ~kind:(obs_kind phase) ~quorum:members;
  Hashtbl.replace t.pending op g;
  Engine.schedule (engine t) ~delay:(phase_timeout t) (fun () ->
      (* Only kill our own gather: a successful prepare hands its op id on
         to the commit phase, which re-registers the same id. *)
      match Hashtbl.find_opt t.pending op with
      | Some g' when g' == g ->
        Hashtbl.remove t.pending op;
        (* The laggards missed the deadline: negative evidence for both
           the liveness view and the overload breaker. *)
        List.iter
          (fun m ->
            t.view.Detect.View.suspect m;
            breaker_failure t m)
          (gather_waiting g);
        on_timeout ()
      | _ -> ());
  let msg = mk_msg op in
  List.iter (fun m -> Network.send t.net ~src:t.site ~dst:m msg) members

(* Retry scheduling: exponential backoff with jitter, bounded by the
   per-operation deadline budget — once a retry could not even be issued
   before the deadline, fail fast instead of hammering a dead quorum. *)
let backoff t ~op_started ~attempt ?(on_retry = fun _ -> ()) retry give_up =
  let delay = Detect.Backoff.delay t.config.backoff ~rng:t.rng ~attempt in
  if Engine.now (engine t) +. delay >= op_started +. t.config.deadline then begin
    bump t.deadline_exceeded;
    give_up ()
  end
  else if
    not (match t.budget with None -> true | Some b -> Detect.Budget.try_retry b)
  then begin
    (* Global retry budget drained: this retry would feed the storm. *)
    bump t.retries_suppressed;
    give_up ()
  end
  else begin
    on_retry delay;
    Engine.schedule (engine t) ~delay retry
  end

let query_sp t ~span ~key k =
  let op_started = Engine.now (engine t) in
  let rec attempt tries =
    let attempt_no = t.config.max_retries - tries in
    let again ~timed_out () =
      oend t span ~timed_out;
      if tries > 0 then
        backoff t ~op_started ~attempt:attempt_no
          ~on_retry:(fun d -> oretry t span ~backoff:d)
          (fun () -> attempt (tries - 1))
          (fun () -> k None)
      else k None
    in
    match Protocol.read_quorum t.proto ~alive:(current_view t) ~rng:t.rng with
    | None -> again ~timed_out:false ()
    | Some quorum ->
      run_phase t ~span ~phase:Query ~members:(Bitset.elements quorum)
        ~mk_msg:(fun op -> Message.Read_request { op; key })
        ~on_success:(fun _op g ->
          oend t span ~timed_out:false;
          k (Some (g.max_ts, g.max_value)))
        ~on_timeout:(again ~timed_out:true)
  in
  attempt t.config.max_retries

let oresult_ts t span (ts : Timestamp.t) =
  match (t.obs, span) with
  | Some obs, Some sp ->
    Obs.set_result_ts obs sp ~version:ts.Timestamp.version ~sid:ts.Timestamp.sid
  | _ -> ()

let query t ?(retry = false) ~key k =
  if not retry then budget_attempt t;
  let span = ospan t ~op:"rpc.read" ~key in
  query_sp t ~span ~key (fun r ->
      (match r with Some (ts, _) -> oresult_ts t span ts | None -> ());
      ofinish t span (r <> None);
      k r)

let prepare_sp t ~span ~key ~ts ~value k =
  let op_started = Engine.now (engine t) in
  let rec attempt tries =
    let attempt_no = t.config.max_retries - tries in
    let again ~timed_out () =
      oend t span ~timed_out;
      if tries > 0 then
        backoff t ~op_started ~attempt:attempt_no
          ~on_retry:(fun d -> oretry t span ~backoff:d)
          (fun () -> attempt (tries - 1))
          (fun () -> k None)
      else k None
    in
    match Protocol.write_quorum t.proto ~alive:(current_view t) ~rng:t.rng with
    | None -> again ~timed_out:false ()
    | Some quorum ->
      let members = Bitset.elements quorum in
      run_phase t ~span ~phase:Prepare_phase ~members
        ~mk_msg:(fun op ->
          Message.Prepare
            {
              op;
              key;
              version = ts.Timestamp.version;
              sid = ts.Timestamp.sid;
              value;
            })
        ~on_success:(fun op _g ->
          oend t span ~timed_out:false;
          k (Some (op, members)))
        ~on_timeout:(again ~timed_out:true)
  in
  attempt t.config.max_retries

let prepare t ~key ~ts ~value k = prepare_sp t ~span:None ~key ~ts ~value k

let commit_staged_sp t ~span ~op ~members k =
  let done_ ok =
    Hashtbl.remove t.prep_incs op;
    oend t span ~timed_out:(not ok);
    k ok
  in
  let rec send tries ms =
    let g =
      {
        phase = Commit_phase;
        started = Engine.now (engine t);
        members = Array.of_list ms;
        waiting_n = List.length ms;
        max_ts = Timestamp.zero;
        max_value = "";
        complete = (fun () -> done_ true);
        failed =
          (fun () ->
            (* A member lost its stage to a crash: the outcome is uncertain
               (other members did commit) — report failure. *)
            Hashtbl.remove t.prep_incs op;
            oend t span ~timed_out:false;
            k false);
      }
    in
    ophase t span ~kind:Obs.Span.Commit ~quorum:ms;
    Hashtbl.replace t.pending op g;
    Engine.schedule (engine t) ~delay:(phase_timeout t) (fun () ->
        match Hashtbl.find_opt t.pending op with
        | Some g' when g' == g ->
          Hashtbl.remove t.pending op;
          let waiting = gather_waiting g in
          List.iter
            (fun m ->
              t.view.Detect.View.suspect m;
              breaker_failure t m)
            waiting;
          if tries > 0 then begin
            oretry t span ~backoff:0.0;
            send (tries - 1) waiting
          end
          else done_ false
        | _ -> ());
    List.iter
      (fun m ->
        Network.send t.net ~src:t.site ~dst:m
          (Message.Commit { op; inc = member_inc t ~op m }))
      ms
  in
  send t.config.max_retries members

let commit_staged t ~op ~members k = commit_staged_sp t ~span:None ~op ~members k

let abort_staged t ~op ~members =
  Hashtbl.remove t.prep_incs op;
  List.iter
    (fun m -> Network.send t.net ~src:t.site ~dst:m (Message.Abort { op }))
    members

let write t ?(retry = false) ~key ?ts ~value k =
  if not retry then budget_attempt t;
  let span = ospan t ~op:"rpc.write" ~key in
  let finishk r =
    (match r with Some ts -> oresult_ts t span ts | None -> ());
    ofinish t span (r <> None);
    k r
  in
  let do_write ts =
    prepare_sp t ~span ~key ~ts ~value (function
      | None -> finishk None
      | Some (op, members) ->
        commit_staged_sp t ~span ~op ~members (fun ok ->
            if ok then finishk (Some ts) else finishk None))
  in
  match ts with
  | Some ts -> do_write ts
  | None ->
    query_sp t ~span ~key (function
      | None -> finishk None
      | Some (current, _) ->
        do_write
          (Timestamp.make ~version:(current.Timestamp.version + 1) ~sid:t.site))
