module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng
module Engine = Dsim.Engine
module Network = Dsim.Network
module Protocol = Quorum.Protocol

(* Snapshot-provisioning configuration: how a cold or amnesiac replica
   rebuilds from a donor's chunked snapshot plus a WAL tail instead of
   per-key quorum catch-up.  Chunk [i] always covers keys
   [i*chunk_size, (i+1)*chunk_size) of [key_space], so chunk numbers keep
   their meaning across donor failover and recipient restarts.  [fence]
   (default true) keeps the recipient out of service until the tail is
   applied; turning it off is the deliberate safety violation the
   negative-control campaign checks for. *)
type provision = {
  pv_key_space : int;
  pv_chunk_size : int;
  pv_fence : bool;
  pv_donors : (unit -> int list) option;
}

(* A transfer making no progress for this long fails over to the next
   donor. *)
let provision_timeout = 30.0

let provision ?(chunk_size = 256) ?(fence = true) ?donors ~key_space () =
  if key_space < 1 then invalid_arg "Replica.provision: key_space < 1";
  if chunk_size < 1 then invalid_arg "Replica.provision: chunk_size < 1";
  { pv_key_space = key_space; pv_chunk_size = chunk_size; pv_fence = fence;
    pv_donors = donors }

type recovery = {
  wal_policy : Wal.policy;
  catch_up : bool;
  keys : (unit -> int list) option;
  proto : Protocol.t option;
  prov_config : provision option;
}

(* Each per-key catch-up gather times out after [catchup_timeout] and is
   retried with {!Detect.Backoff.default} pauses, up to
   [catchup_max_attempts] times. *)
let catchup_timeout = 25.0
let catchup_max_attempts = 20

let recovery ?(wal_policy = Wal.Sync_on_commit) ?(catch_up = true) ?keys ?proto
    ?provision () =
  if catch_up && proto = None then
    invalid_arg "Replica.recovery: catch_up requires a protocol";
  { wal_policy; catch_up; keys; proto; prov_config = provision }

(* Overload admission policy.  [shed_watermark] is in queue-depth units of
   the site's network service queue: above it, client work is answered
   with [Busy] instead of being served.  0 disables watermark shedding
   (the hard capacity bound of the network queue still applies). *)
type admission = { shed_watermark : int; a_universe : int option }

let admission ?(shed_watermark = 0) ?universe () =
  if shed_watermark < 0 then
    invalid_arg "Replica.admission: negative shed watermark";
  { shed_watermark; a_universe = universe }

type status =
  | Serving
  | Recovering
  | Failed_rejoin
      (* terminal: the rejoin machinery exhausted its budget; the site is
         safe (it never serves clients) but out of service until the next
         crash/recover cycle starts a fresh attempt *)
  | Decommissioned
      (* terminal and permanent: fenced out of every quorum role *)

(* One outstanding catch-up read-quorum gather: the replica reads the
   newest (timestamp, value) of one key through a read quorum of the
   current tree, installs it, then moves to the next key. *)
type gather = {
  g_op : int;
  g_key : int;
  g_rest : int list;  (** keys still to catch up after this one *)
  g_attempt : int;
  g_t0 : float;  (** when this catch-up (all keys) began *)
  mutable g_waiting : int list;
  mutable g_max_ts : Timestamp.t;
  mutable g_max_value : string;
}

(* One in-flight provisioning transfer, recipient side.  The donor keeps
   no per-transfer state at all — the recipient's requests carry the full
   geometry and cursor — so a donor crash can interrupt a transfer but
   never corrupt it. *)
type prov = {
  mutable p_op : int;
  mutable p_donor : int;
  p_pinned : bool;
      (** promotion: the donor is the outgoing occupant of the tree
          position, whose acked writes are exactly what quorum
          intersection makes the incoming occupant answerable for — no
          other site is a safe substitute, so a pinned donor is retried
          in place instead of failed over *)
  mutable p_tried : int list;  (** donors already failed over from *)
  mutable p_next_chunk : int;
  mutable p_wal_index : int;
      (** minimum cut stamp over every chunk applied ([max_int] before
          the first): the tail must cover commits since the {e earliest}
          cut any of the chunks was read under *)
  mutable p_dinc : int;
      (** donor incarnation the transfer is fenced to; -1 until the
          first accepted chunk establishes it *)
  mutable p_tailing : bool;
  mutable p_progress : int;
      (** bumped on every accepted reply; the timeout watchdog only acts
          when it has not moved for a whole timeout *)
  p_t0 : float;
  p_done : (unit -> unit) option;
}

(* One outstanding delta-tail fetch — the promotion flow's final fenced
   delta, requested under the key locks.  Not a transfer: a single
   [Tail_request] retried until answered. *)
type tail_wait = { tw_op : int; tw_donor : int; tw_k : unit -> unit }

type t = {
  site : int;
  net : Message.t Network.t;
  mutable store : Store.t;
  recovery : recovery option;
  wal : Wal.t option;
  universe : int option;  (* replica count, to tell peers from clients *)
  admission : admission option;
  group_commit : bool;  (* one WAL durability point per batch *)
  proto : Protocol.t option;  (* private fork, for catch-up quorums *)
  replies : Message.pool;  (* read replies that came back, for reuse *)
  rng : Rng.t option;  (* split from the engine only when catch-up is on *)
  obs : Obs.t option;
  mutable status : status;
  mutable incarnation : int;
  mutable lost_state : bool;  (* amnesia crash happened; recovery pending *)
  mutable gather : gather option;
  mutable next_seq : int;
  mutable prov : prov option;
  mutable prov_resume : (int option * bool * (unit -> unit) option) option;
      (* (donor, pinned, continuation) of a transfer interrupted by an
         amnesia crash — re-attached when the site comes back so a
         promotion's completion callback eventually fires *)
  mutable tail_wait : tail_wait option;
  mutable last_tail_index : int;  (* newest donor cut this replica holds *)
  (* Counters: handles the replica owns; [?obs] registers them. *)
  reads_served : Obs.Metrics.counter;
  sheds : Obs.Metrics.counter;
  writes_applied : Obs.Metrics.counter;
  prepares_seen : Obs.Metrics.counter;
  repairs_applied : Obs.Metrics.counter;
  recoveries : Obs.Metrics.counter;
  wal_records_replayed : Obs.Metrics.counter;
  stale_commits_nacked : Obs.Metrics.counter;
  catchup_runs : Obs.Metrics.counter;
  catchup_rounds : Obs.Metrics.counter;
  catchup_keys_installed : Obs.Metrics.counter;
  catchup_abandoned : Obs.Metrics.counter;
  failed_rejoins : Obs.Metrics.counter;
  decommissioned : Obs.Metrics.counter;
  provision_starts : Obs.Metrics.counter;
  provision_runs : Obs.Metrics.counter;
  provision_chunks : Obs.Metrics.counter;
  provision_resumes : Obs.Metrics.counter;
  provision_failovers : Obs.Metrics.counter;
  provision_stale : Obs.Metrics.counter;
  provision_rounds : Obs.Metrics.counter;
}

let engine t = Network.engine t.net
let now t = Engine.now (engine t)

(* Counting is a field store: no call across the -opaque library boundary. *)
let[@inline] bump (c : Obs.Metrics.counter) = c.value <- c.value + 1

(* What a replica without a WAL registers under the WAL's names: nothing
   ever bumps it, since only a WAL bumps those handles. *)
let no_wal = { Obs.Metrics.value = 0 }
let wal_handle h t = match t.wal with Some w -> h w | None -> no_wal

let counters : t Obs.Metrics.handles =
  [
    ("replica.reads_served", fun t -> t.reads_served);
    ("replica.shed", fun t -> t.sheds);
    ("replica.writes_applied", fun t -> t.writes_applied);
    ("replica.prepares_seen", fun t -> t.prepares_seen);
    ("replica.repairs_applied", fun t -> t.repairs_applied);
    ("replica.recoveries", fun t -> t.recoveries);
    ("replica.wal.replayed", fun t -> t.wal_records_replayed);
    ("replica.stale_inc.nacked", fun t -> t.stale_commits_nacked);
    ("replica.catchup.runs", fun t -> t.catchup_runs);
    ("replica.catchup.rounds", fun t -> t.catchup_rounds);
    ("replica.catchup.keys_installed", fun t -> t.catchup_keys_installed);
    ("replica.catchup.abandoned", fun t -> t.catchup_abandoned);
    ("replica.rejoin.failed", fun t -> t.failed_rejoins);
    ("replica.decommissioned", fun t -> t.decommissioned);
    ("provision.starts", fun t -> t.provision_starts);
    ("provision.runs", fun t -> t.provision_runs);
    ("provision.chunks", fun t -> t.provision_chunks);
    ("provision.resumes", fun t -> t.provision_resumes);
    ("provision.donor_failovers", fun t -> t.provision_failovers);
    ("provision.stale", fun t -> t.provision_stale);
    ("provision.rounds", fun t -> t.provision_rounds);
  ]
  @ List.map (fun (name, h) -> (name, wal_handle h)) Wal.counters

let count t name = Obs.Metrics.read counters t name

let ohist t name v =
  match t.obs with
  | None -> ()
  | Some obs -> Obs.Metrics.observe (Obs.Metrics.histogram (Obs.metrics obs) name) v

let send t ?units ~dst msg = Network.send t.net ?units ~src:t.site ~dst msg

(* [key]'s committed (timestamp, value), in a reply from the pool. *)
let send_read_reply t ~dst ~op ~key =
  let store = t.store in
  let i = Store.committed_slot store ~key in
  send t ~dst
    (Message.read_reply t.replies ~op ~key
       ~version:(Store.committed_version store i)
       ~sid:(Store.committed_sid store i) ~value:(Store.committed_value store i)
       ~inc:t.incarnation)

let fresh_op t =
  let id = (t.next_seq * Network.size t.net) + t.site in
  t.next_seq <- t.next_seq + 1;
  id

(* Believed-alive peers for catch-up quorum assembly: the ground-truth
   oracle minus ourselves (our own copy is exactly what we distrust). *)
let catchup_view t proto =
  let n = Protocol.universe_size proto in
  let view = Bitset.create n in
  for i = 0 to n - 1 do
    if i <> t.site && Network.is_up t.net i && Network.reachable t.net t.site i
    then Bitset.add view i
  done;
  view

(* --- rejoin state machine ----------------------------------------------- *)

let finish_catchup t ~t0 =
  t.status <- Serving;
  bump t.catchup_runs;
  ohist t "replica.catchup.duration" (now t -. t0)

let rec catchup_key t ~inc ~keys ~attempt ~t0 =
  if t.incarnation = inc && t.status = Recovering then begin
    match keys with
    | [] -> finish_catchup t ~t0
    | key :: rest -> (
      let proto = Option.get t.proto and rng = Option.get t.rng in
      match Protocol.read_quorum proto ~alive:(catchup_view t proto) ~rng with
      | None ->
        (* No quorum among the peers right now; this consumes an attempt
           too, so a long outage drains the budget instead of looping. *)
        catchup_retry t ~inc ~keys ~attempt:(attempt + 1) ~t0
      | Some quorum ->
        bump t.catchup_rounds;
        let members = Bitset.elements quorum in
        let g =
          {
            g_op = fresh_op t;
            g_key = key;
            g_rest = rest;
            g_attempt = attempt;
            g_t0 = t0;
            g_waiting = members;
            g_max_ts = Timestamp.zero;
            g_max_value = "";
          }
        in
        t.gather <- Some g;
        Engine.schedule (engine t) ~delay:catchup_timeout (fun () ->
            match t.gather with
            | Some g' when g' == g ->
              t.gather <- None;
              catchup_retry t ~inc ~keys ~attempt:(attempt + 1) ~t0
            | _ -> ());
        List.iter
          (fun m -> send t ~dst:m (Message.Read_request { op = g.g_op; key }))
          members)
  end

and catchup_retry t ~inc ~keys ~attempt ~t0 =
  if attempt >= catchup_max_attempts then begin
    (* Peers never assembled into a willing quorum (e.g. everyone else is
       recovering too).  Serving would risk stale reads, so the rejoin
       lands in the terminal [Failed_rejoin] state: still safe (peer
       catch-up reads keep being answered from durable state, clients are
       refused), visibly stuck rather than "recovering" forever, until
       the next crash/recover cycle starts a fresh attempt. *)
    bump t.catchup_abandoned;
    t.status <- Failed_rejoin;
    bump t.failed_rejoins
  end
  else begin
    let delay =
      match t.rng with
      | Some rng -> Detect.Backoff.delay Detect.Backoff.default ~rng ~attempt
      | None -> 1.0
    in
    Engine.schedule (engine t) ~delay (fun () ->
        if t.gather = None then catchup_key t ~inc ~keys ~attempt ~t0)
  end

let catchup_gather_reply t g ~src ~ts ~value =
  if List.mem src g.g_waiting then begin
    if Timestamp.newer_than ts g.g_max_ts then begin
      g.g_max_ts <- ts;
      g.g_max_value <- value
    end;
    g.g_waiting <- List.filter (fun m -> m <> src) g.g_waiting;
    if g.g_waiting = [] then begin
      t.gather <- None;
      if
        not (Timestamp.equal g.g_max_ts Timestamp.zero)
        && Store.install t.store ~key:g.g_key ~ts:g.g_max_ts ~value:g.g_max_value
      then begin
        (match t.wal with
        | Some wal ->
          Wal.install wal ~key:g.g_key ~version:g.g_max_ts.Timestamp.version
            ~sid:g.g_max_ts.Timestamp.sid ~value:g.g_max_value
        | None -> ());
        bump t.catchup_keys_installed
      end;
      catchup_key t ~inc:t.incarnation ~keys:g.g_rest ~attempt:0 ~t0:g.g_t0
    end
  end

(* A peer refused our catch-up read (it is recovering itself, most
   likely): drop the whole gather and retry with a freshly assembled
   quorum after a backoff pause. *)
let catchup_gather_failed t g =
  t.gather <- None;
  catchup_retry t ~inc:t.incarnation ~keys:(g.g_key :: g.g_rest)
    ~attempt:(g.g_attempt + 1) ~t0:g.g_t0

(* --- provisioning: donor side -------------------------------------------- *)

let prov_config t =
  match t.recovery with Some { prov_config = Some pv; _ } -> Some pv | _ -> None

(* Serving a chunk is a pure read of local committed state: the simulator
   mutates stores only between events, so the export inside one event is
   a consistent cut, stamped with the WAL index the matching tail must
   start from. *)
let serve_chunk t ~dst ~op ~chunk ~chunk_size ~key_space =
  let n_chunks = max 1 ((key_space + chunk_size - 1) / chunk_size) in
  if chunk >= 0 && chunk < n_chunks && chunk_size > 0 then begin
    let lo = chunk * chunk_size in
    let hi = min key_space (lo + chunk_size) in
    let entries = Store.snapshot_chunk t.store ~lo ~hi in
    let wal_index = match t.wal with None -> 0 | Some w -> Wal.next_index w in
    send t ~units:(max 1 (Batch.length entries)) ~dst
      (Message.Snapshot_chunk
         { op; chunk; n_chunks; wal_index; dinc = t.incarnation; entries })
  end

let serve_tail t ~dst ~op ~from_index =
  let next_index, entries =
    match t.wal with
    | None -> (0, Batch.empty)
    | Some w -> (Wal.next_index w, Wal.committed_since w ~index:from_index)
  in
  send t ~units:(max 1 (Batch.length entries)) ~dst
    (Message.Wal_tail { op; dinc = t.incarnation; next_index; entries })

(* --- provisioning: recipient side ----------------------------------------- *)

(* Install a committed tail monotonically, mirroring every entry into the
   WAL (one durability point for the lot) so it survives a later amnesia
   crash. *)
let apply_tail_entries t entries =
  ignore (Store.import_chunk t.store entries);
  match t.wal with Some wal -> Wal.install_batch wal entries | None -> ()

let prov_stale t =
  bump t.provision_stale

let rec prov_request t p =
  (* (Re)issue the transfer from the current cursor under a fresh op id —
     anything still in flight under the old id is thereby fenced. *)
  let pv = match prov_config t with Some pv -> pv | None -> assert false in
  p.p_op <- fresh_op t;
  bump t.provision_rounds;
  send t ~dst:p.p_donor
    (Message.Provision_request
       {
         op = p.p_op;
         from_chunk = p.p_next_chunk;
         chunk_size = pv.pv_chunk_size;
         key_space = pv.pv_key_space;
       });
  prov_watch t p

and prov_tail_request t p =
  let from_index = if p.p_wal_index = max_int then 0 else p.p_wal_index in
  p.p_op <- fresh_op t;
  bump t.provision_rounds;
  send t ~dst:p.p_donor (Message.Tail_request { op = p.p_op; from_index });
  prov_watch t p

and prov_watch t p =
  let snap = p.p_progress in
  Engine.schedule (engine t) ~delay:provision_timeout (fun () ->
      match t.prov with
      | Some p' when p' == p && p.p_progress = snap -> prov_stalled t p
      | _ -> ())

and prov_stalled t p =
  (* A whole timeout with no progress (or an explicit donor refusal): the
     donor is crashed, recovering, decommissioned or unreachable.  A
     pinned donor is retried in place; otherwise fail over to the next
     candidate, resuming from the current chunk cursor — monotone
     installs make the overlap harmless. *)
  p.p_progress <- p.p_progress + 1;
  if not p.p_pinned then begin
    p.p_tried <- p.p_donor :: p.p_tried;
    match prov_pick_donor t p with
    | Some d when d <> p.p_donor ->
      bump t.provision_failovers;
      if p.p_next_chunk > 0 && not p.p_tailing then begin
        bump t.provision_resumes
      end;
      p.p_donor <- d;
      p.p_dinc <- -1
    | _ -> ()
  end;
  if p.p_tailing then prov_tail_request t p else prov_request t p

and prov_pick_donor t p =
  let candidates =
    match prov_config t with
    | Some { pv_donors = Some f; _ } -> f ()
    | _ -> ( match t.universe with Some n -> List.init n Fun.id | None -> [])
  in
  let usable d =
    d <> t.site && Network.is_up t.net d && Network.reachable t.net t.site d
  in
  match
    List.find_opt (fun d -> usable d && not (List.mem d p.p_tried)) candidates
  with
  | Some d -> Some d
  | None ->
    (* every candidate tried or down: forget the history and knock on any
       live door again — re-asking a donor that refused before is
       harmless, and the transfer must eventually complete *)
    p.p_tried <- [];
    List.find_opt usable candidates

let prov_chunk t p ~src ~chunk ~n_chunks ~wal_index ~dinc ~entries =
  if src <> p.p_donor then prov_stale t
  else if p.p_dinc >= 0 && dinc <> p.p_dinc then begin
    (* the donor restarted mid-transfer: this chunk belongs to a broken
       transfer — fence it and re-request from the cursor under a fresh
       op, re-establishing the incarnation from the next reply *)
    prov_stale t;
    p.p_dinc <- -1;
    prov_request t p
  end
  else if chunk <> p.p_next_chunk || p.p_tailing then prov_stale t
  else begin
    let pv = match prov_config t with Some pv -> pv | None -> assert false in
    p.p_dinc <- dinc;
    p.p_wal_index <- min p.p_wal_index wal_index;
    p.p_progress <- p.p_progress + 1;
    ignore (Store.import_chunk t.store entries);
    (match t.wal with
    | Some wal ->
      (* the chunk's installs and the progress mark share one durability
         point: a crash either keeps the whole chunk (and resumes after
         it) or none of it *)
      let records = ref [ Wal.Mark { chunk; wal_index = p.p_wal_index } ] in
      for i = Batch.length entries - 1 downto 0 do
        records :=
          Wal.Install
            {
              key = Batch.key entries i;
              ts =
                Timestamp.make ~version:(Batch.version entries i)
                  ~sid:(Batch.sid entries i);
              value = Batch.value entries i;
            }
          :: !records
      done;
      Wal.append_batch wal !records
    | None -> ());
    bump t.provision_chunks;
    p.p_next_chunk <- chunk + 1;
    if p.p_next_chunk >= n_chunks then begin
      p.p_tailing <- true;
      prov_tail_request t p
    end
    else begin
      bump t.provision_rounds;
      send t ~dst:p.p_donor
        (Message.Chunk_ack
           {
             op = p.p_op;
             chunk;
             chunk_size = pv.pv_chunk_size;
             key_space = pv.pv_key_space;
           });
      prov_watch t p
    end
  end

let prov_tail t p ~src ~dinc ~next_index ~entries =
  if src <> p.p_donor then prov_stale t
  else if p.p_dinc >= 0 && dinc <> p.p_dinc then begin
    (* donor restarted between the last chunk and the tail; the uniform
       fencing rule applies — refuse and re-request under the new life *)
    prov_stale t;
    p.p_dinc <- -1;
    prov_tail_request t p
  end
  else begin
    p.p_progress <- p.p_progress + 1;
    apply_tail_entries t entries;
    t.last_tail_index <- next_index;
    (* completion mark: retires the transfer's resume state so a later
       rejoin starts fresh *)
    (match t.wal with
    | Some wal -> Wal.append wal (Wal.Mark { chunk = -1; wal_index = next_index })
    | None -> ());
    t.prov <- None;
    bump t.provision_runs;
    ohist t "provision.duration" (now t -. p.p_t0);
    if t.status = Recovering then t.status <- Serving;
    match p.p_done with Some k -> k () | None -> ()
  end

let start_provision t ?(pinned = false) ?donor ?on_done () =
  let pv =
    match prov_config t with
    | Some pv -> pv
    | None -> invalid_arg "Replica.provision_now: no provisioning config"
  in
  let n_chunks =
    max 1 ((pv.pv_key_space + pv.pv_chunk_size - 1) / pv.pv_chunk_size)
  in
  let resume_chunk, resume_index =
    match t.wal with
    | Some w -> (
      match Wal.resume_state w with
      | Some (c, wi) -> (min c n_chunks, wi)
      | None -> (0, max_int))
    | None -> (0, max_int)
  in
  t.status <- (if pv.pv_fence then Recovering else Serving);
  t.gather <- None;
  let p =
    {
      p_op = 0;
      p_donor = -1;
      p_pinned = pinned;
      p_tried = [];
      p_next_chunk = resume_chunk;
      p_wal_index = resume_index;
      p_dinc = -1;
      p_tailing = false;
      p_progress = 0;
      p_t0 = now t;
      p_done = on_done;
    }
  in
  (match donor with
  | Some d -> p.p_donor <- d
  | None -> (
    match prov_pick_donor t p with
    | Some d -> p.p_donor <- d
    | None ->
      (* nobody reachable right now: aim at any other site; the watchdog
         keeps re-picking until someone answers *)
      p.p_donor <- (if t.site = 0 then 1 else 0)));
  t.prov <- Some p;
  bump t.provision_starts;
  if resume_chunk > 0 then begin
    (* restarting from the last durable chunk of an interrupted transfer *)
    bump t.provision_resumes
  end;
  if resume_chunk >= n_chunks && resume_index <> max_int then begin
    (* every chunk was already durable: only the tail is missing *)
    p.p_tailing <- true;
    prov_tail_request t p
  end
  else prov_request t p

let on_crash t mode =
  match (mode : Network.crash_mode) with
  | Network.Fail_stop -> ()
  | Network.Amnesia ->
    (* Volatile memory is gone the instant the site dies; the WAL drops
       whatever the policy had not yet made durable. *)
    t.lost_state <- true;
    t.store <- Store.create ();
    t.gather <- None;
    (match t.prov with
    | Some p when p.p_pinned || p.p_done <> None ->
      (* a transfer someone is waiting on (a promotion): stash the donor
         and the continuation so the restarted transfer still reports
         completion to the orchestrator *)
      t.prov_resume <- Some (Some p.p_donor, p.p_pinned, p.p_done)
    | _ -> ());
    t.prov <- None;
    t.tail_wait <- None;
    (match t.wal with Some wal -> Wal.crash wal | None -> ())

let on_recover t =
  if t.lost_state then begin
    t.lost_state <- false;
    t.incarnation <- t.incarnation + 1;
    bump t.recoveries;
    (match t.wal with
    | Some wal ->
      let n = Wal.replay wal t.store in
      t.wal_records_replayed.value <- t.wal_records_replayed.value + n
    | None -> ());
    if t.status = Decommissioned then ()
      (* a decommissioned site stays fenced through crashes *)
    else
      let r = Option.get t.recovery in
      match r.prov_config with
      | Some _ ->
        (* provisioning rejoin: snapshot + tail from a donor, resuming
           after the newest durable chunk mark WAL replay preserved *)
        let donor, pinned, k =
          match t.prov_resume with
          | Some (d, pin, k) -> (d, pin, k)
          | None -> (None, false, None)
        in
        t.prov_resume <- None;
        start_provision t ~pinned ?donor ?on_done:k ()
      | None ->
        if r.catch_up then begin
          t.status <- Recovering;
          let keys =
            match r.keys with Some f -> f () | None -> Store.keys t.store
          in
          catchup_key t ~inc:t.incarnation ~keys ~attempt:0 ~t0:(now t)
        end
        else t.status <- Serving
  end

(* --- message handling ----------------------------------------------------- *)

let nack t ~dst ~op reason =
  send t ~dst (Message.Prepare_nack { op; reason })

let is_peer t src = match t.universe with Some n -> src < n | None -> false

let shed t ~dst ~op =
  bump t.sheds;
  send t ~dst (Message.Busy { op })

(* Watermark admission: once the ingress queue is deeper than the
   watermark, client work gets a fast [Busy] instead of service — the
   queue keeps draining protocol traffic instead of stacking doomed
   requests.  Peer catch-up reads and everything 2PC are exempt: shedding
   those converts overload into unavailability or stuck transactions. *)
let shed_client_work t ~src msg =
  match t.admission with
  | None -> None
  | Some a ->
    if
      a.shed_watermark > 0
      && Network.queue_depth t.net t.site > a.shed_watermark
    then
      match (msg : Message.t) with
      | Read_request { op; _ } when not (is_peer t src) -> Some op
      | Read_batch { op; _ } when not (is_peer t src) -> Some op
      | Prepare { op; _ } | Prepare_batch { op; _ } -> Some op
      | _ -> None
    else None

(* The ack a request carries ([Message.Prepare]'s and [Commit]'s [reply])
   is sent as-is when it is exactly the ack this replica would build: same
   op, stamped with its current incarnation.  Otherwise (a rejoined
   replica answering a prepare that expects incarnation 0) a fresh ack
   carries the replica's own incarnation. *)
let prepare_ack t ~op (reply : Message.t) =
  match reply with
  | Prepare_ack { op = o; inc } when o = op && inc = t.incarnation -> reply
  | _ -> Message.Prepare_ack { op; inc = t.incarnation }

let commit_ack t ~op (reply : Message.t) =
  match reply with
  | Commit_ack { op = o; inc } when o = op && inc = t.incarnation -> reply
  | _ -> Message.Commit_ack { op; inc = t.incarnation }

let handle_serving t ~src msg =
  match (msg : Message.t) with
  | Read_request { op; key } ->
    bump t.reads_served;
    (* Flat serving path: no tuple, no boxed timestamp, and the reply is
       a handed-back record refilled in place. *)
    send_read_reply t ~dst:src ~op ~key
  | Prepare { op; key; version; sid; value; reply } ->
    bump t.prepares_seen;
    Store.stage_flat t.store ~op ~key ~version ~sid ~value;
    (match t.wal with
    | Some wal -> Wal.stage wal ~op ~key ~version ~sid ~value
    | None -> ());
    send t ~dst:src (prepare_ack t ~op reply)
  | Commit { op; inc; reply } ->
    if inc <> t.incarnation then begin
      (* The stage this commit refers to belonged to a previous life; its
         volatile state is gone.  Refuse so the coordinator retries the
         whole write instead of counting a lost write as applied. *)
      bump t.stale_commits_nacked;
      nack t ~dst:src ~op "stale-incarnation"
    end
    else begin
      (let store = t.store in
       let slot = Store.staged_slot store ~op in
       if slot >= 0 then begin
         (match t.wal with
         | Some wal ->
           Wal.commit wal ~op ~key:(Store.slot_key store slot)
             ~version:(Store.slot_version store slot)
             ~sid:(Store.slot_sid store slot) ~value:(Store.slot_value store slot)
         | None -> ());
         if Store.commit_staged store ~op then
           bump t.writes_applied
       end
       else
         let slot = Store.staged_batch_slot store ~op in
         if slot >= 0 then begin
           (* A staged batch commits atomically: every write's Commit
              record shares the batch's durability point. *)
           let n = Store.slot_length store slot in
           (match t.wal with
           | Some wal ->
             Wal.commit_batch wal ~op ~group:t.group_commit ~len:n
               (Store.slot_batch store slot)
           | None -> ());
           if Store.commit_staged store ~op then
             t.writes_applied.value <- t.writes_applied.value + n
         end);
      (* Ack even when nothing was staged: a same-incarnation resend means
         the first commit already applied (nothing can have been lost
         within one incarnation). *)
      send t ~dst:src (commit_ack t ~op reply)
    end
  | Abort { op } ->
    if Store.has_staged t.store ~op || Store.staged_batch_slot t.store ~op >= 0
    then (match t.wal with Some wal -> Wal.abort wal ~op | None -> ());
    Store.abort_staged t.store ~op
  | Repair { key; version; sid; value; _ } ->
    if Store.install_flat t.store ~key ~version ~sid ~value then begin
      (match t.wal with
      | Some wal -> Wal.install wal ~key ~version ~sid ~value
      | None -> ());
      bump t.repairs_applied
    end
  | Read_batch { op; n_keys; keys } ->
    (* Coalesced reads: one envelope in, one envelope out, each counted
       as one message by the network but as [n_keys] logical reads here. *)
    t.reads_served.value <- t.reads_served.value + n_keys;
    let store = t.store in
    (* The reply's columns, from the pool, are filled directly. *)
    let reply =
      Message.read_batch_reply t.replies ~op ~n:n_keys ~inc:t.incarnation
    in
    (match reply with
    | Read_batch_reply { versions; sids; values; _ } ->
      for i = 0 to n_keys - 1 do
        let slot = Store.committed_slot store ~key:keys.(i) in
        versions.(i) <- Store.committed_version store slot;
        sids.(i) <- Store.committed_sid store slot;
        values.(i) <- Store.committed_value store slot
      done
    | _ -> assert false);
    send t ~dst:src ~units:n_keys reply
  | Prepare_batch { op; writes; reply } ->
    t.prepares_seen.value <- t.prepares_seen.value + Batch.length writes;
    Store.stage_many t.store ~op writes;
    (match t.wal with
    | Some wal -> Wal.stage_batch wal ~op ~group:t.group_commit writes
    | None -> ());
    send t ~dst:src (prepare_ack t ~op reply)
  | Ping { seq } -> send t ~dst:src (Message.Pong { seq })
  | Provision_request { op; from_chunk; chunk_size; key_space } ->
    (* donor duty: serve the requested chunk from local committed state *)
    serve_chunk t ~dst:src ~op ~chunk:from_chunk ~chunk_size ~key_space
  | Chunk_ack { op; chunk; chunk_size; key_space } ->
    serve_chunk t ~dst:src ~op ~chunk:(chunk + 1) ~chunk_size ~key_space
  | Tail_request { op; from_index } -> serve_tail t ~dst:src ~op ~from_index
  | Snapshot_chunk _ | Wal_tail _ ->
    (* recipient-side replies are routed before the status dispatch *)
    ()
  | Read_reply _ | Read_batch_reply _ | Prepare_ack _ | Prepare_nack _
  | Commit_ack _ | Busy _ | Pong _ ->
    (* Coordinator-bound messages; a serving replica ignores strays. *)
    ()

(* While recovering the replica is alive but must not serve reads or take
   part in write quorums: it answers with explicit refusals (prompting the
   coordinator to re-assemble elsewhere) and only its own catch-up reads
   and incoming repairs touch the store. *)
let handle_recovering t ~src msg =
  match (msg : Message.t) with
  | Read_request { op; key } ->
    let peer_catchup =
      match t.universe with Some n -> src < n | None -> false
    in
    if peer_catchup then begin
      (* A peer's catch-up read: answer from replayed durable state.  Under
         a commit-durable WAL that state holds every commit this replica
         ever applied, so quorum intersection still guarantees the
         requester sees the newest committed timestamp — and refusing
         would let recovering replicas nack each other's catch-ups into a
         permanent mutual standoff once all have crashed at least once. *)
      send_read_reply t ~dst:src ~op ~key
    end
    else nack t ~dst:src ~op "recovering"
  | Read_batch { op; _ } ->
    (* Batches are client traffic (catch-up never batches): refuse. *)
    nack t ~dst:src ~op "recovering"
  | Prepare { op; _ } | Prepare_batch { op; _ } ->
    nack t ~dst:src ~op "recovering"
  | Commit { op; _ } ->
    bump t.stale_commits_nacked;
    nack t ~dst:src ~op "stale-incarnation"
  | Abort { op } -> Store.abort_staged t.store ~op
  | Repair { key; version; sid; value; _ } ->
    if Store.install_flat t.store ~key ~version ~sid ~value then begin
      (match t.wal with
      | Some wal -> Wal.install wal ~key ~version ~sid ~value
      | None -> ());
      bump t.repairs_applied
    end
  | Ping { seq } -> send t ~dst:src (Message.Pong { seq })
  | Read_reply { version; sid; value; _ } ->
    (match t.gather with
    | Some g when g.g_op = Message.op_id msg ->
      catchup_gather_reply t g ~src ~ts:(Timestamp.make ~version ~sid) ~value
    | _ -> ());
    Message.recycle msg
  | Prepare_nack _ -> (
    match t.gather with
    | Some g when g.g_op = Message.op_id msg -> catchup_gather_failed t g
    | _ -> ())
  | Provision_request { op; from_chunk; chunk_size; key_space } ->
    (* Donor duty is served even while recovering, from replayed durable
       state — the same argument as peer catch-up reads above: under a
       commit-durable WAL that state holds every commit this replica
       acked, which is all the recipient needs from {e this} donor.
       Refusing would wedge a full blackout forever (every rejoiner
       nacking every other rejoiner). *)
    serve_chunk t ~dst:src ~op ~chunk:from_chunk ~chunk_size ~key_space
  | Chunk_ack { op; chunk; chunk_size; key_space } ->
    serve_chunk t ~dst:src ~op ~chunk:(chunk + 1) ~chunk_size ~key_space
  | Tail_request { op; from_index } -> serve_tail t ~dst:src ~op ~from_index
  | Snapshot_chunk _ | Wal_tail _ ->
    (* recipient-side replies are routed before the status dispatch *)
    ()
  | Prepare_ack _ | Commit_ack _ | Busy _ | Pong _ | Read_batch_reply _ -> ()

(* A decommissioned site is fenced for good: it refuses reads, 2PC
   participation and donor duty so no quorum and no transfer can count on
   it, and it never rejoins on recovery.  Only heartbeats are answered —
   the failure detector may truthfully observe it as up, just useless. *)
let handle_decommissioned t ~src msg =
  match (msg : Message.t) with
  | Read_request { op; _ }
  | Read_batch { op; _ }
  | Prepare { op; _ }
  | Prepare_batch { op; _ }
  | Provision_request { op; _ }
  | Chunk_ack { op; _ }
  | Tail_request { op; _ } ->
    nack t ~dst:src ~op "decommissioned"
  | Commit { op; _ } ->
    bump t.stale_commits_nacked;
    nack t ~dst:src ~op "stale-incarnation"
  | Abort { op } -> Store.abort_staged t.store ~op
  | Ping { seq } -> send t ~dst:src (Message.Pong { seq })
  | Repair _ | Snapshot_chunk _ | Wal_tail _ | Read_reply _
  | Read_batch_reply _ | Prepare_ack _ | Prepare_nack _ | Commit_ack _
  | Busy _ | Pong _ ->
    ()

(* Recipient-side provisioning replies bypass the status dispatch: a
   fenced recipient is [Recovering], an unfenced one (the negative
   control) keeps [Serving] while the transfer runs, and the promotion
   delta tail arrives at a serving spare. *)
let is_prov_reply t msg =
  match (msg : Message.t) with
  | Message.Snapshot_chunk _ | Message.Wal_tail _ -> true
  | Message.Prepare_nack { op; _ } -> (
    match t.prov with Some p -> p.p_op = op | None -> false)
  | _ -> false

let handle_prov_reply t ~src msg =
  match (msg : Message.t) with
  | Message.Snapshot_chunk { op; chunk; n_chunks; wal_index; dinc; entries }
    -> (
    match t.prov with
    | Some p when p.p_op = op ->
      prov_chunk t p ~src ~chunk ~n_chunks ~wal_index ~dinc ~entries
    | _ -> prov_stale t)
  | Message.Wal_tail { op; dinc; next_index; entries } -> (
    match t.prov with
    | Some p when p.p_op = op -> prov_tail t p ~src ~dinc ~next_index ~entries
    | _ -> (
      match t.tail_wait with
      | Some tw when tw.tw_op = op && tw.tw_donor = src ->
        t.tail_wait <- None;
        apply_tail_entries t entries;
        t.last_tail_index <- next_index;
        tw.tw_k ()
      | _ -> prov_stale t))
  | Message.Prepare_nack _ -> (
    (* the donor refused (recovering or decommissioned): same move as a
       stall — fail over, or retry a pinned donor *)
    match t.prov with Some p -> prov_stalled t p | None -> ())
  | _ -> ()

let handle t ~src msg =
  if is_prov_reply t msg then handle_prov_reply t ~src msg
  else
    match shed_client_work t ~src msg with
    | Some op -> shed t ~dst:src ~op
    | None -> (
      match t.status with
      | Serving -> handle_serving t ~src msg
      | Recovering | Failed_rejoin -> handle_recovering t ~src msg
      | Decommissioned -> handle_decommissioned t ~src msg)

(* Which arrivals may bypass the bounded ingress queue's capacity check.
   Replies and heartbeats are tiny and keep the control plane honest; 2PC
   completion traffic (Commit/Abort) must land or prepared writes wedge;
   Repair and peer catch-up reads are the recovery lane — shedding them
   would let overload block the very mechanism that drains it. *)
let priority_lane t ~src msg =
  match (msg : Message.t) with
  | Commit _ | Abort _ | Repair _ | Ping _ | Pong _ | Read_reply _
  | Read_batch_reply _ | Prepare_ack _ | Prepare_nack _ | Commit_ack _
  | Busy _ ->
    true
  | Read_request _ -> is_peer t src
  | Prepare _ | Prepare_batch _ -> false
  | Read_batch _ -> is_peer t src
  | Provision_request _ | Snapshot_chunk _ | Chunk_ack _ | Tail_request _
  | Wal_tail _ ->
    (* provisioning rides the recovery lane: a transfer that overload can
       starve would keep the recipient out of service indefinitely *)
    true

(* A message the bounded queue turned away: answer with an explicit
   [Busy] so the coordinator learns about the pushback now instead of at
   its timeout. *)
let on_overflow t ~src msg =
  match (msg : Message.t) with
  | Read_request { op; _ }
  | Prepare { op; _ }
  | Read_batch { op; _ }
  | Prepare_batch { op; _ } ->
    shed t ~dst:src ~op
  | _ -> ()

let create ~site ~net ?recovery ?admission ?(group_commit = false) ?obs () =
  let proto, rng =
    match recovery with
    | Some r when r.catch_up ->
      (* Fork so catch-up quorum sampling never shares scratch state with
         the coordinators' instance; split an own RNG stream so enabling
         recovery reshapes no other component's draws. *)
      ( Option.map Protocol.fork r.proto,
        Some (Rng.split (Engine.rng (Network.engine net))) )
    | _ -> (None, None)
  in
  let wal =
    match recovery with
    | None -> None
    | Some r ->
      Some
        (Wal.create ~policy:r.wal_policy
           ~now:(fun () -> Engine.now (Network.engine net))
           ())
  in
  let universe =
    match admission with
    | Some { a_universe = Some n; _ } -> Some n
    | _ -> (
      match recovery with
      | Some { proto = Some p; _ } -> Some (Protocol.universe_size p)
      | _ -> None)
  in
  let t =
    {
      site;
      net;
      store = Store.create ();
      recovery;
      wal;
      universe;
      admission;
      group_commit;
      proto;
      replies = Message.pool ();
      rng;
      obs;
      status = Serving;
      incarnation = 0;
      lost_state = false;
      gather = None;
      next_seq = 0;
      prov = None;
      prov_resume = None;
      tail_wait = None;
      last_tail_index = 0;
      reads_served = { value = 0 };
      sheds = { value = 0 };
      writes_applied = { value = 0 };
      prepares_seen = { value = 0 };
      repairs_applied = { value = 0 };
      recoveries = { value = 0 };
      wal_records_replayed = { value = 0 };
      stale_commits_nacked = { value = 0 };
      catchup_runs = { value = 0 };
      catchup_rounds = { value = 0 };
      catchup_keys_installed = { value = 0 };
      catchup_abandoned = { value = 0 };
      failed_rejoins = { value = 0 };
      decommissioned = { value = 0 };
      provision_starts = { value = 0 };
      provision_runs = { value = 0 };
      provision_chunks = { value = 0 };
      provision_resumes = { value = 0 };
      provision_failovers = { value = 0 };
      provision_stale = { value = 0 };
      provision_rounds = { value = 0 };
    }
  in
  Network.set_handler net ~site (fun ~src msg -> handle t ~src msg);
  Option.iter (fun o -> Obs.Metrics.register_all (Obs.metrics o) counters t) obs;
  (* Admission control plugs into the network's service model: the
     priority lane exempts protocol traffic from the capacity bound, and
     the overflow hook turns silent queue-full drops into Busy nacks.
     Without [admission] neither is installed and the site keeps the
     instant-delivery path. *)
  (match admission with
  | None -> ()
  | Some _ ->
    Network.set_priority net ~site (fun ~src msg -> priority_lane t ~src msg);
    Network.set_overflow net ~site (fun ~src msg -> on_overflow t ~src msg));
  (* Only recovery-enabled replicas care about their own failures; legacy
     fail-stop replicas keep the hook-free network behavior. *)
  if recovery <> None then
    Network.set_crash_hooks net ~site
      ~on_crash:(fun mode -> on_crash t mode)
      ~on_recover:(fun () -> on_recover t)
      ();
  t

(* --- membership operations ------------------------------------------------ *)

let provision_now t ~donor k = start_provision t ~pinned:true ~donor ~on_done:k ()

(* One-shot fenced delta: fetch the committed tail since the newest cut
   this replica holds, then run [k].  The promotion flow calls this while
   every key is locked, so the answer is the donor's final word. *)
let request_tail t ~donor k =
  let tw = { tw_op = fresh_op t; tw_donor = donor; tw_k = k } in
  t.tail_wait <- Some tw;
  let delay =
    if Option.is_some (prov_config t) then provision_timeout else catchup_timeout
  in
  let rec go () =
    match t.tail_wait with
    | Some tw' when tw' == tw ->
      bump t.provision_rounds;
      send t ~dst:donor
        (Message.Tail_request { op = tw.tw_op; from_index = t.last_tail_index });
      Engine.schedule (engine t) ~delay go
    | _ -> ()
  in
  go ()

let decommission t =
  t.status <- Decommissioned;
  t.prov <- None;
  t.gather <- None;
  t.tail_wait <- None;
  bump t.decommissioned

let site t = t.site
let store t = t.store
let incarnation t = t.incarnation
let is_serving t = t.status = Serving
let is_decommissioned t = t.status = Decommissioned
let is_failed_rejoin t = t.status = Failed_rejoin

let status_label t =
  match t.status with
  | Serving -> "serving"
  | Recovering -> "recovering"
  | Failed_rejoin -> "failed-rejoin"
  | Decommissioned -> "decommissioned"
