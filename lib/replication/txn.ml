module Engine = Dsim.Engine
module Network = Dsim.Network

type config = { rpc : Quorum_rpc.config; lock_timeout : float }

let default_config = { rpc = Quorum_rpc.default_config; lock_timeout = 200.0 }

type manager = {
  rpcs : Quorum_rpc.t array;  (* one endpoint per shard *)
  route : int -> int;  (* key -> index into rpcs *)
  atomic : bool;  (* false = per-shard legs commit independently *)
  locks : Lock_manager.t;
  lock_timeout : float;
  engine : Engine.t;
  obs : Obs.t option;
  mutable committed : int;
  mutable aborted : int;
}

(* The primary endpoint: site identity, span site and version sid.  All
   endpoints of a manager share one client site, so any of them serves. *)
let primary mgr = mgr.rpcs.(0)
let rpc_for mgr key = mgr.rpcs.(mgr.route key)

let create_sharded_manager ~site ~endpoints ~route ~locks ?(atomic = true)
    ?view ?obs ?(config = default_config) () =
  if Array.length endpoints = 0 then
    invalid_arg "Txn.create_sharded_manager: need at least one endpoint";
  let rpcs =
    Array.map
      (fun (net, proto) ->
        Quorum_rpc.create ~site ~net ~proto ?view ?obs ~config:config.rpc ())
      endpoints
  in
  {
    rpcs;
    route;
    atomic;
    locks;
    lock_timeout = config.lock_timeout;
    engine = Network.engine (fst endpoints.(0));
    obs;
    committed = 0;
    aborted = 0;
  }

let create_manager ~site ~net ~proto ~locks ?view ?obs ?config () =
  create_sharded_manager ~site ~endpoints:[| (net, proto) |]
    ~route:(fun _ -> 0)
    ~locks ?view ?obs ?config ()

let committed mgr = mgr.committed
let aborted mgr = mgr.aborted

(* --- transactions -------------------------------------------------------- *)

type outcome = Committed | Aborted of string

type state = Active | Committing | Done of outcome

type t = {
  mgr : manager;
  owner : int;
  span : Obs.Span.t option;
  mutable state : state;
  read_cache : (int, string) Hashtbl.t;
  write_buf : (int, string) Hashtbl.t;
  mutable held : (int * Lock_manager.mode) list;
}

let begin_txn mgr =
  {
    mgr;
    owner = Lock_manager.fresh_owner mgr.locks;
    span =
      (match mgr.obs with
      | None -> None
      | Some obs ->
        Some (Obs.span obs ~op:"txn" ~site:(Quorum_rpc.site (primary mgr)) ()));
    state = Active;
    read_cache = Hashtbl.create 8;
    write_buf = Hashtbl.create 8;
    held = [];
  }

(* Phase markers on the transaction's own span: the quorum list carries the
   write-key set (commit is a cross-key barrier, not a single quorum). *)
let ophase t ~kind ~quorum =
  match (t.mgr.obs, t.span) with
  | Some obs, Some sp -> Obs.phase obs sp ~kind ~quorum ()
  | _ -> ()

let is_finished t = match t.state with Done _ -> true | _ -> false

let held_mode t key = List.assoc_opt key t.held

let release_all t =
  List.iter
    (fun (key, _) -> Lock_manager.release t.mgr.locks ~key ~owner:t.owner)
    t.held;
  t.held <- []

let finish t outcome =
  release_all t;
  t.state <- Done outcome;
  (match (t.mgr.obs, t.span) with
  | Some obs, Some sp ->
    Obs.finish obs sp
      ~outcome:
        (match outcome with
        | Committed -> Obs.Span.Ok
        | Aborted reason -> Obs.Span.Failed reason)
  | _ -> ());
  match outcome with
  | Committed -> t.mgr.committed <- t.mgr.committed + 1
  | Aborted _ -> t.mgr.aborted <- t.mgr.aborted + 1

let abort t =
  match t.state with
  | Done _ -> ()
  | Active | Committing -> finish t (Aborted "aborted by user")

let read t ~key k =
  match t.state with
  | Done _ | Committing -> invalid_arg "Txn.read: transaction finished"
  | Active -> (
    match Hashtbl.find_opt t.write_buf key with
    | Some v -> k (Some v)  (* read-your-writes *)
    | None -> (
      match Hashtbl.find_opt t.read_cache key with
      | Some v -> k (Some v)  (* repeatable read *)
      | None ->
        let proceed () =
          Quorum_rpc.query (rpc_for t.mgr key) ~key (fun result ->
              match (t.state, result) with
              | Active, Some (_, value) ->
                Hashtbl.replace t.read_cache key value;
                k (Some value)
              | Active, None ->
                finish t (Aborted "read quorum unavailable");
                k None
              | (Done _ | Committing), _ -> k None)
        in
        if held_mode t key = None then
          Lock_manager.acquire t.mgr.locks ~key ~mode:Lock_manager.Shared
            ~owner:t.owner (fun () ->
              if t.state = Active then begin
                t.held <- (key, Lock_manager.Shared) :: t.held;
                proceed ()
              end
              else
                (* Granted after the transaction finished: give it back. *)
                Lock_manager.release t.mgr.locks ~key ~owner:t.owner)
        else proceed ()))

let write t ~key ~value =
  match t.state with
  | Done _ | Committing -> invalid_arg "Txn.write: transaction finished"
  | Active -> Hashtbl.replace t.write_buf key value

(* Commit-time exclusive lock acquisition over the sorted write keys, with
   a global deadline resolving deadlocks by abort. *)
let acquire_write_locks t keys k =
  let deadline_hit = ref false in
  let current_wait = ref None in
  Engine.schedule t.mgr.engine ~delay:t.mgr.lock_timeout (fun () ->
      if t.state = Committing && !current_wait <> None then begin
        deadline_hit := true;
        (match !current_wait with
        | Some key -> ignore (Lock_manager.cancel t.mgr.locks ~key ~owner:t.owner)
        | None -> ());
        k (Error "lock timeout (possible deadlock)")
      end);
  let rec next = function
    | [] ->
      current_wait := None;
      if not !deadline_hit then k (Ok ())
    | key :: rest -> (
      if !deadline_hit then ()
      else begin
        match held_mode t key with
        | Some Lock_manager.Exclusive -> next rest
        | Some Lock_manager.Shared ->
          current_wait := Some key;
          let accepted =
            Lock_manager.try_upgrade t.mgr.locks ~key ~owner:t.owner (fun () ->
                if not !deadline_hit then begin
                  t.held <-
                    (key, Lock_manager.Exclusive) :: List.remove_assoc key t.held;
                  current_wait := None;
                  next rest
                end)
          in
          if not accepted then begin
            current_wait := None;
            k (Error "upgrade conflict")
          end
        | None ->
          current_wait := Some key;
          Lock_manager.acquire t.mgr.locks ~key ~mode:Lock_manager.Exclusive
            ~owner:t.owner (fun () ->
              if not !deadline_hit then begin
                t.held <- (key, Lock_manager.Exclusive) :: t.held;
                current_wait := None;
                next rest
              end
              else
                (* Granted in the same instant the deadline fired: the
                   cancel missed, so release to avoid a leak. *)
                Lock_manager.release t.mgr.locks ~key ~owner:t.owner)
      end)
  in
  next keys

(* Gather bumped version timestamps for every written key (in parallel). *)
let version_all t keys k =
  let results = Hashtbl.create 8 in
  let remaining = ref (List.length keys) in
  let failed = ref false in
  let site = Quorum_rpc.site (primary t.mgr) in
  List.iter
    (fun key ->
      Quorum_rpc.query (rpc_for t.mgr key) ~key (fun r ->
          (match r with
          | Some (ts, _) ->
            Hashtbl.replace results key
              (Timestamp.make ~version:(ts.Timestamp.version + 1) ~sid:site)
          | None -> failed := true);
          decr remaining;
          if !remaining = 0 then if !failed then k None else k (Some results)))
    keys

(* Prepare every key on its own write quorum (in parallel); on any failure
   roll back whatever was staged. *)
let prepare_all t keys versions k =
  let staged = Hashtbl.create 8 in
  let remaining = ref (List.length keys) in
  let failed = ref false in
  List.iter
    (fun key ->
      let ts = Hashtbl.find versions key in
      let value = Hashtbl.find t.write_buf key in
      Quorum_rpc.prepare (rpc_for t.mgr key) ~key ~ts ~value (fun r ->
          (match r with
          | Some (op, members) -> Hashtbl.replace staged key (op, members)
          | None -> failed := true);
          decr remaining;
          if !remaining = 0 then
            if !failed then begin
              Hashtbl.iter
                (fun key (op, members) ->
                  Quorum_rpc.abort_staged (rpc_for t.mgr key) ~op ~members)
                staged;
              k None
            end
            else k (Some staged)))
    keys

(* Commit every staged key; all keys are already decided, so failures here
   only mean uncertain delivery. *)
let commit_all t staged k =
  let entries = Hashtbl.fold (fun key v acc -> (key, v) :: acc) staged [] in
  let remaining = ref (List.length entries) in
  let failed = ref false in
  List.iter
    (fun (key, (op, members)) ->
      Quorum_rpc.commit_staged (rpc_for t.mgr key) ~op ~members (fun ok ->
          if not ok then failed := true;
          decr remaining;
          if !remaining = 0 then k (not !failed)))
    entries

let commit t k =
  match t.state with
  | Done _ | Committing -> invalid_arg "Txn.commit: transaction finished"
  | Active ->
    let keys =
      List.sort Int.compare
        (Hashtbl.fold (fun key _ acc -> key :: acc) t.write_buf [])
    in
    if keys = [] then begin
      finish t Committed;
      k Committed
    end
    else begin
      t.state <- Committing;
      ophase t ~kind:Obs.Span.Lock ~quorum:keys;
      acquire_write_locks t keys (function
        | Error reason ->
          finish t (Aborted reason);
          k (Aborted reason)
        | Ok () ->
          ophase t ~kind:Obs.Span.Query ~quorum:keys;
          version_all t keys (function
            | None ->
              finish t (Aborted "version phase failed");
              k (Aborted "version phase failed")
            | Some versions ->
              ophase t ~kind:Obs.Span.Prepare ~quorum:keys;
              if t.mgr.atomic then
                prepare_all t keys versions (function
                  | None ->
                    finish t (Aborted "prepare phase failed");
                    k (Aborted "prepare phase failed")
                  | Some staged ->
                    ophase t ~kind:Obs.Span.Commit ~quorum:keys;
                    commit_all t staged (fun ok ->
                        if ok then begin
                          finish t Committed;
                          k Committed
                        end
                        else begin
                          let reason = "commit acks incomplete (outcome uncertain)" in
                          finish t (Aborted reason);
                          k (Aborted reason)
                        end))
              else begin
                (* Negative control: every shard's leg prepares and
                   commits independently — the cross-shard all-prepared
                   barrier is gone.  A shard that cannot assemble a
                   quorum aborts only its own leg, so a transaction
                   spanning a crashed shard and a healthy one applies
                   partially: exactly the phantom the conservation
                   checker must catch. *)
                ophase t ~kind:Obs.Span.Commit ~quorum:keys;
                let groups = Hashtbl.create 4 in
                List.iter
                  (fun key ->
                    let s = t.mgr.route key in
                    let prev =
                      try Hashtbl.find groups s with Not_found -> []
                    in
                    Hashtbl.replace groups s (key :: prev))
                  keys;
                let legs =
                  List.sort
                    (fun (a, _) (b, _) -> Int.compare a b)
                    (Hashtbl.fold
                       (fun s ks acc -> (s, List.rev ks) :: acc)
                       groups [])
                in
                let total = List.length legs in
                let done_legs = ref 0 in
                let applied = ref 0 in
                let uncertain = ref false in
                let leg_finished ~applied_leg ~unc =
                  if applied_leg then incr applied;
                  if unc then uncertain := true;
                  incr done_legs;
                  if !done_legs = total then
                    if !applied = total && not !uncertain then begin
                      finish t Committed;
                      k Committed
                    end
                    else begin
                      let reason =
                        if !uncertain then
                          "commit acks incomplete (outcome uncertain)"
                        else
                          Printf.sprintf
                            "non-atomic commit: %d/%d shard legs applied"
                            !applied total
                      in
                      finish t (Aborted reason);
                      k (Aborted reason)
                    end
                in
                List.iter
                  (fun (_shard, gkeys) ->
                    prepare_all t gkeys versions (function
                      | None -> leg_finished ~applied_leg:false ~unc:false
                      | Some staged ->
                        commit_all t staged (fun ok ->
                            leg_finished ~applied_leg:true ~unc:(not ok))))
                  legs
              end))
    end
