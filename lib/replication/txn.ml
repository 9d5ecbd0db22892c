module Engine = Dsim.Engine
module Network = Dsim.Network

(* Deadline for commit-time lock acquisition: a cross-key lock cycle
   aborts after it. *)
let lock_timeout = 200.0

type manager = {
  site : int;
  coords : Coordinator.t array;  (* one per shard *)
  route : int -> int;  (* key -> index into coords *)
  atomic : bool;  (* false = per-shard legs commit independently *)
  locks : Lock_manager.t;
  engine : Engine.t;
  obs : Obs.t option;
  (* Counters: handles the manager owns; [?obs] registers them. *)
  committed : Obs.Metrics.counter;
  aborted : Obs.Metrics.counter;
}

let counters =
  [ ("txn.committed", fun mgr -> mgr.committed); ("txn.aborted", fun mgr -> mgr.aborted) ]

let create_sharded_manager ~site ~engine ~coords ~route ~locks ?(atomic = true)
    ?obs () =
  if Array.length coords = 0 then
    invalid_arg "Txn.create_sharded_manager: need at least one coordinator";
  let mgr =
    {
      site;
      coords;
      route;
      atomic;
      locks;
      engine;
      obs;
      committed = { value = 0 };
      aborted = { value = 0 };
    }
  in
  Option.iter (fun o -> Obs.Metrics.register_all (Obs.metrics o) counters mgr) obs;
  mgr

let create_manager ~site ~net ~proto ~locks () =
  create_sharded_manager ~site ~engine:(Network.engine net)
    ~coords:[| Coordinator.create ~site ~net ~proto () |]
    ~route:(fun _ -> 0)
    ~locks ()

let count mgr name = Obs.Metrics.read counters mgr name
let coord_for mgr key = mgr.coords.(mgr.route key)

(* --- transactions -------------------------------------------------------- *)

type outcome =
  | Committed
  | Aborted of string
  | In_doubt
  | Partial of { applied : int; legs : int }

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
      | Some obs -> Some (Obs.span obs ~op:"txn" ~site:mgr.site ()));
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
        | Aborted reason -> Obs.Span.Failed reason
        | In_doubt -> Obs.Span.Failed "in doubt"
        | Partial _ -> Obs.Span.Failed "partial")
  | _ -> ());
  let c = match outcome with Committed -> t.mgr.committed | _ -> t.mgr.aborted in
  c.value <- c.value + 1

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
          Coordinator.read (coord_for t.mgr key) ~key (fun result ->
              match (t.state, result) with
              | Active, Some { Coordinator.value; _ } ->
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
  Engine.schedule t.mgr.engine ~delay:lock_timeout (fun () ->
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

(* The write set, one leg per shard in shard order, keys ascending: each
   leg is its shard and its keys' and values' arrays. *)
let legs t keys =
  let by_shard = Array.make (Array.length t.mgr.coords) [] in
  List.iter
    (fun key ->
      let s = t.mgr.route key in
      by_shard.(s) <- key :: by_shard.(s))
    (List.rev keys);
  List.filter_map
    (fun s ->
      match by_shard.(s) with
      | [] -> None
      | leg ->
        let keys = Array.of_list leg in
        Some (s, keys, Array.map (Hashtbl.find t.write_buf) keys))
    (List.init (Array.length by_shard) Fun.id)

(* Prepare every leg and hold it (in parallel).  All held: [Ok] with the
   handles.  Any leg failed: abort the held ones, [Error] with the
   reason — a failed version phase is named first. *)
let prepare_all t legs k =
  let staged = ref [] and failed = ref [] in
  let remaining = ref (List.length legs) in
  List.iter
    (fun (s, keys, values) ->
      let coord = t.mgr.coords.(s) in
      Coordinator.prepare_batch coord ~keys ~values ~pos:0
        ~len:(Array.length keys) (fun r ->
          (match r with
          | Ok h -> staged := (coord, h) :: !staged
          | Error phase -> failed := phase :: !failed);
          decr remaining;
          if !remaining = 0 then
            if !failed = [] then k (Ok !staged)
            else begin
              List.iter (fun (c, h) -> Coordinator.abort_staged c h) !staged;
              k
                (Error
                   (if List.mem `Version !failed then "version phase failed"
                    else "prepare phase failed"))
            end))
    legs

(* Commit every held leg; the decision is already commit, so a failure
   here leaves the outcome in doubt. *)
let commit_all staged k =
  let remaining = ref (List.length staged) and all_ok = ref true in
  List.iter
    (fun (c, h) ->
      Coordinator.commit_staged c h (fun ok ->
          if not ok then all_ok := false;
          decr remaining;
          if !remaining = 0 then k !all_ok))
    staged

(* Negative control: each leg is an independent write batch — version,
   prepare and commit on its own shard, with no cross-shard barrier.  A
   shard that cannot commit fails only its own leg, so a transaction
   spanning it and a healthy shard applies partially: exactly the
   phantom the conservation checker must catch. *)
let write_legs t legs k =
  let remaining = ref (List.length legs) and applied = ref 0 in
  List.iter
    (fun (s, keys, values) ->
      Coordinator.write_batch t.mgr.coords.(s) ~keys ~values ~pos:0
        ~len:(Array.length keys) (fun o ->
          if Coordinator.outcome_ok o then incr applied;
          decr remaining;
          if !remaining = 0 then k !applied))
    legs

let commit t k =
  match t.state with
  | Done _ | Committing -> invalid_arg "Txn.commit: transaction finished"
  | Active ->
    let keys =
      List.sort Int.compare
        (Hashtbl.fold (fun key _ acc -> key :: acc) t.write_buf [])
    in
    let done_ outcome =
      finish t outcome;
      k outcome
    in
    if keys = [] then done_ Committed
    else begin
      t.state <- Committing;
      ophase t ~kind:Obs.Span.Lock ~quorum:keys;
      acquire_write_locks t keys (function
        | Error reason -> done_ (Aborted reason)
        | Ok () ->
          let legs = legs t keys in
          if t.mgr.atomic then begin
            ophase t ~kind:Obs.Span.Prepare ~quorum:keys;
            prepare_all t legs (function
              | Error reason -> done_ (Aborted reason)
              | Ok staged ->
                ophase t ~kind:Obs.Span.Commit ~quorum:keys;
                commit_all staged (fun ok -> done_ (if ok then Committed else In_doubt)))
          end
          else begin
            ophase t ~kind:Obs.Span.Commit ~quorum:keys;
            let n = List.length legs in
            write_legs t legs (fun applied ->
                done_
                  (if applied = n then Committed
                   else if applied = 0 then Aborted "no shard leg committed"
                   else Partial { applied; legs = n }))
          end)
    end
