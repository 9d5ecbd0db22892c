module Engine = Dsim.Engine

type mode = Shared | Exclusive

type waiter = { mode : mode; owner : int; grant : unit -> unit }

type lock = {
  mutable held_mode : mode;
  mutable holders : int list;
  waiters : waiter Queue.t;
  mutable upgrade : waiter option;
      (* a shared holder waiting to become exclusive; takes priority over
         the queue *)
}

type t = {
  engine : Engine.t;
  locks : (int, lock) Hashtbl.t;
  mutable next_owner : int;
}

let create ~engine = { engine; locks = Hashtbl.create 16; next_owner = 0 }

let fresh_owner t =
  let owner = t.next_owner in
  t.next_owner <- owner + 1;
  owner

let involves lock owner =
  List.mem owner lock.holders
  || Queue.fold (fun acc w -> acc || w.owner = owner) false lock.waiters
  || (match lock.upgrade with Some u -> u.owner = owner | None -> false)

let grant t lock w =
  lock.held_mode <- w.mode;
  lock.holders <- w.owner :: lock.holders;
  Engine.schedule t.engine ~delay:0.0 w.grant

let acquire t ~key ~mode ~owner k =
  match Hashtbl.find t.locks key with
  | exception Not_found ->
    let lock =
      { held_mode = mode; holders = []; waiters = Queue.create (); upgrade = None }
    in
    Hashtbl.replace t.locks key lock;
    lock.holders <- [ owner ];
    Engine.schedule t.engine ~delay:0.0 k
  | lock ->
    if
      lock.holders = [] && lock.upgrade = None && Queue.is_empty lock.waiters
    then begin
      (* Free cached lock (release keeps records around for reuse): grant
         without building a waiter — nothing is held or queued, so the
         [involves] check is trivially false. *)
      lock.held_mode <- mode;
      lock.holders <- [ owner ];
      Engine.schedule t.engine ~delay:0.0 k
    end
    else begin
      if involves lock owner then
        invalid_arg "Lock_manager.acquire: owner already holds or waits";
      if
        Queue.is_empty lock.waiters && lock.upgrade = None
        && mode = Shared && lock.held_mode = Shared
      then grant t lock { mode; owner; grant = k }
      else Queue.add { mode; owner; grant = k } lock.waiters
    end

let rec drain t lock =
  (* A pending upgrade outranks the queue: it can only proceed once its
     owner is the sole holder. *)
  match lock.upgrade with
  | Some u ->
    if lock.holders = [ u.owner ] then begin
      lock.upgrade <- None;
      lock.held_mode <- Exclusive;
      Engine.schedule t.engine ~delay:0.0 u.grant
    end
  | None -> begin
    match Queue.peek_opt lock.waiters with
    | None -> ()
    | Some w ->
      if lock.holders = [] then begin
        ignore (Queue.pop lock.waiters);
        grant t lock w;
        if w.mode = Shared then begin
          match Queue.peek_opt lock.waiters with
          | Some w' when w'.mode = Shared -> drain_shared t lock
          | _ -> ()
        end
      end
      else if lock.held_mode = Shared && w.mode = Shared then drain_shared t lock
  end

and drain_shared t lock =
  match Queue.peek_opt lock.waiters with
  | Some w when w.mode = Shared ->
    ignore (Queue.pop lock.waiters);
    grant t lock w;
    drain_shared t lock
  | _ -> ()

let release t ~key ~owner =
  match Hashtbl.find t.locks key with
  | exception Not_found -> invalid_arg "Lock_manager.release: key not locked"
  | lock ->
    (match lock.holders with
    | [ o ] when o = owner -> lock.holders <- []
    | holders ->
      if not (List.mem owner holders) then
        invalid_arg "Lock_manager.release: lock not held by owner";
      lock.holders <- List.filter (fun o -> o <> owner) holders);
    (* The record stays cached in the table when it falls idle, so the
       next acquire of this key allocates neither a lock nor a queue. *)
    if
      not
        (lock.holders = [] && Queue.is_empty lock.waiters
       && lock.upgrade = None)
    then drain t lock

let try_upgrade t ~key ~owner k =
  match Hashtbl.find_opt t.locks key with
  | None -> invalid_arg "Lock_manager.try_upgrade: key not locked"
  | Some lock ->
    if not (List.mem owner lock.holders && lock.held_mode = Shared) then
      invalid_arg "Lock_manager.try_upgrade: shared lock not held by owner";
    if lock.upgrade <> None then false
    else if lock.holders = [ owner ] then begin
      lock.held_mode <- Exclusive;
      Engine.schedule t.engine ~delay:0.0 k;
      true
    end
    else begin
      lock.upgrade <- Some { mode = Exclusive; owner; grant = k };
      true
    end

let cancel t ~key ~owner =
  match Hashtbl.find_opt t.locks key with
  | None -> false
  | Some lock -> begin
    match lock.upgrade with
    | Some u when u.owner = owner ->
      lock.upgrade <- None;
      drain t lock;
      true
    | _ ->
      let before = Queue.length lock.waiters in
      let kept = Queue.create () in
      Queue.iter (fun w -> if w.owner <> owner then Queue.add w kept) lock.waiters;
      Queue.clear lock.waiters;
      Queue.transfer kept lock.waiters;
      if Queue.length lock.waiters < before then begin
        drain t lock;
        true
      end
      else false
  end

let holders t ~key =
  match Hashtbl.find_opt t.locks key with
  | None -> None
  | Some lock ->
    if lock.holders = [] then None else Some (lock.held_mode, lock.holders)

let waiting t ~key =
  match Hashtbl.find_opt t.locks key with
  | None -> 0
  | Some lock ->
    Queue.length lock.waiters
    + match lock.upgrade with Some _ -> 1 | None -> 0
