module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng
module Engine = Dsim.Engine
module Network = Dsim.Network
module Protocol = Quorum.Protocol

(* Request priority: smaller = older = higher priority; ties broken by
   site id, so priorities are totally ordered and the oldest outstanding
   request can never be asked to yield — that is the liveness argument. *)
type priority = { clock : int; site : int }

let compare_priority a b =
  match compare a.clock b.clock with 0 -> compare a.site b.site | c -> c

type message =
  | Request of priority
  | Grant
  | Inquire
  | Yield
  | Release

(* --- arbiter (replica side) ---------------------------------------------- *)

type arbiter = {
  a_site : int;
  a_net : message Network.t;
  mutable granted : priority option;
  mutable waiting : priority list;  (* sorted, best (oldest) first *)
  mutable inquired : bool;  (* an Inquire to the current grantee is pending *)
}

let insert_sorted prio l =
  let rec go = function
    | [] -> [ prio ]
    | x :: rest as all ->
      if compare_priority prio x < 0 then prio :: all else x :: go rest
  in
  go l

let send_a t ~dst msg = Network.send t.a_net ~src:t.a_site ~dst msg

let grant_next t =
  match t.waiting with
  | [] ->
    t.granted <- None;
    t.inquired <- false
  | best :: rest ->
    t.waiting <- rest;
    t.granted <- Some best;
    t.inquired <- false;
    send_a t ~dst:best.site Grant

let handle_arbiter t ~src msg =
  match msg with
  | Request prio -> begin
    match t.granted with
    | None ->
      t.granted <- Some prio;
      t.inquired <- false;
      send_a t ~dst:prio.site Grant
    | Some current ->
      t.waiting <- insert_sorted prio t.waiting;
      (* An older request outranks the grantee: ask it to yield (once). *)
      if compare_priority prio current < 0 && not t.inquired then begin
        t.inquired <- true;
        send_a t ~dst:current.site Inquire
      end
  end
  | Yield -> begin
    match t.granted with
    | Some current when current.site = src ->
      t.waiting <- insert_sorted current t.waiting;
      grant_next t
    | _ -> ()  (* stale yield: the grant moved on already *)
  end
  | Release -> begin
    match t.granted with
    | Some current when current.site = src -> grant_next t
    | _ -> ()  (* stale release *)
  end
  | Grant | Inquire ->
    (* Client-bound; an arbiter ignores strays. *)
    ()

let create_arbiter ~site ~net =
  let t =
    { a_site = site; a_net = net; granted = None; waiting = []; inquired = false }
  in
  Network.set_handler net ~site (fun ~src msg -> handle_arbiter t ~src msg);
  t

(* --- client ---------------------------------------------------------------- *)

type status = Idle | Acquiring | Held

type client = {
  c_site : int;
  c_net : message Network.t;
  proto : Protocol.t;
  rng : Rng.t;
  mutable clock : int;
  mutable status : status;
  mutable members : int list;
  mutable granted_from : Bitset.t;
  owed_ignores : (int, int) Hashtbl.t;
      (* arbiter -> grants we yielded before they arrived (FIFO links make
         at most one outstanding per arbiter, but we count anyway) *)
  mutable on_acquired : unit -> unit;
  mutable acquisitions : int;
  mutable yields : int;
}

let send_c t ~dst msg = Network.send t.c_net ~src:t.c_site ~dst msg

let owed t site = Option.value ~default:0 (Hashtbl.find_opt t.owed_ignores site)

let all_granted t =
  List.for_all (fun m -> Bitset.mem t.granted_from m) t.members

let handle_client t ~src msg =
  match (msg, t.status) with
  | Grant, Acquiring ->
    if owed t src > 0 then Hashtbl.replace t.owed_ignores src (owed t src - 1)
    else begin
      Bitset.add t.granted_from src;
      if all_granted t then begin
        t.status <- Held;
        t.acquisitions <- t.acquisitions + 1;
        let k = t.on_acquired in
        t.on_acquired <- (fun () -> ());
        k ()
      end
    end
  | Inquire, Acquiring ->
    (* Not yet in the critical section: give the grant back.  If the grant
       is still in flight, remember to ignore it when it lands. *)
    t.yields <- t.yields + 1;
    if Bitset.mem t.granted_from src then Bitset.remove t.granted_from src
    else Hashtbl.replace t.owed_ignores src (owed t src + 1);
    send_c t ~dst:src Yield
  | Inquire, (Held | Idle) ->
    (* Held: we answer with the Release; Idle: stale, already released. *)
    ()
  | Grant, (Held | Idle) -> ()  (* stale duplicate *)
  | (Request _ | Yield | Release), _ -> ()  (* arbiter-bound strays *)

let create_client ~site ~net ~proto () =
  let t =
    {
      c_site = site;
      c_net = net;
      proto;
      rng = Rng.split (Engine.rng (Network.engine net));
      clock = 0;
      status = Idle;
      members = [];
      granted_from = Bitset.create (Network.size net);
      owed_ignores = Hashtbl.create 8;
      on_acquired = (fun () -> ());
      acquisitions = 0;
      yields = 0;
    }
  in
  Network.set_handler net ~site (fun ~src msg -> handle_client t ~src msg);
  t

(* Mutex quorum: the union of one read and one write quorum.  Two such
   unions always intersect because any read quorum meets any write quorum
   (bicoterie); for symmetric protocols the union is just one quorum. *)
let mutex_quorum t =
  let n = Protocol.universe_size t.proto in
  let alive = Bitset.create n in
  for i = 0 to n - 1 do
    if Network.is_up t.c_net i then Bitset.add alive i
  done;
  match
    ( Protocol.read_quorum t.proto ~alive ~rng:t.rng,
      Protocol.write_quorum t.proto ~alive ~rng:t.rng )
  with
  | Some r, Some w -> Some (Bitset.elements (Bitset.union r w))
  | _ -> None

let acquire t k =
  if t.status <> Idle then invalid_arg "Qmutex.acquire: already held or pending";
  match mutex_quorum t with
  | None -> invalid_arg "Qmutex.acquire: no quorum available"
  | Some members ->
    t.clock <- t.clock + 1;
    t.status <- Acquiring;
    t.members <- members;
    Bitset.clear t.granted_from;
    Hashtbl.reset t.owed_ignores;
    t.on_acquired <- k;
    let prio = { clock = t.clock; site = t.c_site } in
    List.iter (fun m -> send_c t ~dst:m (Request prio)) members

let release t =
  if t.status <> Held then invalid_arg "Qmutex.release: not held";
  t.status <- Idle;
  Bitset.clear t.granted_from;
  List.iter (fun m -> send_c t ~dst:m Release) t.members;
  t.members <- []

let holding t = t.status = Held
let acquisitions t = t.acquisitions
let yields t = t.yields
