module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng

type crash_mode = Fail_stop | Amnesia

type crash_hooks = {
  on_crash : crash_mode -> unit;
  on_recover : unit -> unit;
}

(* Per-site ingress queue and service model, allocated only for sites that
   opted in through [set_service]/[set_priority]/[set_overflow]; every
   other site keeps the instant-delivery path untouched.  The queue is a
   ring of parallel sender/message arrays (a power-of-two capacity, grown
   on demand and allocated on the first arrival), so queueing a message
   allocates nothing. *)
type 'msg service = {
  mutable capacity : int;  (* 0 = unbounded *)
  mutable service_time : float;
  mutable q_src : int array;
  mutable q_msg : Obj.t array;  (* the ['msg]s; [Obj.repr 0] when vacant *)
  mutable q_head : int;  (* ring index of the message in service *)
  mutable q_len : int;
  mutable busy : bool;  (* a service-completion event is scheduled *)
  mutable epoch : int;  (* bumped by crash so stale completions die *)
  mutable peak : int;
  mutable priority : (src:int -> 'msg -> bool) option;
  mutable overflow : (src:int -> 'msg -> unit) option;
}

type 'msg t = {
  engine : Engine.t;
  n : int;
  latency : Latency.t;
  mutable loss_rate : float;
  fifo_floor : float array;  (* per src*n+dst: last delivery time; empty
                                unless FIFO ordering was requested *)
  rng : Rng.t;
  handlers : (src:int -> 'msg -> unit) option array;
  up : bool array;
  alive : Bitset.t;  (* mirrors [up], maintained by crash/recover, so
                        alive_view is a word blit, not an n-site loop *)
  group : int array;  (* partition group per site; all 0 when healed *)
  mutable mode : crash_mode;
  hooks : crash_hooks option array;
  services : 'msg service option array;
  (* Counters: handles the network owns and always increments; an attached
     [Obs.t] registers these same handles ([attach_obs]). *)
  sent : Obs.Metrics.counter;
  delivered : Obs.Metrics.counter;
  dropped_loss : Obs.Metrics.counter;
  dropped_crash : Obs.Metrics.counter;
  dropped_partition : Obs.Metrics.counter;
  dropped_no_handler : Obs.Metrics.counter;
  dropped_overload : Obs.Metrics.counter;
  coalesced : Obs.Metrics.counter;
  site_sent : Obs.Metrics.counter array;
  site_delivered : Obs.Metrics.counter array;
  mutable queue_depth : Obs.Metrics.histogram option;
  mutable deferred : Engine.handler;
      (* preallocated arrival handler: (src, dst) packed in the event's
         int slot, the message in its payload slot, so a send schedules
         no closure *)
  mutable completion : Engine.handler;
      (* preallocated service-completion handler: (epoch, dst) packed in
         the event's int slot *)
}

(* Sentinel handler installed by [create]; the first send (or the first
   service start) swaps in the real handler, defined below next to the
   delivery logic. *)
let uninit_deferred = Engine.handler (fun _ _ -> ())

let create ~engine ~n ?(latency = Latency.Exponential 1.0) ?(loss_rate = 0.0)
    ?(fifo = false) () =
  if n < 1 then invalid_arg "Network.create: need at least one site";
  if loss_rate < 0.0 || loss_rate >= 1.0 then
    invalid_arg "Network.create: loss_rate out of [0,1)";
  {
    engine;
    n;
    latency;
    loss_rate;
    fifo_floor = (if fifo then Array.make (n * n) 0.0 else [||]);
    rng = Rng.split (Engine.rng engine);
    handlers = Array.make n None;
    up = Array.make n true;
    alive =
      (let s = Bitset.create n in
       for i = 0 to n - 1 do
         Bitset.add s i
       done;
       s);
    group = Array.make n 0;
    mode = Fail_stop;
    hooks = Array.make n None;
    services = Array.make n None;
    sent = { value = 0 };
    delivered = { value = 0 };
    dropped_loss = { value = 0 };
    dropped_crash = { value = 0 };
    dropped_partition = { value = 0 };
    dropped_no_handler = { value = 0 };
    dropped_overload = { value = 0 };
    coalesced = { value = 0 };
    site_sent = Array.init n (fun _ -> { Obs.Metrics.value = 0 });
    site_delivered = Array.init n (fun _ -> { Obs.Metrics.value = 0 });
    queue_depth = None;
    deferred = uninit_deferred;
    completion = uninit_deferred;
  }

let engine t = t.engine
let size t = t.n

let counters =
  [
    ("net.sent", fun t -> t.sent);
    ("net.delivered", fun t -> t.delivered);
    ("net.dropped.loss", fun t -> t.dropped_loss);
    ("net.dropped.crash", fun t -> t.dropped_crash);
    ("net.dropped.partition", fun t -> t.dropped_partition);
    ("net.dropped.no_handler", fun t -> t.dropped_no_handler);
    ("net.dropped.overload", fun t -> t.dropped_overload);
    ("net.coalesced", fun t -> t.coalesced);
  ]

let attach_obs t obs =
  let m = Obs.metrics obs in
  Obs.Metrics.register_all m counters t;
  (* Per-site names are formatted here, never on an unattached network. *)
  let reg = Obs.Metrics.register m in
  let sites what = Array.iteri (fun i -> reg (Printf.sprintf "net.site.%d.%s" i what)) in
  sites "sent" t.site_sent;
  sites "delivered" t.site_delivered;
  t.queue_depth <- Some (Obs.Metrics.histogram m "net.queue.depth")

(* Counting is a field store: no call across the -opaque library boundary. *)
let[@inline] bump (c : Obs.Metrics.counter) = c.value <- c.value + 1

let check_site t i =
  if i < 0 || i >= t.n then invalid_arg "Network: bad site id"

let set_handler t ~site f =
  check_site t site;
  t.handlers.(site) <- Some f

let handler t ~site =
  check_site t site;
  t.handlers.(site)

let reachable t a b =
  check_site t a;
  check_site t b;
  t.group.(a) = t.group.(b)

(* Hand the message to the destination's handler: the tail of both the
   instant-delivery path and the service-queue path. *)
let deliver t ~src ~dst msg =
  match t.handlers.(dst) with
  | None ->
    (* A missing handler is a wiring problem, not a crash: count it
       separately so crash statistics stay truthful. *)
    bump t.dropped_no_handler
  | Some h ->
    bump t.delivered;
    bump t.site_delivered.(dst);
    h ~src msg

(* --- the service ring ------------------------------------------------------ *)

let vacant = Obj.repr 0

let ring_grow s =
  let cap = Array.length s.q_src in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let src = Array.make ncap 0 and msg = Array.make ncap vacant in
  for i = 0 to s.q_len - 1 do
    let j = (s.q_head + i) land (cap - 1) in
    src.(i) <- s.q_src.(j);
    msg.(i) <- s.q_msg.(j)
  done;
  s.q_src <- src;
  s.q_msg <- msg;
  s.q_head <- 0

let ring_push s ~src msg =
  if s.q_len = Array.length s.q_src then ring_grow s;
  let j = (s.q_head + s.q_len) land (Array.length s.q_src - 1) in
  s.q_src.(j) <- src;
  s.q_msg.(j) <- Obj.repr msg;
  s.q_len <- s.q_len + 1

(* Drop every queued message (vacating the slots so none is retained). *)
let ring_clear s =
  let mask = Array.length s.q_src - 1 in
  for i = 0 to s.q_len - 1 do
    s.q_msg.((s.q_head + i) land mask) <- vacant
  done;
  s.q_head <- 0;
  s.q_len <- 0

(* One server per site: the queue head is in service; its completion event
   pops it, hands it to the handler, and re-arms for the next message.
   The event is the network's one completion handler with (epoch, dst)
   packed in its int slot; [epoch] guards against completions scheduled
   before a crash wiped the queue. *)
let serve t ~dst s =
  s.busy <- true;
  Float.Array.set (Engine.delay_slot t.engine) 0 s.service_time;
  Engine.schedule_slot t.engine t.completion
    ~meta:((s.epoch lsl 20) lor dst) ~payload:vacant

let complete t ~dst ~epoch =
  match t.services.(dst) with
  | None -> ()
  | Some s ->
    if s.epoch = epoch then begin
      if s.q_len > 0 then begin
        let j = s.q_head in
        let src = s.q_src.(j) and msg = s.q_msg.(j) in
        s.q_msg.(j) <- vacant;
        s.q_head <- (j + 1) land (Array.length s.q_src - 1);
        s.q_len <- s.q_len - 1;
        deliver t ~src ~dst (Obj.obj msg)
      end;
      if s.q_len = 0 then s.busy <- false else serve t ~dst s
    end

(* Arrival at a site with a service model: bounded admission (priority
   traffic always admitted), then FIFO service. *)
let enqueue t ~src ~dst s msg =
  let priority =
    match s.priority with None -> false | Some p -> p ~src msg
  in
  if (not priority) && s.capacity > 0 && s.q_len >= s.capacity then begin
    bump t.dropped_overload;
    match s.overflow with None -> () | Some f -> f ~src msg
  end
  else begin
    ring_push s ~src msg;
    let depth = s.q_len in
    if depth > s.peak then s.peak <- depth;
    (match t.queue_depth with
    | None -> ()
    | Some h -> Obs.Metrics.observe h (float_of_int depth));
    if not s.busy then serve t ~dst s
  end

(* Message arrival (the deferred half of [send]): crash/partition checks
   happen at delivery time, so in-flight messages die with their
   destination. *)
let arrive t ~src ~dst msg =
  if not t.up.(dst) then bump t.dropped_crash
  else if t.group.(src) <> t.group.(dst) then bump t.dropped_partition
  else begin
    match t.services.(dst) with
    | None -> deliver t ~src ~dst msg
    | Some s -> enqueue t ~src ~dst s msg
  end

(* Install the preallocated event handlers: one of each per network.  An
   arrival carries (src, dst) in the event's int slot (20 bits each —
   universes are at most a few hundred sites) and the message in its
   payload slot; a service completion carries (epoch, dst).  Closure-based
   scheduling would cost several words per message. *)
let init_handlers t =
  t.deferred <-
    Engine.handler (fun meta p ->
        arrive t ~src:(meta lsr 20) ~dst:(meta land 0xFFFFF) (Obj.obj p));
  t.completion <-
    Engine.handler (fun meta _ ->
        complete t ~dst:(meta land 0xFFFFF) ~epoch:(meta lsr 20))

let send t ?(units = 1) ~src ~dst msg =
  check_site t src;
  check_site t dst;
  bump t.sent;
  bump t.site_sent.(src);
  (* A coalesced envelope carries [units] logical operations in one
     message: one send, one service-queue slot, one delivery — that is
     the amortization.  The counter records how many per-op messages the
     coalescing saved. *)
  if units > 1 then t.coalesced.value <- t.coalesced.value + (units - 1);
  if not t.up.(src) then bump t.dropped_crash
  else if
    (* [Rng.bernoulli t.rng t.loss_rate], rebuilt from the raw bits so the
       uniform draw is not a boxed float *)
    t.loss_rate > 0.0
    && float_of_int (Rng.bits53 t.rng) /. 9007199254740992.0 < t.loss_rate
  then bump t.dropped_loss
  else begin
    (* The latency draw lands in the engine's delay slot, and
       [schedule_slot] reads it there: no float crosses a module
       boundary, so nothing is boxed. *)
    let slot = Engine.delay_slot t.engine in
    Latency.sample_into t.latency t.rng slot;
    if Array.length t.fifo_floor > 0 then begin
      (* FIFO links: never deliver before an earlier message of the same
         (src, dst) pair. *)
      let idx = (src * t.n) + dst in
      let now = Float.Array.get (Engine.clock t.engine) 0 in
      let at =
        Float.max (now +. Float.Array.get slot 0) (t.fifo_floor.(idx) +. 1e-9)
      in
      t.fifo_floor.(idx) <- at;
      Float.Array.set slot 0 (at -. now)
    end;
    if t.deferred == uninit_deferred then init_handlers t;
    Engine.schedule_slot t.engine t.deferred ~meta:((src lsl 20) lor dst)
      ~payload:(Obj.repr msg)
  end

(* --- per-site overload model -------------------------------------------- *)

let service t site =
  check_site t site;
  match t.services.(site) with
  | Some s -> s
  | None ->
    let s =
      {
        capacity = 0;
        service_time = 0.0;
        q_src = [||];
        q_msg = [||];
        q_head = 0;
        q_len = 0;
        busy = false;
        epoch = 0;
        peak = 0;
        priority = None;
        overflow = None;
      }
    in
    t.services.(site) <- Some s;
    if t.completion == uninit_deferred then init_handlers t;
    s

let set_service t ~site ?(capacity = 0) ?(service_time = 0.0) () =
  if capacity < 0 then invalid_arg "Network.set_service: negative capacity";
  if service_time < 0.0 then
    invalid_arg "Network.set_service: negative service time";
  let s = service t site in
  s.capacity <- capacity;
  s.service_time <- service_time

let set_priority t ~site p = (service t site).priority <- Some p
let set_overflow t ~site f = (service t site).overflow <- Some f

let queue_depth t site =
  check_site t site;
  match t.services.(site) with None -> 0 | Some s -> s.q_len

let queue_peak t site =
  check_site t site;
  match t.services.(site) with None -> 0 | Some s -> s.peak

let set_crash_mode t mode = t.mode <- mode
let crash_mode t = t.mode

let set_crash_hooks t ~site ?(on_crash = fun _ -> ()) ?(on_recover = fun () -> ())
    () =
  check_site t site;
  t.hooks.(site) <- Some { on_crash; on_recover }

(* Crash/recover are transition-guarded: a redundant call is a no-op — no
   hook invocation, and the alive bitset stays in lockstep with [up].
   Hooks fire after the state change, so an [on_crash] callback already
   sees its site as down. *)
let crash t i =
  check_site t i;
  if t.up.(i) then begin
    t.up.(i) <- false;
    Bitset.remove t.alive i;
    (* Queued-but-unserved messages die with the site; the epoch bump
       invalidates any in-flight service-completion event. *)
    (match t.services.(i) with
    | None -> ()
    | Some s ->
      let pending = s.q_len in
      if pending > 0 then begin
        t.dropped_crash.value <- t.dropped_crash.value + pending;
        ring_clear s
      end;
      s.epoch <- s.epoch + 1;
      s.busy <- false);
    match t.hooks.(i) with Some h -> h.on_crash t.mode | None -> ()
  end

let recover t i =
  check_site t i;
  if not t.up.(i) then begin
    t.up.(i) <- true;
    Bitset.add t.alive i;
    match t.hooks.(i) with Some h -> h.on_recover () | None -> ()
  end

let is_up t i =
  check_site t i;
  t.up.(i)

(* Copy rather than expose [t.alive]: callers (oracle detectors) may hold
   the snapshot across failure events or mutate it while planning. *)
let alive_view t = Bitset.copy t.alive

let partition t groups =
  Array.fill t.group 0 t.n 0;
  List.iteri
    (fun g sites ->
      List.iter
        (fun i ->
          check_site t i;
          t.group.(i) <- g + 1)
        sites)
    groups

let heal t = Array.fill t.group 0 t.n 0

let set_loss_rate t rate =
  if rate < 0.0 || rate >= 1.0 then
    invalid_arg "Network.set_loss_rate: loss_rate out of [0,1)";
  t.loss_rate <- rate

let count t name = Obs.Metrics.read counters t name
let per_site_delivered t = Array.map (fun c -> c.Obs.Metrics.value) t.site_delivered
