module Bitset = Dsutil.Bitset
module Engine = Dsim.Engine

type config = { period : float }

type t = {
  engine : Engine.t;
  n : int;
  config : config;
  accrual : Accrual.t;
  explicit_suspects : bool array;  (* protocol-level suspicion, sticky
                                      until the site speaks again *)
  send_ping : int -> unit;
  mutable pings_sent : int;
  mutable stopped : bool;
}

let rec tick t () =
  if not t.stopped then begin
    for site = 0 to t.n - 1 do
      t.send_ping site;
      t.pings_sent <- t.pings_sent + 1
    done;
    Engine.schedule t.engine ~delay:t.config.period (tick t)
  end

let create ~engine ~n ~config ~send_ping () =
  if config.period <= 0.0 then
    invalid_arg "Heartbeat.create: period must be positive";
  let t =
    {
      engine;
      n;
      config;
      accrual = Accrual.create ~n ();
      explicit_suspects = Array.make n false;
      send_ping;
      pings_sent = 0;
      stopped = false;
    }
  in
  tick t ();
  t

let check t site = if site < 0 || site >= t.n then invalid_arg "Heartbeat: bad site"

let observe t ~site =
  check t site;
  t.explicit_suspects.(site) <- false;
  Accrual.heartbeat t.accrual ~site ~now:(Engine.now t.engine)

let suspect t ~site =
  check t site;
  t.explicit_suspects.(site) <- true

let suspected t ~site =
  check t site;
  t.explicit_suspects.(site)
  || Accrual.suspected t.accrual ~site ~now:(Engine.now t.engine)

let alive t () =
  let view = Bitset.create t.n in
  for site = 0 to t.n - 1 do
    if not (suspected t ~site) then Bitset.add view site
  done;
  view

let view t =
  {
    View.alive = alive t;
    observe = (fun site -> observe t ~site);
    suspect = (fun site -> suspect t ~site);
  }

let pings_sent t = t.pings_sent
let stop t = t.stopped <- true
