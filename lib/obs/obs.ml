module Metrics = Metrics
module Span = Span
module Sink = Sink

type t = {
  mutable clock : unit -> float;
  m : Metrics.t;
  mutable sinks : Sink.t list;
  mutable next_span_id : int;
  mutable n_started : int;
  mutable n_closed : int;
}

let create ?(clock = fun () -> 0.0) () =
  {
    clock;
    m = Metrics.create ();
    sinks = [];
    next_span_id = 0;
    n_started = 0;
    n_closed = 0;
  }

let set_clock t clock = t.clock <- clock
let now t = t.clock ()
let metrics t = t.m
let add_sink t sink = t.sinks <- t.sinks @ [ sink ]
let flush t = List.iter Sink.flush t.sinks

let incr_named t name =
  let c = Metrics.counter t.m name in
  c.value <- c.value + 1

let span t ~op ~site ?key () =
  let id = t.next_span_id in
  t.next_span_id <- id + 1;
  t.n_started <- t.n_started + 1;
  incr_named t ("ops." ^ op ^ ".started");
  {
    Span.id;
    op;
    site;
    key;
    started = now t;
    attempts = 1;
    backoff_total = 0.0;
    rev_phases = [];
    ended = None;
    outcome = None;
    result_ts = None;
  }

let set_result_ts _t (sp : Span.t) ~version ~sid =
  sp.Span.result_ts <- Some (version, sid)

let open_phase (sp : Span.t) =
  match sp.rev_phases with
  | ({ p_ended = None; _ } as p) :: _ -> Some p
  | _ -> None

let close_phase t (sp : Span.t) ~timed_out =
  match open_phase sp with
  | None -> ()
  | Some p ->
    let ended = now t in
    p.p_ended <- Some ended;
    if timed_out then p.timed_out <- true;
    let kind = Span.phase_kind_name p.kind in
    Metrics.observe
      (Metrics.histogram t.m ("phase." ^ kind ^ ".latency"))
      (ended -. p.p_started);
    if timed_out then incr_named t ("phase." ^ kind ^ ".timeout")

let phase t (sp : Span.t) ~kind ?(quorum = []) () =
  close_phase t sp ~timed_out:false;
  let p =
    { Span.kind; p_started = now t; p_ended = None; quorum; timed_out = false }
  in
  sp.rev_phases <- p :: sp.rev_phases

let set_quorum _t (sp : Span.t) quorum =
  match open_phase sp with None -> () | Some p -> p.quorum <- quorum

let end_phase t sp ?(timed_out = false) () = close_phase t sp ~timed_out

let retry t (sp : Span.t) ?(backoff = 0.0) () =
  close_phase t sp ~timed_out:true;
  sp.attempts <- sp.attempts + 1;
  sp.backoff_total <- sp.backoff_total +. backoff;
  incr_named t ("ops." ^ sp.op ^ ".retries");
  Metrics.observe (Metrics.histogram t.m "backoff.wait") backoff

let finish t (sp : Span.t) ~outcome =
  if not (Span.closed sp) then begin
    close_phase t sp ~timed_out:false;
    let ended = now t in
    sp.ended <- Some ended;
    sp.outcome <- Some outcome;
    t.n_closed <- t.n_closed + 1;
    (match outcome with
    | Span.Ok -> incr_named t ("ops." ^ sp.op ^ ".ok")
    | Span.Failed _ -> incr_named t ("ops." ^ sp.op ^ ".failed"));
    Metrics.observe
      (Metrics.histogram t.m ("ops." ^ sp.op ^ ".latency"))
      (ended -. sp.started);
    List.iter (fun s -> Sink.emit s sp) t.sinks
  end

let spans_started t = t.n_started
let spans_open t = t.n_started - t.n_closed
let spans_closed t = t.n_closed
