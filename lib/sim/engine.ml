module Fheap = Dsutil.Fheap
module Rng = Dsutil.Rng

(* An event is (handler, meta, payload): closure events use the shared
   [run_closure] handler with the closure as payload, while hot callers
   (message delivery, per-op timeouts) keep ONE preallocated handler and
   thread per-event arguments through the int [meta] and the [payload]
   slot — no per-event closure, no per-event allocation at all.

   Times never cross a module boundary as floats: the library is built
   with [-opaque], so each would be boxed.  The clock is a one-slot float
   array the heap's pop writes directly, and every scheduling entry point
   leaves the event's absolute time in [slot], from which the heap's push
   reads it.  [schedule_slot] lets a caller write its delay into [slot]
   itself, so a delay computed in another module never becomes a float
   argument either. *)
type handler = { run : int -> Obj.t -> unit }

type t = {
  clock : Float.Array.t;  (* [| now |] *)
  slot : Float.Array.t;  (* [| delay |] from callers, [| time |] to the heap *)
  queue : (handler, Obj.t) Fheap.t;
  rng : Rng.t;
}

let run_closure = { run = (fun _ p -> (Obj.obj p : unit -> unit) ()) }
let dummy_handler = { run = (fun _ _ -> ()) }

let create ?(seed = 42) () =
  {
    clock = Float.Array.make 1 0.0;
    slot = Float.Array.make 1 0.0;
    queue = Fheap.create ~dummy_h:dummy_handler ~dummy_p:(Obj.repr 0);
    rng = Rng.create seed;
  }

let now t = Float.Array.get t.clock 0
let clock t = t.clock
let delay_slot t = t.slot
let rng t = t.rng

(* The one scheduling path: [slot] holds the event's delay; turn it into
   an absolute time in place and queue the event. *)
let push_delayed t ~what h meta p =
  let delay = Float.Array.get t.slot 0 in
  if delay < 0.0 then invalid_arg what;
  Float.Array.set t.slot 0 (Float.Array.get t.clock 0 +. delay);
  Fheap.push t.queue t.slot h meta p

let schedule_slot t h ~meta ~payload =
  push_delayed t ~what:"Engine.schedule_slot: negative delay" h meta payload

let schedule_packed t ~delay h ~meta ~payload =
  Float.Array.set t.slot 0 delay;
  push_delayed t ~what:"Engine.schedule_packed: negative delay" h meta payload

let schedule t ~delay f =
  Float.Array.set t.slot 0 delay;
  push_delayed t ~what:"Engine.schedule: negative delay" run_closure 0
    (Obj.repr f)

let schedule_at t ~time f =
  if time < now t then invalid_arg "Engine.schedule_at: time in the past";
  Float.Array.set t.slot 0 time;
  Fheap.push t.queue t.slot run_closure 0 (Obj.repr f)

let handler run = { run }

let advance h meta p = h.run meta p
let step t = Fheap.pop_apply t.queue t.clock advance

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    (* [Fheap.min_le] compares the head key in place: a peek that returned
       the key would box a float per event. *)
    while Fheap.min_le t.queue limit do
      ignore (step t)
    done;
    (* Advance the clock to the horizon so repeated bounded runs compose. *)
    if now t < limit && Fheap.is_empty t.queue then
      Float.Array.set t.clock 0 limit

let pending t = Fheap.length t.queue
