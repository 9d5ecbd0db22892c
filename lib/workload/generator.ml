module Rng = Dsutil.Rng

type op = Read of int | Write of int * string

type t = {
  rng : Rng.t;
  read_fraction : float;
  keys : Zipf.t;
  mutable next_payload : int;
}

let create ~rng ~read_fraction ~keys =
  (* Written so that NaN fails the check too. *)
  if not (read_fraction >= 0.0 && read_fraction <= 1.0) then
    invalid_arg "Generator.create: read_fraction out of [0,1]";
  { rng; read_fraction; keys; next_payload = 0 }

let next t =
  let key = Zipf.sample t.keys t.rng in
  (* [Rng.bernoulli t.rng t.read_fraction], rebuilt from the raw bits so
     the uniform draw is not a boxed float. *)
  if float_of_int (Rng.bits53 t.rng) /. 9007199254740992.0 < t.read_fraction
  then Read key
  else begin
    (* [Printf.sprintf "v%d"] would build the same bytes through a
       format interpreter, at ten times the allocation. *)
    let payload = "v" ^ string_of_int t.next_payload in
    t.next_payload <- t.next_payload + 1;
    Write (key, payload)
  end

let think_time t ~mean = Rng.exponential t.rng mean
