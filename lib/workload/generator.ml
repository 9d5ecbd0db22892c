module Rng = Dsutil.Rng

type op = Read of int | Write of int * string

type t = {
  rng : Rng.t;
  read_fraction : float;
  keys : Zipf.t;
  mutable next_payload : int;
}

let create ~rng ~read_fraction ~key_space ?(zipf_theta = 0.0) () =
  if read_fraction < 0.0 || read_fraction > 1.0 then
    invalid_arg "Generator.create: read_fraction out of [0,1]";
  {
    rng;
    read_fraction;
    keys = Zipf.create ~n:key_space ~theta:zipf_theta;
    next_payload = 0;
  }

let next t =
  let key = Zipf.sample t.keys t.rng in
  if Rng.bernoulli t.rng t.read_fraction then Read key
  else begin
    (* [Printf.sprintf "v%d"] would build the same bytes through a
       format interpreter, at ten times the allocation. *)
    let payload = "v" ^ string_of_int t.next_payload in
    t.next_payload <- t.next_payload + 1;
    Write (key, payload)
  end

let think_time t ~mean = Rng.exponential t.rng mean
