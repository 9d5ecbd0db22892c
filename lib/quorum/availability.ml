module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng

let random_alive rng ~n ~p =
  let s = Bitset.create n in
  for i = 0 to n - 1 do
    if Rng.bernoulli rng p then Bitset.add s i
  done;
  s

let exact_hetero ~n ~p pred =
  if n > 22 then invalid_arg "Availability.exact_hetero: n too large";
  let total = ref 0.0 in
  for mask = 0 to (1 lsl n) - 1 do
    let alive = Bitset.create n in
    let prob = ref 1.0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        Bitset.add alive i;
        prob := !prob *. p i
      end
      else prob := !prob *. (1.0 -. p i)
    done;
    if pred ~alive then total := !total +. !prob
  done;
  !total

let monte_carlo_hits ~trials ~rng ~n ~p pred =
  if trials <= 0 then invalid_arg "Availability.monte_carlo_hits: trials";
  let hits = ref 0 in
  for _ = 1 to trials do
    if pred ~alive:(random_alive rng ~n ~p) then incr hits
  done;
  !hits

let monte_carlo ~trials ~rng ~n ~p pred =
  float_of_int (monte_carlo_hits ~trials ~rng ~n ~p pred)
  /. float_of_int trials

let exact ~n ~p pred =
  if n > 22 then invalid_arg "Availability.exact: n too large";
  let total = ref 0.0 in
  for mask = 0 to (1 lsl n) - 1 do
    let alive = Bitset.create n in
    let prob = ref 1.0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        Bitset.add alive i;
        prob := !prob *. p
      end
      else prob := !prob *. (1.0 -. p)
    done;
    if pred ~alive then total := !total +. !prob
  done;
  !total

let read_availability_mc ~trials ~rng ~p proto =
  let n = Protocol.universe_size proto in
  monte_carlo ~trials ~rng ~n ~p (fun ~alive ->
      Protocol.read_quorum proto ~alive ~rng <> None)

let write_availability_mc ~trials ~rng ~p proto =
  let n = Protocol.universe_size proto in
  monte_carlo ~trials ~rng ~n ~p (fun ~alive ->
      Protocol.write_quorum proto ~alive ~rng <> None)

let read_availability_hits ~trials ~rng ~p proto =
  let n = Protocol.universe_size proto in
  monte_carlo_hits ~trials ~rng ~n ~p (fun ~alive ->
      Protocol.read_quorum proto ~alive ~rng <> None)

let write_availability_hits ~trials ~rng ~p proto =
  let n = Protocol.universe_size proto in
  monte_carlo_hits ~trials ~rng ~n ~p (fun ~alive ->
      Protocol.write_quorum proto ~alive ~rng <> None)
