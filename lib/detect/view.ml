module Bitset = Dsutil.Bitset
module Network = Dsim.Network

type t = {
  alive : unit -> Bitset.t;
  observe : int -> unit;
  suspect : int -> unit;
}

let oracle ~net ~self ~n =
  let view = Bitset.create n in
  let alive () =
    Bitset.clear view;
    for i = 0 to n - 1 do
      if Network.is_up net i && Network.reachable net self i then
        Bitset.add view i
    done;
    view
  in
  { alive; observe = ignore; suspect = ignore }
