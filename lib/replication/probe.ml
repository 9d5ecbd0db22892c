let empty = min_int

(* Multiplicative hashing spreads keys in arithmetic progression (dense
   key ids, op ids that step by the network size) over the table. *)
let home keys key =
  ((key * 0x9E3779B97F4A7C1) lsr 20) land (Array.length keys - 1)

let slot keys key =
  let mask = Array.length keys - 1 in
  let i = ref (home keys key) in
  while
    let k = Array.unsafe_get keys !i in
    k <> key && k <> empty
  do
    i := (!i + 1) land mask
  done;
  !i

let next_shift keys hole =
  let mask = Array.length keys - 1 in
  let j = ref ((hole + 1) land mask) and found = ref (-1) in
  while !found < 0 && keys.(!j) <> empty do
    let h = home keys keys.(!j) and jj = !j in
    (* [h] cyclically in (hole, jj]: the entry stays where it is *)
    if if hole <= jj then hole < h && h <= jj else hole < h || h <= jj then
      j := (jj + 1) land mask
    else found := jj
  done;
  !found
