type t = { capacity : int; words : int array }

let bits_per_word = 63

let words_for cap = (cap + bits_per_word - 1) / bits_per_word

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { capacity; words = Array.make (max 1 (words_for capacity)) 0 }

let capacity t = t.capacity
let copy t = { capacity = t.capacity; words = Array.copy t.words }

let check t i =
  if i < 0 || i >= t.capacity then
    invalid_arg (Printf.sprintf "Bitset: index %d out of [0,%d)" i t.capacity)

let add t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let remove t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let same_cap a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let intersects a b =
  same_cap a b;
  let n = Array.length a.words in
  let rec go i = i < n && (a.words.(i) land b.words.(i) <> 0 || go (i + 1)) in
  go 0

let subset a b =
  same_cap a b;
  let n = Array.length a.words in
  let rec go i = i >= n || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1)) in
  go 0

let equal a b = a.capacity = b.capacity && a.words = b.words

let map2 f a b =
  same_cap a b;
  { capacity = a.capacity; words = Array.map2 f a.words b.words }

let union a b = map2 ( lor ) a b
let inter a b = map2 ( land ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

let iter f t =
  for i = 0 to t.capacity - 1 do
    if mem t i then f i
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let fill_elements t buf =
  let c = ref 0 in
  let nw = Array.length t.words in
  for w = 0 to nw - 1 do
    let bits = ref t.words.(w) in
    let base = w * bits_per_word in
    while !bits <> 0 do
      let low = !bits land - !bits in
      (* index of the lowest set bit *)
      let b = popcount (low - 1) in
      buf.(!c) <- base + b;
      incr c;
      bits := !bits land lnot low
    done
  done;
  !c

let of_list capacity l =
  let t = create capacity in
  List.iter (add t) l;
  t

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (elements t)
