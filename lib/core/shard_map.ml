type strategy = Hash | Range

let strategy_to_string = function Hash -> "hash" | Range -> "range"

type t = {
  strategy : strategy;
  key_space : int;
  owner : int array;  (* key -> shard id *)
  mutable n_shards : int;  (* ids allocated so far *)
  mutable active : bool array;  (* id -> participates in routing *)
}

(* SplitMix64 finalizer over (seed, key): a pure, platform-independent
   mixer, so hash assignment is identical on every run and machine. *)
let mix ~seed key =
  let z =
    let open Int64 in
    let z = add (of_int key) (mul (of_int (seed + 1)) 0x9E3779B97F4A7C15L) in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)
  in
  (* to_int keeps the low 63 bits; mask the sign away so [mod] stays
     non-negative. *)
  Int64.to_int z land max_int

let create ~strategy ~shards ~key_space ~seed () =
  if shards < 1 then invalid_arg "Shard_map.create: shards must be >= 1";
  if key_space < 1 then invalid_arg "Shard_map.create: key_space must be >= 1";
  let owner =
    match strategy with
    | Hash when shards = 1 -> Array.make key_space 0
    | Hash -> Array.init key_space (fun k -> mix ~seed k mod shards)
    | Range ->
      (* [shards] contiguous blocks; the first (key_space mod shards)
         blocks take one extra key. *)
      let base = key_space / shards and extra = key_space mod shards in
      let owner = Array.make key_space 0 in
      let k = ref 0 in
      for s = 0 to shards - 1 do
        let len = base + (if s < extra then 1 else 0) in
        for _ = 1 to len do
          owner.(!k) <- s;
          incr k
        done
      done;
      owner
  in
  { strategy; key_space; owner; n_shards = shards;
    active = Array.make shards true }

let shards t = t.n_shards
let strategy t = t.strategy

let route t key =
  if key < 0 || key >= t.key_space then invalid_arg "Shard_map.route: key out of range";
  t.owner.(key)

let is_active t s = s >= 0 && s < Array.length t.active && t.active.(s)

let active t =
  List.filter (is_active t) (List.init t.n_shards Fun.id)

let keys_of t s =
  let acc = ref [] in
  for k = t.key_space - 1 downto 0 do
    if t.owner.(k) = s then acc := k :: !acc
  done;
  !acc

let counts t =
  let c = Array.make t.n_shards 0 in
  Array.iter (fun s -> c.(s) <- c.(s) + 1) t.owner;
  c

let snapshot t = Array.copy t.owner

type change = {
  action : [ `Split | `Merge ];
  source : int;
  target : int;
  moved : int list;
}

let alloc_id t =
  let id = t.n_shards in
  t.n_shards <- t.n_shards + 1;
  if t.n_shards > Array.length t.active then begin
    let grown = Array.make (2 * t.n_shards) false in
    Array.blit t.active 0 grown 0 (Array.length t.active);
    t.active <- grown
  end;
  id

let plan_split t ~shard =
  if not (is_active t shard) then
    invalid_arg "Shard_map.plan_split: source shard not active";
  let keys = keys_of t shard in
  let moved =
    match t.strategy with
    | Hash ->
      (* Every other key (by ascending position): keeps both halves
         hash-scattered, so skewed key popularity still splits roughly in
         half. *)
      List.filteri (fun i _ -> i land 1 = 1) keys
    | Range ->
      (* Upper half of the contiguous range. *)
      let n = List.length keys in
      List.filteri (fun i _ -> i >= n - (n / 2)) keys
  in
  let target = alloc_id t in
  { action = `Split; source = shard; target; moved }

let plan_merge t ~into ~from_ =
  if into = from_ then invalid_arg "Shard_map.plan_merge: into = from_";
  if not (is_active t into && is_active t from_) then
    invalid_arg "Shard_map.plan_merge: both shards must be active";
  (match t.strategy with
  | Hash -> ()
  | Range ->
    (* The merged key set must stay contiguous. *)
    let keys = List.sort Int.compare (keys_of t into @ keys_of t from_) in
    let contiguous =
      match keys with
      | [] -> true
      | first :: _ ->
        List.for_all2 ( = ) keys (List.init (List.length keys) (fun i -> first + i))
    in
    if not contiguous then
      invalid_arg "Shard_map.plan_merge: ranges not adjacent");
  { action = `Merge; source = from_; target = into; moved = keys_of t from_ }

let commit t change =
  List.iter
    (fun k ->
      if t.owner.(k) <> change.source then
        invalid_arg "Shard_map.commit: stale plan (key no longer at source)";
      t.owner.(k) <- change.target)
    change.moved;
  (match change.action with
  | `Split -> t.active.(change.target) <- true
  | `Merge -> t.active.(change.source) <- false)

let well_formed t =
  let owners_ok = Array.for_all (fun s -> is_active t s) t.owner in
  owners_ok
  &&
  match t.strategy with
  | Hash -> true
  | Range ->
    List.for_all
      (fun s ->
        match keys_of t s with
        | [] -> true
        | first :: _ as keys ->
          List.for_all2 ( = ) keys
            (List.init (List.length keys) (fun i -> first + i)))
      (active t)
