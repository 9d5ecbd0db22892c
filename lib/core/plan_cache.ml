module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng

type t = {
  tree : Tree.t;
  n : int;
  replicas : int array array;  (* per physical level, ascending level order *)
  write_masks : Bitset.t array;  (* full level as a bitset, same order *)
  write_results : Bitset.t option array;  (* [Some] of each write mask *)
  full : Bitset.t;  (* the whole universe *)
  read : Bitset.t;  (* the read quorum, refilled by every call *)
  read_result : Bitset.t option;  (* [Some read] *)
  scratch : int array;  (* candidate buffer, max level size *)
  level_scratch : int array;  (* fully-alive level indexes, |K_phy| *)
}

let create tree =
  let levels = Array.of_list (Tree.physical_levels tree) in
  let replicas = Array.map (Tree.replicas_at tree) levels in
  let n = Tree.n tree in
  let write_masks =
    Array.map
      (fun reps ->
        let m = Bitset.create n in
        Array.iter (Bitset.add m) reps;
        m)
      replicas
  in
  let full = Bitset.create n in
  for i = 0 to n - 1 do
    Bitset.add full i
  done;
  let widest = Array.fold_left (fun acc r -> max acc (Array.length r)) 1 replicas in
  let read = Bitset.create n in
  {
    tree;
    n;
    replicas;
    write_masks;
    write_results = Array.map Option.some write_masks;
    full;
    read;
    read_result = Some read;
    scratch = Array.make widest 0;
    level_scratch = Array.make (max 1 (Array.length replicas)) 0;
  }

let tree t = t.tree

(* The per-level arrays and masks are never written after [create], so a
   fork shares them; only the buffers a call writes are its own. *)
let fork t =
  let read = Bitset.create t.n in
  {
    t with
    read;
    read_result = Some read;
    scratch = Array.make (Array.length t.scratch) 0;
    level_scratch = Array.make (Array.length t.level_scratch) 0;
  }

(* Both selectors draw exactly like the reference implementation: the
   reference runs [Rng.pick rng candidates], a single bounded [Rng.int]
   with bound = |candidates|, and skips the draw entirely for levels after
   the first empty one (reads) or when no level is fully alive (writes). *)

(* The site level [level] contributes, or -1 when none of its replicas is
   alive: [fast] (everything alive) skips the candidate filter.  A
   top-level function over explicit arguments, so a quorum assembly
   allocates no closure. *)
let level_site t ~alive ~rng ~fast level =
  let reps = t.replicas.(level) in
  if fast then reps.(Rng.int rng (Array.length reps))
  else begin
    let c = ref 0 in
    for j = 0 to Array.length reps - 1 do
      let s = Array.unsafe_get reps j in
      if Bitset.mem alive s then begin
        Array.unsafe_set t.scratch !c s;
        incr c
      end
    done;
    if !c = 0 then -1 else t.scratch.(Rng.int rng !c)
  end

(* Both quorum functions return a result owned by the plan: [read_quorum]
   refills one bitset, [write_quorum] hands out a level's mask, each in a
   preallocated [Some], so an assembly allocates nothing. *)
let read_quorum t ~alive ~rng =
  let q = t.read in
  Bitset.clear q;
  let fast = Bitset.equal alive t.full in
  let n_levels = Array.length t.replicas in
  let level = ref 0 and site = ref 0 in
  while !site >= 0 && !level < n_levels do
    site := level_site t ~alive ~rng ~fast !level;
    if !site >= 0 then begin
      Bitset.add q !site;
      incr level
    end
  done;
  if !site >= 0 then t.read_result else None

let n_levels t = Array.length t.replicas

(* One level of [read_quorum], for tree-level pipelined reads: same
   candidate filtering, same single bounded draw (bound = alive candidate
   count), so a caller walking levels 0..n_levels-1 in order consumes the
   RNG exactly as one [read_quorum] call would — stopping, like it, at
   the first level with no alive candidate (returned as -1). *)
let read_site t ~alive ~rng ~level =
  level_site t ~alive ~rng ~fast:(Bitset.equal alive t.full) level

let write_quorum t ~alive ~rng =
  let n_levels = Array.length t.replicas in
  if Bitset.equal alive t.full then t.write_results.(Rng.int rng n_levels)
  else begin
    let c = ref 0 in
    for i = 0 to n_levels - 1 do
      if Bitset.subset t.write_masks.(i) alive then begin
        t.level_scratch.(!c) <- i;
        incr c
      end
    done;
    if !c = 0 then None
    else t.write_results.(t.level_scratch.(Rng.int rng !c))
  end
