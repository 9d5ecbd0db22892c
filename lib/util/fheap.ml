(* 4-ary min-heap specialized to float keys with FIFO tie-breaking — the
   simulator's event queue.  The generic {!Heap} stores one boxed record
   and one boxed float per entry; at millions of events per run that is
   the single largest allocation source in the simulator.  Here keys live
   in a flat float array and payloads in plain arrays, so a push
   allocates nothing (amortized: the arrays double).

   Each entry carries a handler ['h], an int [meta] and a payload ['p]:
   the split lets callers schedule preallocated handlers with per-event
   scalar/pointer arguments instead of allocating a closure per event
   (the dominant cost of a message send).

   Entries are totally ordered by (time, insertion sequence) — a strict
   total order, so the pop order is a function of the ordering alone:
   identical to [Heap.create ~compare:Float.compare] and independent of
   heap arity or layout.  Three compiled-code effects shape the layout:

   - The heap proper is (time, seq, slot) in three scalar arrays; the
     handler/meta/payload live in side arrays indexed by [slot] and never
     move while queued.  Sifting therefore shuffles only unboxed floats
     and ints — no pointer stores, so no [caml_modify] write barrier per
     sift level (the barrier was ~10% of simulator CPU when sifts moved
     the pointer arrays directly).
   - The library is compiled with [-opaque], so nothing is inlined
     across modules and a float crossing a {e module} boundary is boxed
     (without flambda, a function call inside this module boxes it too).
     Keys therefore enter and leave through a caller-owned [Float.Array]
     slot — [push] reads the key from one, [pop_apply] writes the popped
     time into one — and each sift loads its key into locals and runs to
     completion in one function body, so the floats stay in registers.
   - Array reads are bounds-checked, so the inner loops use unsafe
     accessors; every index is bounded by [size] (or comes off the free
     list), both bounded by the shared capacity. *)

type ('h, 'p) t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;  (* heap order -> satellite slot *)
  mutable hs : 'h array;  (* indexed by slot, fixed while queued *)
  mutable metas : int array;
  mutable ps : 'p array;
  mutable free : int array;  (* free satellite slots, a stack *)
  mutable free_n : int;
  mutable size : int;
  mutable next_seq : int;
  dummy_h : 'h;  (* fill released slots so popped payloads are not retained *)
  dummy_p : 'p;
}

let create ~dummy_h ~dummy_p =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    hs = [||];
    metas = [||];
    ps = [||];
    free = [||];
    free_n = 0;
    size = 0;
    next_seq = 0;
    dummy_h;
    dummy_p;
  }

let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let nt = Array.make ncap 0.0
  and ns = Array.make ncap 0
  and nsl = Array.make ncap 0
  and nh = Array.make ncap t.dummy_h
  and nm = Array.make ncap 0
  and np = Array.make ncap t.dummy_p
  and nf = Array.make ncap 0 in
  Array.blit t.times 0 nt 0 t.size;
  Array.blit t.seqs 0 ns 0 t.size;
  Array.blit t.slots 0 nsl 0 t.size;
  Array.blit t.hs 0 nh 0 cap;
  Array.blit t.metas 0 nm 0 cap;
  Array.blit t.ps 0 np 0 cap;
  Array.blit t.free 0 nf 0 t.free_n;
  (* the new slots [cap, ncap) are all free *)
  for i = cap to ncap - 1 do
    nf.(t.free_n + (i - cap)) <- i
  done;
  t.free_n <- t.free_n + (ncap - cap);
  t.times <- nt;
  t.seqs <- ns;
  t.slots <- nsl;
  t.hs <- nh;
  t.metas <- nm;
  t.ps <- np;
  t.free <- nf

(* Hole sift-up of the entry at heap index [i]: key and slot ride in
   locals while the hole bubbles toward the root, each displaced ancestor
   written once — floats and ints only. *)
let sift_up t i =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let time = Array.unsafe_get times i
  and seq = Array.unsafe_get seqs i
  and slot = Array.unsafe_get slots i in
  let hole = ref i in
  let continue = ref true in
  while !continue && !hole > 0 do
    let parent = (!hole - 1) / 4 in
    let pt = Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set times !hole pt;
      Array.unsafe_set seqs !hole (Array.unsafe_get seqs parent);
      Array.unsafe_set slots !hole (Array.unsafe_get slots parent);
      hole := parent
    end
    else continue := false
  done;
  if !hole <> i then begin
    let j = !hole in
    Array.unsafe_set times j time;
    Array.unsafe_set seqs j seq;
    Array.unsafe_set slots j slot
  end

let push t key h meta p =
  let time = Float.Array.get key 0 in
  if t.size = Array.length t.times then grow t;
  (* take a satellite slot and park the entry's cargo there *)
  t.free_n <- t.free_n - 1;
  let slot = Array.unsafe_get t.free t.free_n in
  t.hs.(slot) <- h;
  t.metas.(slot) <- meta;
  t.ps.(slot) <- p;
  let i = t.size in
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.slots.(i) <- slot;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t i

let min_key t =
  if t.size = 0 then invalid_arg "Fheap.min_key: empty heap"
  else t.times.(0)

let min_le t limit = t.size > 0 && t.times.(0) <= limit

(* Hole sift-down from the root of the entry currently stored at the
   root heap index. *)
let sift_down_root t =
  let size = t.size in
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let time = Array.unsafe_get times 0
  and seq = Array.unsafe_get seqs 0
  and slot = Array.unsafe_get slots 0 in
  let hole = ref 0 in
  let continue = ref true in
  while !continue do
    let base = (4 * !hole) + 1 in
    if base >= size then continue := false
    else begin
      (* smallest of up to four children *)
      let last = min (base + 3) (size - 1) in
      let best = ref base in
      let bt = ref (Array.unsafe_get times base) in
      let bs = ref (Array.unsafe_get seqs base) in
      for c = base + 1 to last do
        let ct = Array.unsafe_get times c in
        if ct < !bt || (ct = !bt && Array.unsafe_get seqs c < !bs) then begin
          best := c;
          bt := ct;
          bs := Array.unsafe_get seqs c
        end
      done;
      if !bt < time || (!bt = time && !bs < seq) then begin
        let b = !best and hl = !hole in
        Array.unsafe_set times hl !bt;
        Array.unsafe_set seqs hl !bs;
        Array.unsafe_set slots hl (Array.unsafe_get slots b);
        hole := b
      end
      else continue := false
    end
  done;
  if !hole <> 0 then begin
    let j = !hole in
    Array.unsafe_set times j time;
    Array.unsafe_set seqs j seq;
    Array.unsafe_set slots j slot
  end

(* Pop the minimum, store its time in [clock.(0)] and hand (handler,
   meta, payload) to [f] — no option, no pair, no boxed float. *)
let pop_apply t clock f =
  if t.size = 0 then false
  else begin
    Float.Array.set clock 0 t.times.(0);
    let slot = t.slots.(0) in
    let h = t.hs.(slot)
    and meta = t.metas.(slot)
    and p = t.ps.(slot) in
    (* release the satellite slot (dummies so cargo is not retained) *)
    t.hs.(slot) <- t.dummy_h;
    t.ps.(slot) <- t.dummy_p;
    t.free.(t.free_n) <- slot;
    t.free_n <- t.free_n + 1;
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      t.times.(0) <- t.times.(n);
      t.seqs.(0) <- t.seqs.(n);
      t.slots.(0) <- t.slots.(n);
      sift_down_root t
    end;
    f h meta p;
    true
  end

let clear t =
  for i = 0 to t.size - 1 do
    let slot = t.slots.(i) in
    t.hs.(slot) <- t.dummy_h;
    t.ps.(slot) <- t.dummy_p;
    t.free.(t.free_n) <- slot;
    t.free_n <- t.free_n + 1
  done;
  t.size <- 0
