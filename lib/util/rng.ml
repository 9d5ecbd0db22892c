(* SplitMix64 (Steele, Lea, Flood: "Fast splittable PRNGs"), computed on
   32-bit limbs held in native ints.  Without flambda every [Int64]
   operation allocates a box, and the simulator draws from this generator
   on every message, every think pause and every quorum choice — so the
   hot path (int/float/bool/exponential) must not touch [Int64] at all.
   Each 64-bit quantity is (hi, lo), both in [0, 2^32); OCaml's native
   ints wrap modulo 2^63 and 2^32 divides 2^63, so products and sums may
   wrap freely wherever only the low 32 bits are kept.  The sequences are
   bit-identical to the Int64 formulation (test/test_rng.ml checks this
   against an Int64 reference). *)

type t = {
  mutable s_hi : int;
  mutable s_lo : int;
  mutable g_hi : int;
  mutable g_lo : int;
  (* result of the last finalizer application — a return slot, so helpers
     never allocate a pair *)
  mutable r_hi : int;
  mutable r_lo : int;
}

let mask32 = 0xFFFFFFFF

(* golden_gamma = 0x9E3779B97F4A7C15 *)
let golden_hi = 0x9E3779B9
let golden_lo = 0x7F4A7C15

(* r <- mix64 z, the SplitMix64 finalizer:
   z ^= z >>> 30; z *= 0xBF58476D1CE4E5B9;
   z ^= z >>> 27; z *= 0x94D049BB133111EB;
   z ^= z >>> 31. *)
let mix64_into t zh zl =
  let zh' = zh lsr 30 and zl' = ((zl lsr 30) lor (zh lsl 2)) land mask32 in
  let zh = zh lxor zh' and zl = zl lxor zl' in
  (* multiply by 0xBF58476D1CE4E5B9: split zl into 16-bit halves so the
     low-limb product's carry into the high limb is exact *)
  let bh = 0xBF58476D and bl = 0x1CE4E5B9 in
  let t0 = (zl land 0xFFFF) * bl and t1 = (zl lsr 16) * bl in
  let lo_full = t0 + ((t1 land 0xFFFF) lsl 16) in
  let carry = (lo_full lsr 32) + (t1 lsr 16) in
  let nl = lo_full land mask32 in
  let nh = ((zl * bh) + (zh * bl) + carry) land mask32 in
  let zh' = nh lsr 27 and zl' = ((nl lsr 27) lor (nh lsl 5)) land mask32 in
  let zh = nh lxor zh' and zl = nl lxor zl' in
  let bh = 0x94D049BB and bl = 0x133111EB in
  let t0 = (zl land 0xFFFF) * bl and t1 = (zl lsr 16) * bl in
  let lo_full = t0 + ((t1 land 0xFFFF) lsl 16) in
  let carry = (lo_full lsr 32) + (t1 lsr 16) in
  let nl = lo_full land mask32 in
  let nh = ((zl * bh) + (zh * bl) + carry) land mask32 in
  let zh' = nh lsr 31 and zl' = ((nl lsr 31) lor (nh lsl 1)) land mask32 in
  t.r_hi <- nh lxor zh';
  t.r_lo <- nl lxor zl'

(* r <- mix_gamma z, the distinct finalizer used to derive (odd) gammas:
   z ^= z >>> 33; z *= 0xFF51AFD7ED558CCD;
   z ^= z >>> 33; z *= 0xC4CEB9FE1A85EC53;
   z ^= z >>> 33; z |= 1. *)
let mix_gamma_into t zh zl =
  let zh = zh and zl = zl lxor (zh lsr 1) in
  let bh = 0xFF51AFD7 and bl = 0xED558CCD in
  let t0 = (zl land 0xFFFF) * bl and t1 = (zl lsr 16) * bl in
  let lo_full = t0 + ((t1 land 0xFFFF) lsl 16) in
  let carry = (lo_full lsr 32) + (t1 lsr 16) in
  let nl = lo_full land mask32 in
  let nh = ((zl * bh) + (zh * bl) + carry) land mask32 in
  let zh = nh and zl = nl lxor (nh lsr 1) in
  let bh = 0xC4CEB9FE and bl = 0x1A85EC53 in
  let t0 = (zl land 0xFFFF) * bl and t1 = (zl lsr 16) * bl in
  let lo_full = t0 + ((t1 land 0xFFFF) lsl 16) in
  let carry = (lo_full lsr 32) + (t1 lsr 16) in
  let nl = lo_full land mask32 in
  let nh = ((zl * bh) + (zh * bl) + carry) land mask32 in
  let zh = nh and zl = nl lxor (nh lsr 1) in
  t.r_hi <- zh;
  t.r_lo <- zl lor 1

(* Advance the state by gamma and leave mix64(state) in the return slot. *)
let next_mixed t =
  let lo = t.s_lo + t.g_lo in
  let hi = (t.s_hi + t.g_hi + (lo lsr 32)) land mask32 in
  let lo = lo land mask32 in
  t.s_hi <- hi;
  t.s_lo <- lo;
  mix64_into t hi lo

let create seed =
  let t = { s_hi = 0; s_lo = 0; g_hi = golden_hi; g_lo = golden_lo;
            r_hi = 0; r_lo = 0 }
  in
  (* the seed's 64-bit two's-complement image, as limbs *)
  let z = Int64.of_int seed in
  let zh = Int64.to_int (Int64.shift_right_logical z 32) in
  let zl = Int64.to_int (Int64.logand z 0xFFFFFFFFL) in
  mix64_into t zh zl;
  t.s_hi <- t.r_hi;
  t.s_lo <- t.r_lo;
  t

let split t =
  (* state' = mix64 (next_seed t); gamma' = mix_gamma (next_seed t) *)
  let lo = t.s_lo + t.g_lo in
  let hi = (t.s_hi + t.g_hi + (lo lsr 32)) land mask32 in
  let lo = lo land mask32 in
  t.s_hi <- hi;
  t.s_lo <- lo;
  mix64_into t hi lo;
  let s_hi = t.r_hi and s_lo = t.r_lo in
  let lo = t.s_lo + t.g_lo in
  let hi = (t.s_hi + t.g_hi + (lo lsr 32)) land mask32 in
  let lo = lo land mask32 in
  t.s_hi <- hi;
  t.s_lo <- lo;
  mix_gamma_into t hi lo;
  { s_hi; s_lo; g_hi = t.r_hi; g_lo = t.r_lo; r_hi = 0; r_lo = 0 }

let copy t =
  { s_hi = t.s_hi; s_lo = t.s_lo; g_hi = t.g_hi; g_lo = t.g_lo;
    r_hi = 0; r_lo = 0 }

let int64 t =
  next_mixed t;
  Int64.logor
    (Int64.shift_left (Int64.of_int t.r_hi) 32)
    (Int64.of_int t.r_lo)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's native int without touching the
     sign bit; modulo bias is negligible for our bounds. *)
  next_mixed t;
  let v = (t.r_hi lsl 30) lor (t.r_lo lsr 2) in
  v mod bound

(* 53 significant bits, uniform in [0, 2^53). *)
let bits53 t =
  next_mixed t;
  (t.r_hi lsl 21) lor (t.r_lo lsr 11)

let float t bound = float_of_int (bits53 t) /. 9007199254740992.0 *. bound

let bool t =
  next_mixed t;
  t.r_lo land 1 = 1

let bernoulli t p = float t 1.0 < p

let exponential t mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-300 else u in
  -.mean *. log u

let uniform_in t lo hi = lo +. float t (hi -. lo)

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
