module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng

let alive_at_level tree ~alive k =
  Array.to_list (Tree.replicas_at tree k)
  |> List.filter (Bitset.mem alive)

let read_quorum tree ~alive ~rng =
  let n = Tree.n tree in
  let q = Bitset.create n in
  let ok =
    List.for_all
      (fun k ->
        match alive_at_level tree ~alive k with
        | [] -> false
        | candidates ->
          Bitset.add q (Rng.pick rng (Array.of_list candidates));
          true)
      (Tree.physical_levels tree)
  in
  if ok then Some q else None

let write_quorum_of_level tree ~level =
  let replicas = Tree.replicas_at tree level in
  if Array.length replicas = 0 then
    invalid_arg "Quorums.write_quorum_of_level: logical level";
  Bitset.of_list (Tree.n tree) (Array.to_list replicas)

let level_fully_alive tree ~alive k =
  Array.for_all (Bitset.mem alive) (Tree.replicas_at tree k)

let write_quorum tree ~alive ~rng =
  let candidates =
    List.filter (level_fully_alive tree ~alive) (Tree.physical_levels tree)
  in
  match candidates with
  | [] -> None
  | _ ->
    let k = Rng.pick rng (Array.of_list candidates) in
    Some (write_quorum_of_level tree ~level:k)

let enumerate_read_quorums tree =
  let levels =
    List.map
      (fun k -> Array.to_list (Tree.replicas_at tree k))
      (Tree.physical_levels tree)
  in
  let rec product = function
    | [] -> Seq.return []
    | sites :: rest ->
      Seq.concat_map
        (fun site -> Seq.map (fun tail -> site :: tail) (product rest))
        (List.to_seq sites)
  in
  Seq.map (Bitset.of_list (Tree.n tree)) (product levels)

let enumerate_write_quorums tree =
  List.to_seq (Tree.physical_levels tree)
  |> Seq.map (fun k -> write_quorum_of_level tree ~level:k)

(* The packaged protocol routes through the precomputed quorum plan; the
   functions above remain the executable reference (same results, same RNG
   draws — see test/test_plan_cache.ml). *)
let protocol tree =
  Quorum.Protocol.pack
    (module struct
      type t = Plan_cache.t

      let name p = Printf.sprintf "Arbitrary(%s)" (Tree.to_spec (Plan_cache.tree p))
      let universe_size p = Tree.n (Plan_cache.tree p)
      let read_quorum p ~alive ~rng = Plan_cache.read_quorum p ~alive ~rng
      let write_quorum p ~alive ~rng = Plan_cache.write_quorum p ~alive ~rng

      (* Per-level assembly for pipelined reads rides the same plan (and
         the same draws) as whole-quorum assembly. *)
      let read_levels p =
        Some
          {
            Quorum.Protocol.n_levels = Plan_cache.n_levels p;
            level_site =
              (fun ~alive ~rng ~level ->
                Plan_cache.read_site p ~alive ~rng ~level);
          }
      let enumerate_read_quorums p = enumerate_read_quorums (Plan_cache.tree p)
      let enumerate_write_quorums p = enumerate_write_quorums (Plan_cache.tree p)
      let fork = Plan_cache.fork
    end)
    (Plan_cache.create tree)
