(* Per-layer replays: each layer's public functions timed on inputs derived
   from a workload (its tree, key distribution, client count, latency, loss
   and service settings), plus the counting protocol wrapper the traced run
   uses to count quorum assemblies at the plan-cache boundary. *)

module Rng = Dsutil.Rng
module Engine = Dsim.Engine
module Network = Dsim.Network
module Tree = Arbitrary.Tree
module Store = Replication.Store
module Wal = Replication.Wal
module Lock_manager = Replication.Lock_manager

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k = 0 then 0.0
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

type ctx = {
  tree : Tree.t;
  clients : int;
  key_space : int;
  zipf_theta : float;
  read_fraction : float;
  latency : Dsim.Latency.t;
  loss_rate : float;
  service_time : float;
  degraded : bool;  (** one replica down, as under the faults schedule *)
  shards : int;
  batch : int;  (** WAL records per group commit *)
  seed : int;
  scale : float;  (** multiplies every call count; < 1 for smoke runs *)
}

type cost = { ns : float; words : float }

(* Median over three repetitions of CPU ns and minor words per call.
   [prepare ()] builds untimed state and returns the timed thunk, which
   reports how many calls it made. *)
let per_call prepare =
  let samples =
    List.init 3 (fun _ ->
        let go = prepare () in
        let w0 = Gc.minor_words () in
        let t0 = cpu () in
        let calls = go () in
        let dt = cpu () -. t0 in
        let dw = Gc.minor_words () -. w0 in
        let calls = float_of_int (max 1 calls) in
        (dt *. 1e9 /. calls, dw /. calls))
  in
  { ns = median (List.map fst samples); words = median (List.map snd samples) }

let count ctx base = max 1 (int_of_float (float_of_int base *. ctx.scale))

(* The in-flight depth the engine and network see: every client waiting on
   its largest quorum. *)
let depth ctx =
  ctx.clients
  * max (Arbitrary.Analysis.read_cost ctx.tree) (Arbitrary.Analysis.write_cost_max ctx.tree)

let mask = 4095

(* 4096 keys drawn from the workload's key distribution. *)
let keys ctx =
  let z = Workload.Zipf.create ~n:ctx.key_space ~theta:ctx.zipf_theta in
  let rng = Rng.create ctx.seed in
  Array.init (mask + 1) (fun _ -> Workload.Zipf.sample z rng)

let engine ctx =
  let rng = Rng.create ctx.seed in
  let delays = Array.init (mask + 1) (fun _ -> Rng.exponential rng 1.0) in
  let events = count ctx 1_000_000 and depth = depth ctx in
  per_call (fun () ->
      let eng = Engine.create ~seed:ctx.seed () in
      let left = ref events in
      let h = ref (Engine.handler (fun _ _ -> ())) in
      h :=
        Engine.handler (fun meta payload ->
            if !left > 0 then begin
              decr left;
              Engine.schedule_packed eng ~delay:delays.(!left land mask) !h
                ~meta:(meta + 1) ~payload
            end);
      for i = 1 to depth do
        Engine.schedule_packed eng ~delay:delays.(i land mask) !h ~meta:0
          ~payload:(Obj.repr 0)
      done;
      fun () ->
        Engine.run eng;
        events + depth)

(* Send→deliver, alternating client→replica requests (through the service
   queues when the workload has them) and replica→client replies, in rounds
   of the workload's in-flight depth. *)
let network ctx =
  let n = Tree.n ctx.tree in
  let rng = Rng.create ctx.seed in
  let replicas = Array.init (mask + 1) (fun _ -> Rng.int rng n) in
  let depth = depth ctx in
  let rounds = max 1 (count ctx 200_000 / depth) in
  per_call (fun () ->
      let eng = Engine.create ~seed:ctx.seed () in
      let net =
        Network.create ~engine:eng ~n:(n + ctx.clients) ~latency:ctx.latency
          ~loss_rate:ctx.loss_rate ()
      in
      if ctx.service_time > 0.0 then
        for site = 0 to n - 1 do
          Network.set_service net ~site ~service_time:ctx.service_time ()
        done;
      for site = 0 to n + ctx.clients - 1 do
        Network.set_handler net ~site (fun ~src:_ () -> ())
      done;
      fun () ->
        for r = 0 to rounds - 1 do
          for i = 0 to depth - 1 do
            let replica = replicas.(((r * depth) + i) land mask) in
            let client = n + (i mod ctx.clients) in
            if i land 1 = 0 then Network.send net ~src:client ~dst:replica ()
            else Network.send net ~src:replica ~dst:client ()
          done;
          Engine.run eng
        done;
        rounds * depth)

let alive ctx =
  let s = Quorum.Protocol.all_alive (Arbitrary.Quorums.protocol ctx.tree) in
  if ctx.degraded then begin
    let levels = Tree.physical_levels ctx.tree in
    let deepest = List.nth levels (List.length levels - 1) in
    Dsutil.Bitset.remove s (Tree.replicas_at ctx.tree deepest).(0)
  end;
  s

let plan_cache ctx =
  let plan = Arbitrary.Plan_cache.create ctx.tree in
  let alive = alive ctx in
  let calls = count ctx 200_000 in
  let time assemble =
    per_call (fun () ->
        let rng = Rng.create ctx.seed in
        fun () ->
          for _ = 1 to calls do
            ignore (Sys.opaque_identity (assemble plan ~alive ~rng))
          done;
          calls)
  in
  ( time (fun p ~alive ~rng -> Arbitrary.Plan_cache.read_quorum p ~alive ~rng),
    time (fun p ~alive ~rng -> Arbitrary.Plan_cache.write_quorum p ~alive ~rng) )

(* A lookup is what a replica does to serve one key: version, sid and
   value.  An install is the 2PC path for one key: stage, then commit. *)
let store ctx keys =
  let filled () =
    let st = Store.create () in
    Array.iter
      (fun key -> ignore (Store.install_flat st ~key ~version:1 ~sid:0 ~value:"v"))
      keys;
    st
  in
  let lookups = count ctx 2_000_000 and installs = count ctx 500_000 in
  let lookup =
    per_call (fun () ->
        let st = filled () in
        fun () ->
          let acc = ref 0 in
          for i = 0 to lookups - 1 do
            let key = keys.(i land mask) in
            acc :=
              !acc + Store.version_of st ~key + Store.sid_of st ~key
              + String.length (Store.value_of st ~key)
          done;
          ignore (Sys.opaque_identity !acc);
          lookups)
  in
  let install =
    per_call (fun () ->
        let st = filled () in
        fun () ->
          for op = 0 to installs - 1 do
            Store.stage_flat st ~op ~key:keys.(op land mask) ~version:(op + 2)
              ~sid:0 ~value:"v";
            ignore (Store.commit_staged st ~op)
          done;
          installs)
  in
  (lookup, install)

let wal ctx keys =
  let m = count ctx 300_000 in
  let records =
    Array.init m (fun op ->
        Wal.Commit
          {
            op;
            key = keys.(op land mask);
            ts = Replication.Timestamp.make ~version:(op + 1) ~sid:0;
            value = "v";
          })
  in
  let fresh () = Wal.create ~policy:Wal.Sync_on_commit ~now:(fun () -> 0.0) () in
  let append =
    per_call (fun () ->
        let w = fresh () in
        fun () ->
          Array.iter (Wal.append w) records;
          m)
  in
  let batches =
    List.init
      ((m + ctx.batch - 1) / ctx.batch)
      (fun b ->
        List.init
          (min ctx.batch (m - (b * ctx.batch)))
          (fun i -> records.((b * ctx.batch) + i)))
  in
  let batch =
    per_call (fun () ->
        let w = fresh () in
        fun () ->
          List.iter (Wal.append_batch w) batches;
          m)
  in
  let replay =
    per_call (fun () ->
        let w = fresh () in
        Array.iter (Wal.append w) records;
        fun () -> Wal.replay w (Store.create ()))
  in
  (append, batch, replay)

(* One round: every client takes the lock of its next key (shared for a
   read, exclusive for a write) and releases it on grant. *)
let lock_manager ctx keys =
  let rng = Rng.create ctx.seed in
  let shared = Array.init (mask + 1) (fun _ -> Rng.bernoulli rng ctx.read_fraction) in
  let rounds = max 1 (count ctx 200_000 / ctx.clients) in
  per_call (fun () ->
      let eng = Engine.create ~seed:ctx.seed () in
      let locks = Lock_manager.create ~engine:eng in
      fun () ->
        for r = 0 to rounds - 1 do
          for owner = 0 to ctx.clients - 1 do
            let i = ((r * ctx.clients) + owner) land mask in
            let key = keys.(i) in
            let mode = if shared.(i) then Lock_manager.Shared else Lock_manager.Exclusive in
            Lock_manager.acquire locks ~key ~mode ~owner (fun () ->
                Lock_manager.release locks ~key ~owner)
          done;
          Engine.run eng
        done;
        rounds * ctx.clients)

let shard_map ctx keys =
  let map =
    Arbitrary.Shard_map.create ~strategy:Arbitrary.Shard_map.Hash ~shards:ctx.shards
      ~key_space:ctx.key_space ~seed:ctx.seed ()
  in
  let calls = count ctx 4_000_000 in
  per_call (fun () () ->
      let acc = ref 0 in
      for i = 0 to calls - 1 do
        acc := !acc + Arbitrary.Shard_map.route map keys.(i land mask)
      done;
      ignore (Sys.opaque_identity !acc);
      calls)

(* Quorum assemblies counted at the protocol boundary.  Forks share the
   counters, so every per-client and per-shard instance adds to them.
   Delegation draws the RNG exactly as the wrapped protocol does. *)
type quorum_counts = { mutable reads : int; mutable writes : int }

module Counting = struct
  type t = { inner : Quorum.Protocol.t; counts : quorum_counts }

  let name t = Quorum.Protocol.name t.inner
  let universe_size t = Quorum.Protocol.universe_size t.inner

  let read_quorum t ~alive ~rng =
    t.counts.reads <- t.counts.reads + 1;
    Quorum.Protocol.read_quorum t.inner ~alive ~rng

  let write_quorum t ~alive ~rng =
    t.counts.writes <- t.counts.writes + 1;
    Quorum.Protocol.write_quorum t.inner ~alive ~rng

  let read_levels t = Quorum.Protocol.read_levels t.inner

  let enumerate_read_quorums t =
    let (Quorum.Protocol.Dyn ((module P), p)) = t.inner in
    P.enumerate_read_quorums p

  let enumerate_write_quorums t =
    let (Quorum.Protocol.Dyn ((module P), p)) = t.inner in
    P.enumerate_write_quorums p

  let fork t = { t with inner = Quorum.Protocol.fork t.inner }
end

let counting proto =
  let counts = { reads = 0; writes = 0 } in
  (Quorum.Protocol.pack (module Counting) { Counting.inner = proto; counts }, counts)
