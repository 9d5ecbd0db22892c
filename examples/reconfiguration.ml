(* Live reconfiguration (§1, §3.3): "shifting from one configuration into
   another by just modifying the structure of the tree" — executed online.

   A 45-replica system starts read-tuned (few physical levels).  The
   workload then turns write-heavy, the planner picks a write-tuned tree,
   and the reconfiguration engine migrates the system while a client keeps
   operating: its in-flight operations block on the global locks during
   the switch and resume — on the new tree — afterwards.

   dune exec examples/reconfiguration.exe *)

module Engine = Dsim.Engine
module Network = Dsim.Network
module Coordinator = Replication.Coordinator
module Replica = Replication.Replica

let n = 45
let key_space = 6

let measure_writes engine coord ~ops =
  let ok = ref 0 in
  let rec go i =
    if i < ops then
      Coordinator.write coord ~key:(i mod key_space)
        ~value:(Printf.sprintf "w%d" i) (fun r ->
          if r <> None then incr ok;
          go (i + 1))
  in
  go 0;
  Engine.run engine;
  !ok

let () =
  let p = 0.9 in
  let read_tree = Arbitrary.Planner.plan ~n ~p ~read_fraction:0.9 () in
  let write_tree = Arbitrary.Planner.plan ~n ~p ~read_fraction:0.1 () in
  Format.printf "read-tuned tree : %s (|K_phy|=%d)@."
    (Arbitrary.Tree.to_spec read_tree)
    (Arbitrary.Tree.num_physical_levels read_tree);
  Format.printf "write-tuned tree: %s (|K_phy|=%d)@.@."
    (Arbitrary.Tree.to_spec write_tree)
    (Arbitrary.Tree.num_physical_levels write_tree);

  let engine = Engine.create ~seed:9 () in
  let net = Network.create ~engine ~n:(n + 2) () in
  let _replicas = Array.init n (fun site -> Replica.create ~site ~net ()) in
  let locks = Replication.Lock_manager.create ~engine in
  let coord =
    Coordinator.create ~site:n ~net
      ~proto:(Arbitrary.Quorums.protocol read_tree)
      ~locks ()
  in
  (* The reconfigurator's coordinator takes no locks: the migration
     holds every key's lock itself. *)
  let mig =
    Coordinator.create ~site:(n + 1) ~net
      ~proto:(Arbitrary.Quorums.protocol read_tree) ()
  in

  (* Phase 1: writes on the read-tuned tree are expensive. *)
  let before = Network.count net "net.delivered" in
  let ok = measure_writes engine coord ~ops:40 in
  let phase1 = Network.count net "net.delivered" - before in
  Format.printf "phase 1 (read-tuned): %d/40 writes ok, %.1f msgs/write@." ok
    (float_of_int phase1 /. 40.0);

  (* Seed some state so the migration has data to carry. *)
  Format.printf "@.reconfiguring online...@.";
  let migrated = ref None in
  Replication.Reconfig.migrate ~coord:mig ~locks
    ~new_proto:(Arbitrary.Quorums.protocol write_tree) ~key_space
    ~on_switch:(fun () ->
      Coordinator.set_protocol coord (Arbitrary.Quorums.protocol write_tree))
    (fun r -> migrated := Some r);
  (* A client write issued mid-migration: it waits, then lands on the new
     tree. *)
  let inflight = ref None in
  Coordinator.write coord ~key:0 ~value:"in-flight" (fun r -> inflight := r);
  Engine.run engine;
  (match !migrated with
  | Some r ->
    Format.printf "migrated %d keys (%d failures); in-flight write %s@."
      r.Replication.Reconfig.migrated
      (List.length r.Replication.Reconfig.failed)
      (if !inflight <> None then "completed on the new tree" else "failed")
  | None -> assert false);

  (* Phase 2: the same write workload is now much cheaper. *)
  let before = Network.count net "net.delivered" in
  let ok = measure_writes engine coord ~ops:40 in
  let phase2 = Network.count net "net.delivered" - before in
  Format.printf "@.phase 2 (write-tuned): %d/40 writes ok, %.1f msgs/write@." ok
    (float_of_int phase2 /. 40.0);
  Format.printf
    "@.The protocol never changed — only the tree did (and a read of key 0@.\
     still returns the newest committed value):@.";
  let final = ref None in
  Coordinator.read coord ~key:0 (fun r -> final := r);
  Engine.run engine;
  match !final with
  | Some { Coordinator.value; _ } -> Format.printf "  key 0 = %S@." value
  | None -> Format.printf "  read failed?!@."
