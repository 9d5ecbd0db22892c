module Engine = Dsim.Engine
module Network = Dsim.Network
module Protocol = Quorum.Protocol
module Relabel = Quorum.Relabel

(* One scripted membership change: promote [spare] into [position] at
   virtual time [at]; with [fence] the displaced occupant is
   decommissioned (drain-fence-remove), without it the occupant becomes a
   re-promotable spare (a rolling restart step). *)
type membership_op = { at : float; position : int; spare : int; fence : bool }

type scenario = {
  base : Harness.scenario;
  spares : int;
  membership : membership_op list;
  chunk_size : int;
  fence_provisioning : bool;
  provision_timeout : float;
}

let default_scenario ~proto =
  {
    base =
      {
        (Harness.default_scenario ~proto) with
        Harness.n_clients = 3;
        ops_per_client = 40;
        think_time = 3.0;
        horizon = 3000.0;
      };
    spares = 1;
    membership = [];
    chunk_size = 4;
    fence_provisioning = true;
    provision_timeout = 30.0;
  }

type report = {
  agg : Harness.report;
  promotions_started : int;
  promotions_done : int;
  decommissions_done : int;
}

let run scenario =
  if scenario.spares < 0 then invalid_arg "Churn_harness.run: negative spares";
  let key_space = scenario.base.Harness.key_space in
  let n = Protocol.universe_size scenario.base.Harness.proto in
  let universe = n + scenario.spares in
  List.iter
    (fun m ->
      if m.position < 0 || m.position >= n then
        invalid_arg "Churn_harness.run: membership position out of range";
      if m.spare < 0 || m.spare >= universe then
        invalid_arg "Churn_harness.run: membership spare out of range")
    scenario.membership;
  (* The position map is shared between the wrapper and the core's forks,
     so a promotion's remap is visible to every coordinator at once. *)
  let relabel = Relabel.make ~universe (Protocol.fork scenario.base.Harness.proto) in
  (* Donor candidates are the sites currently holding tree positions:
     spares may be arbitrarily stale, occupants answer for their
     positions' commits.  The closure reads the live relabel map, so
     failover always aims at the membership of the moment. *)
  let donors () =
    List.init (Relabel.positions relabel) (fun p -> Relabel.site_of relabel ~position:p)
  in
  let provision =
    Replica.provision ~key_space ~chunk_size:scenario.chunk_size
      ~fence:scenario.fence_provisioning ~timeout:scenario.provision_timeout ~donors ()
  in
  let promotions_started = ref 0 in
  let promotions_done = ref 0 in
  let decommissions_done = ref 0 in
  (* Scripted membership changes ride the engine like failures do. *)
  let membership { Harness.engine; locks; replicas } =
    let locks = Option.get locks and replicas = replicas.(0) in
    List.iter
      (fun m ->
        Engine.schedule engine ~delay:m.at (fun () ->
            incr promotions_started;
            let outgoing =
              if m.fence then
                Some replicas.(Relabel.site_of relabel ~position:m.position)
              else None
            in
            Reconfig.promote ~locks ~relabel ~position:m.position
              ~spare:replicas.(m.spare) ?outgoing ~key_space (fun () ->
                incr promotions_done;
                if m.fence then incr decommissions_done)))
      scenario.membership
  in
  let base =
    {
      scenario.base with
      Harness.proto = Relabel.pack relabel;
      use_locks = true;
      crash_mode = Network.Amnesia;
      catch_up = false;
    }
  in
  let r = Harness.run_core ~provision ~extend:membership (Harness.one_tree base) in
  {
    agg = r.Harness.agg;
    promotions_started = !promotions_started;
    promotions_done = !promotions_done;
    decommissions_done = !decommissions_done;
  }

let completed r = Harness.completed r.agg
