type result = { migrated : int; failed : int list }

(* Membership flows over a relabeled tree: the tree (and with it every
   quorum-intersection argument) never changes shape; only the
   position→site assignment moves.  Safety of the flip rests on the
   write-quorum structure: a write quorum is all members of one level, so
   every commit the outgoing occupant acked is either on the outgoing
   occupant itself or on a quorum that does not contain its position at
   all.  Provisioning the incoming site from the outgoing occupant —
   bulk snapshot first, then a final WAL delta fetched while every key is
   write-locked — therefore hands over the entire set of commits the
   position is answerable for. *)

let promote ~locks ~relabel ~position ~spare ?outgoing ~key_space
    ?(on_switch = fun () -> ()) k =
  if key_space < 1 then invalid_arg "Reconfig.promote: empty key space";
  let donor = Quorum.Relabel.site_of relabel ~position in
  let owner = Lock_manager.fresh_owner locks in
  let release_all () =
    for key = 0 to key_space - 1 do
      Lock_manager.release locks ~key ~owner
    done
  in
  let flip () =
    (* The spare now holds every commit the position ever acked; fence
       the outgoing occupant (when asked to) before the remap so no
       window exists in which both sites could serve the position. *)
    (match outgoing with Some o -> Replica.decommission o | None -> ());
    Quorum.Relabel.remap relabel ~position ~site:(Replica.site spare);
    on_switch ();
    release_all ();
    k ()
  in
  let locked () =
    (* Clients are quiesced; one final fenced delta closes the gap
       between the bulk snapshot's cut and the last acked commit. *)
    Replica.request_tail spare ~donor flip
  in
  let rec lock key =
    if key = key_space then locked ()
    else
      Lock_manager.acquire locks ~key ~mode:Lock_manager.Exclusive ~owner
        (fun () -> lock (key + 1))
  in
  (* Bulk provisioning runs before any lock is taken: clients keep
     committing while the snapshot streams; the locked delta is small. *)
  Replica.provision_now spare ~pinned:true ~donor ~on_done:(fun () -> lock 0) ()

let decommission ~locks ~relabel ~position ~outgoing ~spare ~key_space
    ?on_switch k =
  promote ~locks ~relabel ~position ~spare ~outgoing ~key_space ?on_switch k

let migrate ~coord ~locks ~new_proto ~key_space ?(on_switch = fun () -> ()) k =
  if key_space < 1 then invalid_arg "Reconfig.migrate: empty key space";
  let owner = Lock_manager.fresh_owner locks in
  let migrated = ref 0 in
  let failed = ref [] in
  let release_all () =
    for key = 0 to key_space - 1 do
      Lock_manager.release locks ~key ~owner
    done
  in
  let finish () =
    (* Every key has been carried over: flip the geometry (the caller swaps
       its coordinators' protocols in [on_switch]) and let clients back in. *)
    Coordinator.set_protocol coord new_proto;
    on_switch ();
    release_all ();
    k { migrated = !migrated; failed = List.rev !failed }
  in
  (* Transfer one key: read newest under the old tree, re-install under the
     new tree with the original timestamp (no version minting: the transfer
     is not a logical write). *)
  let rec transfer key =
    if key = key_space then finish ()
    else
      Coordinator.read coord ~key (function
        | None ->
          failed := key :: !failed;
          transfer (key + 1)
        | Some { Coordinator.ts; value; _ } ->
          if Timestamp.equal ts Timestamp.zero then begin
            (* Never written: nothing to carry over. *)
            incr migrated;
            transfer (key + 1)
          end
          else begin
            (* Address the new tree for the install, then return to the old
               geometry for the remaining reads. *)
            let old_proto = Coordinator.protocol coord in
            Coordinator.set_protocol coord new_proto;
            Coordinator.write coord ~key ~ts ~value (fun r ->
                Coordinator.set_protocol coord old_proto;
                (match r with
                | Some _ -> incr migrated
                | None -> failed := key :: !failed);
                transfer (key + 1))
          end)
  in
  (* Lock phase: take every key's exclusive lock, in order, quiescing all
     clients before any data moves. *)
  let rec lock key =
    if key = key_space then transfer 0
    else
      Lock_manager.acquire locks ~key ~mode:Lock_manager.Exclusive ~owner
        (fun () -> lock (key + 1))
  in
  lock 0
