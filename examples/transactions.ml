(* Multi-key transactions (§2.2): atomic transfers between "accounts" on a
   replicated store, with strict two-phase locking and a cross-key 2PC.

   Two clients concurrently move money between three accounts; an invariant
   checker verifies the total balance is conserved by every committed
   transaction, even under replica crashes and lock conflicts.

   dune exec examples/transactions.exe *)

module Engine = Dsim.Engine
module Network = Dsim.Network
module Txn = Replication.Txn
module Replica = Replication.Replica

let accounts = [ 0; 1; 2 ]
let initial = 100

let balance_of v = if v = "" then initial else int_of_string v

(* Transfer [amount] from account [src] to [dst] in one transaction. *)
let transfer mgr ~src ~dst ~amount k =
  let txn = Txn.begin_txn mgr in
  Txn.read txn ~key:src (function
    | None -> k (Txn.Aborted "read failed")
    | Some src_v ->
      Txn.read txn ~key:dst (function
        | None -> k (Txn.Aborted "read failed")
        | Some dst_v ->
          let src_bal = balance_of src_v and dst_bal = balance_of dst_v in
          if src_bal < amount then begin
            Txn.abort txn;
            k (Txn.Aborted "insufficient funds")
          end
          else begin
            Txn.write txn ~key:src ~value:(string_of_int (src_bal - amount));
            Txn.write txn ~key:dst ~value:(string_of_int (dst_bal + amount));
            Txn.commit txn k
          end))

let () =
  let tree = Arbitrary.Tree.of_spec "1-3-5" in
  let proto = Arbitrary.Quorums.protocol tree in
  let engine = Engine.create ~seed:21 () in
  let net = Network.create ~engine ~n:10 () in
  let _replicas = Array.init 8 (fun site -> Replica.create ~site ~net ()) in
  let locks = Replication.Lock_manager.create ~engine in
  let m1 = Txn.create_manager ~site:8 ~net ~proto ~locks () in
  let m2 = Txn.create_manager ~site:9 ~net ~proto ~locks () in

  (* Two clients fire transfers, including conflicting ones on the same
     accounts; a replica crashes and recovers along the way. *)
  let rng = Dsutil.Rng.create 4 in
  let run_client mgr count =
    let rec go i =
      if i < count then begin
        let src = Dsutil.Rng.pick rng (Array.of_list accounts) in
        let dst = (src + 1 + Dsutil.Rng.int rng 2) mod 3 in
        let amount = 1 + Dsutil.Rng.int rng 30 in
        transfer mgr ~src ~dst ~amount (fun _ ->
            Engine.schedule engine ~delay:2.0 (fun () -> go (i + 1)))
      end
    in
    go 0
  in
  run_client m1 25;
  run_client m2 25;
  Engine.schedule engine ~delay:40.0 (fun () -> Network.crash net 7);
  Engine.schedule engine ~delay:120.0 (fun () -> Network.recover net 7);
  Engine.run engine;

  Format.printf "transactions: %d committed, %d aborted (both clients)@."
    (Txn.count m1 "txn.committed" + Txn.count m2 "txn.committed")
    (Txn.count m1 "txn.aborted" + Txn.count m2 "txn.aborted");

  (* Invariant: committed transfers conserve the total balance. *)
  let reader = Txn.begin_txn m1 in
  let balances = ref [] in
  let rec read_all = function
    | [] ->
      let total = List.fold_left ( + ) 0 !balances in
      Format.printf "balances: %s (total %d, expected %d) -> %s@."
        (String.concat ", " (List.map string_of_int (List.rev !balances)))
        total (3 * initial)
        (if total = 3 * initial then "CONSERVED" else "VIOLATED");
      Txn.abort reader
    | key :: rest ->
      Txn.read reader ~key (fun v ->
          balances := balance_of (Option.value ~default:"" v) :: !balances;
          read_all rest)
  in
  read_all accounts;
  Engine.run engine
