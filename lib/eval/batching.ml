module Harness = Replication.Harness
module Stats = Dsutil.Stats

let default_knobs = { Harness.batch_size = 32; group_commit = true; pipeline = 8 }
let identity_knobs = { Harness.batch_size = 1; group_commit = true; pipeline = 1 }

let scenario ~name ~n ~ops ~seed =
  let n, s = Config_metrics.scenario name ~n in
  ( n,
    {
      s with
      Harness.n_clients = 1;
      ops_per_client = ops;
      read_fraction = 0.5;
      think_time = 0.1;
      seed;
    } )

let pair ?(knobs = default_knobs) ~name ~n ~ops ~seed () =
  let _, s = scenario ~name ~n ~ops ~seed in
  (s, { s with Harness.batching = Some knobs })

(* Floats are rendered with %h (exact hexadecimal representation), so the
   digest distinguishes runs that differ in the last ulp. *)
let fingerprint (r : Harness.report) =
  let b = Buffer.create 4096 in
  let ints name xs =
    Buffer.add_string b name;
    Buffer.add_char b '=';
    Array.iter (fun x -> Printf.bprintf b "%d," x) xs;
    Buffer.add_char b ';'
  in
  let c = Harness.count r in
  Printf.bprintf b "dur=%h;" r.Harness.duration;
  Printf.bprintf b "r=%d/%d;w=%d/%d;retries=%d;ddl=%d;sv=%d;"
    r.Harness.reads_ok r.Harness.reads_failed r.Harness.writes_ok
    r.Harness.writes_failed (c "coord.retries") (c "coord.deadline_exceeded")
    r.Harness.safety_violations;
  Printf.bprintf b "rl=%d:%h;wl=%d:%h;"
    (Stats.count r.Harness.read_latency)
    (Stats.mean r.Harness.read_latency)
    (Stats.count r.Harness.write_latency)
    (Stats.mean r.Harness.write_latency);
  Printf.bprintf b "msg=%d/%d/%d;hb=%d;" r.Harness.messages_sent
    r.Harness.messages_delivered (Harness.messages_dropped r)
    (c "heartbeat.pings");
  ints "rs" r.Harness.replica_reads_served;
  ints "ps" r.Harness.replica_prepares_seen;
  ints "wa" r.Harness.replica_writes_applied;
  ints "inc" r.Harness.replica_incarnations;
  Printf.bprintf b "stale=%d;cu=%d/%d/%d;nack=%d;wal=%d/%d;recovering=%d;"
    (c "coord.stale_inc.rejected") (c "replica.catchup.runs")
    (c "replica.catchup.keys_installed") (c "replica.catchup.abandoned")
    (c "replica.stale_inc.nacked") (c "replica.wal.replayed")
    (c "replica.wal.lost") r.Harness.replicas_recovering;
  Printf.bprintf b "sheds=%d;busy=%d;supp=%d;odrops=%d;trips=%d;peak=%d;"
    (c "replica.shed") (c "coord.busy_received") (c "coord.retries_suppressed")
    (c "net.dropped.overload") (c "breaker.trips") r.Harness.queue_peak;
  Printf.bprintf b "batch=%d;coal=%d;syncs=%d;" (c "coord.batches")
    (c "net.coalesced") r.Harness.wal_syncs;
  Buffer.add_string b "done=";
  Array.iter (fun t -> Printf.bprintf b "%h," t) r.Harness.completions;
  Digest.to_hex (Digest.string (Buffer.contents b))
