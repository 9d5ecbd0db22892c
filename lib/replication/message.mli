(** Protocol messages exchanged between transaction coordinators and
    replica servers.

    A read queries every member of a read quorum and keeps the
    newest-timestamped reply.  A write first queries a read quorum for the
    highest version (piggybacked on the same read machinery), increments
    it, then runs a two-phase commit over a write quorum (§2.2: writes end
    with 2PC among participants).

    {b Flat representations.}  The hot-path messages carry timestamps as
    two unboxed [int] fields ([version], [sid]) rather than a boxed
    {!Timestamp.t}, and the coalesced envelopes carry {!Batch.t} parallel
    arrays (or length-carrying arrays) rather than lists — the
    failure-free paths construct millions of these per campaign, and the
    flat layout keeps each one to a single small block.  Use
    [Timestamp.make ~version ~sid] at the edges that need a boxed
    timestamp (WAL records, results).

    {b Incarnations.}  Replica replies carry the replica's incarnation
    number — the count of amnesia recoveries it has been through (always 0
    under the paper's fail-stop model, where nothing is ever lost).  A
    [Commit] echoes the incarnation observed in that member's
    [Prepare_ack]: the replica nacks a commit from a previous incarnation,
    because its staged write — if it ever had one — belonged to a life
    whose volatile state is gone.  Coordinators likewise drop replies from
    pre-crash incarnations.  See docs/PROTOCOL.md §10.

    {b Carried replies.}  [Prepare], [Prepare_batch] and [Commit] carry
    the reply they expect ([reply]), built once per round by the
    coordinator.  Requests are immutable, so one reply record may be in
    flight from many replicas at once.

    {b Pooled read replies.}  [Read_reply] and [Read_batch_reply] are the
    exception: their fields are mutable, and each record belongs to the
    {!pool} of the replica that sent it ([home]).  A read queries one
    replica of every physical level, so these are most of the messages a
    read-heavy run sends; {!read_reply} and {!read_batch_reply} refill a
    record that came back instead of allocating one.  The contract:
    - the sender builds a reply with {!read_reply} or
      {!read_batch_reply} and hands it to the network, and keeps no
      reference to it;
    - the receiver calls {!recycle} once, when it has read every field it
      needs, and keeps no reference after that.  A coordinator does so
      at the end of its handler, for every message it receives (stale
      and out-of-phase replies too), and a recovering replica does so for
      the replies to its catch-up reads;
    - a second {!recycle} of the same record (before a send reissues it)
      raises [Invalid_argument];
    - a reply that is never handed back (lost in the network, dropped at
      a crash, kept by a test handler) is ordinary garbage, and no later
      read overwrites it.

    Each pool belongs to one replica, and so to one simulated world:
    worlds that run on different domains share no pool. *)

type t =
  | Read_request of { op : int; key : int }
  | Read_reply of {
      mutable op : int;
      mutable key : int;
      mutable version : int;
      mutable sid : int;
      mutable value : string;
      mutable inc : int;
      mutable freed : bool;  (** in [home]'s free stack *)
      home : pool;
    }
      (** built by {!read_reply}, handed back by {!recycle} *)
  | Prepare of {
      op : int;
      key : int;
      version : int;
      sid : int;
      value : string;
      reply : t;
    }
      (** [reply] is the ack the coordinator expects back: a
          [Prepare_ack] for [op] at incarnation 0, the ack of a replica
          that never lost its state.  A replica sends it as-is when it
          names the replica's current incarnation, and builds its own ack
          otherwise (a rejoined replica), so a failure-free round
          allocates one ack, not one per member *)
  | Prepare_ack of { op : int; inc : int }
  | Prepare_nack of { op : int; reason : string }
      (** refusal: the replica cannot take part right now (e.g. it is
          recovering, or the commit's incarnation is stale); the
          coordinator retries the whole attempt *)
  | Commit of { op : int; inc : int; reply : t }
      (** [inc] is the incarnation the receiving members acked the prepare
          under; [reply] is [Commit_ack {op; inc}].  A replica acks a
          commit only at incarnation [inc], so the carried ack is always
          the right answer, and one [Commit] (with its ack) serves every
          member that acked under the same incarnation *)
  | Commit_ack of { op : int; inc : int }
  | Abort of { op : int }
  | Repair of { op : int; key : int; version : int; sid : int; value : string }
      (** read-repair: install this committed (timestamp, value) directly —
          monotone installs make it always safe *)
  | Busy of { op : int }
      (** overload nack: an admission-controlled replica shed the request
          rather than letting it rot in a saturated queue.  Distinct from
          [Prepare_nack]: the replica is healthy, just loaded — useful
          both to the retry logic (fail fast, back off) and to the circuit
          breaker (count as pushback, do not count as death) *)
  | Read_batch of { op : int; n_keys : int; keys : int array }
      (** coalesced read envelope: many keys ride one message, which the
          service-queue model counts as ONE unit of per-site work — the
          whole point of coalescing.  Only the first [n_keys] entries of
          [keys] are live (the array may be a pooled oversized buffer).
          Answered by [Read_batch_reply] with one entry per requested key
          (in key order), or refused via [Busy] when shed *)
  | Read_batch_reply of {
      mutable op : int;
      mutable n : int;
      mutable versions : int array;
      mutable sids : int array;
      mutable values : string array;
      mutable inc : int;
      mutable freed : bool;
      home : pool;
    }
      (** one entry per requested key, in key order: only the first [n]
          entries of each column are live, since a pooled record keeps
          the capacity of the largest batch it has carried.  Built by
          {!read_batch_reply}, handed back by {!recycle} *)
  | Prepare_batch of { op : int; writes : Batch.t; reply : t }
      (** coalesced 2PC stage: the writes are staged atomically under one
          op id and later committed or aborted together by the ordinary
          [Commit]/[Abort] for that op.  Acked with [Prepare_ack] (the
          carried [reply], as for [Prepare]), so the rest of the 2PC
          machinery (incarnation echo included) is unchanged *)
  | Provision_request of {
      op : int;
      from_chunk : int;
      chunk_size : int;
      key_space : int;
    }
      (** recipient → donor: start (or resume, at [from_chunk]) a chunked
          snapshot transfer.  Chunk [i] always covers keys
          [i*chunk_size, (i+1)*chunk_size) of [key_space], so chunk
          numbers keep their meaning across donor failover and recipient
          restarts — monotone installs make re-fetching a range from a
          different donor harmless.  Refused with
          [Prepare_nack "recovering"] by a donor that cannot serve *)
  | Snapshot_chunk of {
      op : int;
      chunk : int;
      n_chunks : int;
      wal_index : int;
      dinc : int;
      entries : Batch.t;
    }
      (** donor → recipient: one snapshot chunk.  [wal_index] is the
          donor's {!Wal.next_index} when the chunk was served — the cut
          stamp; the recipient keeps the {e minimum} stamp it has seen so
          the eventual tail covers every commit since the earliest cut.
          [dinc] is the donor's incarnation: a chunk whose [dinc]
          disagrees with the transfer's established one is from a broken
          (pre-restart) transfer and is fenced off *)
  | Chunk_ack of { op : int; chunk : int; chunk_size : int; key_space : int }
      (** recipient → donor: [chunk] applied and logged durably; send
          [chunk + 1].  Echoes the geometry so the donor holds no
          per-transfer state (and therefore cannot corrupt a transfer by
          crashing — the recipient's acks are the only cursor) *)
  | Tail_request of { op : int; from_index : int }
      (** recipient → donor: bulk transfer done; ship every committed WAL
          record at or after [from_index] ({!Wal.committed_since},
          boundary inclusive) *)
  | Wal_tail of { op : int; dinc : int; next_index : int; entries : Batch.t }
      (** donor → recipient: the committed tail, plus the donor's current
          [next_index] — the new cut a promotion's final fenced delta
          request starts from *)
  | Ping of { seq : int }
      (** heartbeat probe from a failure-detecting coordinator *)
  | Pong of { seq : int }  (** heartbeat answer *)

and pool
(** A replica's free stacks of read replies, one for each reply kind. *)

val pool : unit -> pool
(** An empty pool: no slots until the first {!recycle}. *)

val read_reply :
  pool -> op:int -> key:int -> version:int -> sid:int -> value:string -> inc:int -> t
(** A [Read_reply] with these fields: a handed-back record refilled in
    place, or a new one when the pool has none. *)

val read_batch_reply : pool -> op:int -> n:int -> inc:int -> t
(** A [Read_batch_reply] for [n] entries, with columns of at least [n]
    slots and unspecified contents: the sender fills [\[0, n)] of
    [versions], [sids] and [values] before it sends the reply. *)

val recycle : t -> unit
(** Hands a read reply back to its [home] pool, for the receiver to call
    once it is done with the message; does nothing on any other message.
    @raise Invalid_argument when the reply is already handed back. *)

val op_id : t -> int
(** Operation id the message belongs to; −1 for [Ping]/[Pong], which
    belong to no operation. *)

val no_incarnation : int
(** [-1]: what {!incarnation} returns for a message that carries none.
    Real incarnations start at 0. *)

val incarnation : t -> int
(** The sender incarnation stamped on replica replies ([Read_reply],
    [Prepare_ack], [Commit_ack], [Read_batch_reply]); {!no_incarnation}
    on every other message.  An int, not an option, so matching a reply
    allocates nothing. *)

val pp : Format.formatter -> t -> unit
