(** Quorum-based distributed mutual exclusion (Maekawa's algorithm with
    inquire/yield), running on the simulated network.

    Both tree-quorum papers the ICDCS paper builds on are mutual-exclusion
    protocols (Agrawal–El Abbadi's [2] and Maekawa's √n [9]); this module
    shows the same quorum machinery powering that original application.

    A client enters the critical section after collecting grants from
    {e every} member of a mutex quorum.  Quorums must pairwise intersect;
    the intersection replica serializes conflicting entries.  For a
    {e bicoterie} protocol like the arbitrary tree — whose write quorums
    do not pairwise intersect — the mutex quorum is the union of one read
    and one write quorum: (R ∪ W) ∩ (R' ∪ W') ⊇ R ∩ W' ≠ ∅.

    Deadlocks between partially-acquired quorums are resolved the
    classical way: requests carry (Lamport clock, client id) priorities; an
    arbiter holding a grant for a younger request {e inquires} it when an
    older one arrives, and a client that has not yet entered the critical
    section {e yields} inquired grants.  The algorithm assumes FIFO links
    — create the network with [~fifo:true]. *)

type message
(** Wire messages (request / grant / inquire / yield / release). *)

(** {2 Arbiters (replica side)} *)

type arbiter

val create_arbiter : site:int -> net:message Dsim.Network.t -> arbiter
(** One per replica site; installs the site's handler. *)

(** {2 Clients} *)

type client

val create_client :
  site:int ->
  net:message Dsim.Network.t ->
  proto:Quorum.Protocol.t ->
  unit ->
  client

val acquire : client -> (unit -> unit) -> unit
(** Requests the critical section; the callback runs once every quorum
    member has granted.  Raises [Invalid_argument] if this client already
    holds or awaits the lock, or when no quorum can be assembled. *)

val release : client -> unit
(** Leaves the critical section.  Raises [Invalid_argument] when not
    held. *)

val holding : client -> bool

val acquisitions : client -> int
(** Completed critical-section entries. *)

val yields : client -> int
(** Times this client gave a grant back to an older request. *)
