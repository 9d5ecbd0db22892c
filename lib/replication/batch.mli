(** Flat, length-carrying batch payloads: parallel arrays of
    (key, version, sid, value), one slot per write or read entry.

    The coalesced message envelopes ({!Message.Prepare_batch}, snapshot
    chunks, WAL tails) and the store's staged batches carry one of
    these instead of a [(int * Timestamp.t * string) list]: no per-entry
    cons cells or boxed timestamps, and the length is an array length
    rather than a list walk.  A [t] is immutable by convention — never
    mutate the arrays of a batch you did not just build. *)

type t = {
  keys : int array;
  versions : int array;
  sids : int array;
  values : string array;
}

val empty : t
val length : t -> int

val make :
  keys:int array ->
  versions:int array ->
  sids:int array ->
  values:string array ->
  t
(** Validates that all four columns have the same length. *)

val key : t -> int -> int
val version : t -> int -> int
val sid : t -> int -> int
val value : t -> int -> string

val of_list : (int * Timestamp.t * string) list -> t
val to_list : t -> (int * Timestamp.t * string) list

(** Amortized-doubling accumulator, for the exports that collect an
    unknown number of writes (snapshot chunks, WAL tails). *)
module Builder : sig
  type batch = t
  type t

  val create : ?capacity:int -> unit -> t
  val push : t -> key:int -> version:int -> sid:int -> value:string -> unit

  val snapshot : t -> batch
  (** Trimmed immutable view; shares the arrays when the builder is
      exactly full, copies otherwise. *)
end
