(** Timestamps: a version number paired with the writing site's identifier
    (§2.2).  Between two timestamps the newer one has the higher version;
    on equal versions the {e lower} site identifier wins (§3.2.1). *)

type t = { version : int; sid : int }

val zero : t
(** The timestamp of a never-written datum; older than every write. *)

val make : version:int -> sid:int -> t

val newer_than : t -> t -> bool
(** [newer_than a b] — is [a] strictly newer than [b]? *)

val newer_flat : int -> int -> int -> int -> bool
(** [newer_flat av asid bv bsid] = [newer_than {av; asid} {bv; bsid}]
    without boxing either side — for the flat hot paths that keep
    timestamps as unboxed (version, sid) int pairs. *)

val compare : t -> t -> int
(** Total order with [compare a b > 0] iff [newer_than a b]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
