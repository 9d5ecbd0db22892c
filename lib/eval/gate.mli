(** Acceptance verdicts of the evaluation campaigns: every gate collects
    the checks that failed, with a message each. *)

type verdict = { pass : bool; failures : string list }

type t

val create : unit -> t

val check : t -> bool -> ('a, unit, string, unit) format4 -> 'a
(** [check g cond fmt ...] records the formatted message as a failure
    unless [cond] holds. *)

val verdict : t -> verdict
(** Failures in the order they were checked; [pass] iff there are none. *)
