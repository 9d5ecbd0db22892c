type verdict = { pass : bool; failures : string list }
type t = string list ref

let create () = ref []

let check g cond fmt =
  Printf.ksprintf (fun msg -> if not cond then g := msg :: !g) fmt

let verdict g = { pass = !g = []; failures = List.rev !g }
