type t = { version : int; sid : int }

(* Any real write has version >= 1, so [zero] is older than all of them
   regardless of its sid field. *)
let zero = { version = 0; sid = 0 }

let make ~version ~sid =
  if version < 0 then invalid_arg "Timestamp.make: negative version";
  { version; sid }

let newer_than a b =
  a.version > b.version || (a.version = b.version && a.sid < b.sid)

let newer_flat av asid bv bsid = av > bv || (av = bv && asid < bsid)

let compare a b =
  if newer_than a b then 1 else if newer_than b a then -1 else 0

let equal a b = a.version = b.version && a.sid = b.sid
let pp ppf t = Format.fprintf ppf "v%d@@%d" t.version t.sid
