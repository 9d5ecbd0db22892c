type t = {
  keys : int array;
  versions : int array;
  sids : int array;
  values : string array;
}

let empty = { keys = [||]; versions = [||]; sids = [||]; values = [||] }

let length b = Array.length b.keys

let make ~keys ~versions ~sids ~values =
  let n = Array.length keys in
  if
    Array.length versions <> n
    || Array.length sids <> n
    || Array.length values <> n
  then invalid_arg "Batch.make: column lengths differ";
  { keys; versions; sids; values }

let key b i = b.keys.(i)
let version b i = b.versions.(i)
let sid b i = b.sids.(i)
let value b i = b.values.(i)
let ts b i = Timestamp.make ~version:b.versions.(i) ~sid:b.sids.(i)

let of_list writes =
  let n = List.length writes in
  if n = 0 then empty
  else begin
    let keys = Array.make n 0
    and versions = Array.make n 0
    and sids = Array.make n 0
    and values = Array.make n "" in
    List.iteri
      (fun i (k, (ts : Timestamp.t), value) ->
        keys.(i) <- k;
        versions.(i) <- ts.Timestamp.version;
        sids.(i) <- ts.Timestamp.sid;
        values.(i) <- value)
      writes;
    { keys; versions; sids; values }
  end

let to_list b =
  List.init (length b) (fun i -> (key b i, ts b i, value b i))

module Builder = struct
  type batch = t

  type t = {
    mutable b_keys : int array;
    mutable b_versions : int array;
    mutable b_sids : int array;
    mutable b_values : string array;
    mutable len : int;
  }

  let create ?(capacity = 0) () =
    let capacity = max capacity 0 in
    {
      b_keys = Array.make capacity 0;
      b_versions = Array.make capacity 0;
      b_sids = Array.make capacity 0;
      b_values = Array.make capacity "";
      len = 0;
    }

  let grow b needed =
    let cap = max 4 (max needed (2 * Array.length b.b_keys)) in
    let keys = Array.make cap 0
    and versions = Array.make cap 0
    and sids = Array.make cap 0
    and values = Array.make cap "" in
    Array.blit b.b_keys 0 keys 0 b.len;
    Array.blit b.b_versions 0 versions 0 b.len;
    Array.blit b.b_sids 0 sids 0 b.len;
    Array.blit b.b_values 0 values 0 b.len;
    b.b_keys <- keys;
    b.b_versions <- versions;
    b.b_sids <- sids;
    b.b_values <- values

  let push b ~key ~version ~sid ~value =
    if b.len = Array.length b.b_keys then grow b (b.len + 1);
    b.b_keys.(b.len) <- key;
    b.b_versions.(b.len) <- version;
    b.b_sids.(b.len) <- sid;
    b.b_values.(b.len) <- value;
    b.len <- b.len + 1

  (* A trimmed immutable snapshot.  When the builder is exactly full the
     arrays are shared rather than copied: the next [push] grows (and so
     copies) before it writes, leaving the snapshot intact. *)
  let snapshot b : batch =
    if b.len = Array.length b.b_keys then
      {
        keys = b.b_keys;
        versions = b.b_versions;
        sids = b.b_sids;
        values = b.b_values;
      }
    else
      {
        keys = Array.sub b.b_keys 0 b.len;
        versions = Array.sub b.b_versions 0 b.len;
        sids = Array.sub b.b_sids 0 b.len;
        values = Array.sub b.b_values 0 b.len;
      }
end
