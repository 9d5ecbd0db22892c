module Bitset = Dsutil.Bitset
module Rng = Dsutil.Rng

type t = { rows : int; cols : int }

let create ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Grid.create: empty grid";
  { rows; cols }

let square ~n =
  if n < 1 then invalid_arg "Grid.square: need at least one replica";
  let k = int_of_float (sqrt (float_of_int n)) in
  create ~rows:(max 1 k) ~cols:(max 1 k)

let name _ = "Grid"
let universe_size t = t.rows * t.cols
let site t ~row ~col = (row * t.cols) + col

let alive_in_col t ~alive col =
  let out = ref [] in
  for r = t.rows - 1 downto 0 do
    let s = site t ~row:r ~col in
    if Bitset.mem alive s then out := s :: !out
  done;
  !out

let col_fully_alive t ~alive col =
  List.length (alive_in_col t ~alive col) = t.rows

(* One alive representative per column, or None. *)
let column_cover t ~alive ~rng ~skip =
  let q = Bitset.create (universe_size t) in
  let ok = ref true in
  for c = 0 to t.cols - 1 do
    if c <> skip then begin
      match alive_in_col t ~alive c with
      | [] -> ok := false
      | l -> Bitset.add q (Rng.pick rng (Array.of_list l))
    end
  done;
  if !ok then Some q else None

let read_quorum t ~alive ~rng = column_cover t ~alive ~rng ~skip:(-1)

let write_quorum t ~alive ~rng =
  (* Pick a fully-alive column uniformly among candidates, then cover the
     remaining columns. *)
  let candidates = ref [] in
  for c = t.cols - 1 downto 0 do
    if col_fully_alive t ~alive c then candidates := c :: !candidates
  done;
  match !candidates with
  | [] -> None
  | l -> (
    let c = Rng.pick rng (Array.of_list l) in
    match column_cover t ~alive ~rng ~skip:c with
    | None -> None
    | Some q ->
      for r = 0 to t.rows - 1 do
        Bitset.add q (site t ~row:r ~col:c)
      done;
      Some q)

(* Cartesian product of per-column choices. *)
let rec product = function
  | [] -> Seq.return []
  | choices :: rest ->
    Seq.concat_map
      (fun pick -> Seq.map (fun tail -> pick :: tail) (product rest))
      (List.to_seq choices)

let enumerate_read_quorums t =
  let per_col =
    List.init t.cols (fun c -> List.init t.rows (fun r -> site t ~row:r ~col:c))
  in
  Seq.map (Bitset.of_list (universe_size t)) (product per_col)

let enumerate_write_quorums t =
  Seq.concat_map
    (fun c ->
      let full_col = List.init t.rows (fun r -> site t ~row:r ~col:c) in
      let others =
        List.filteri (fun c' _ -> c' <> c) (List.init t.cols Fun.id)
        |> List.map (fun c' -> List.init t.rows (fun r -> site t ~row:r ~col:c'))
      in
      Seq.map
        (fun cover -> Bitset.of_list (universe_size t) (full_col @ cover))
        (product others))
    (Seq.init t.cols Fun.id)

let read_cost t = t.cols
let write_cost t = t.rows + t.cols - 1
let read_load t = 1.0 /. float_of_int t.rows

let write_load t =
  (* Uniform strategy: a site is in the chosen quorum if its column is the
     full column (prob 1/cols) or it is picked as its column's
     representative (prob (cols-1)/cols * 1/rows). *)
  let c = float_of_int t.cols and r = float_of_int t.rows in
  (1.0 /. c) +. ((c -. 1.0) /. c /. r)

let read_levels _ = None
let fork t = t

let protocol t =
  Protocol.pack
    (module struct
      type nonrec t = t

      let name = name
      let universe_size = universe_size
      let read_quorum = read_quorum
      let write_quorum = write_quorum
      let enumerate_read_quorums = enumerate_read_quorums
      let enumerate_write_quorums = enumerate_write_quorums
      let read_levels _ = None
      let fork t = t
    end)
    t
