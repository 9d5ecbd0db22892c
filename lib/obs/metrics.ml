type counter = { mutable value : int }
type histogram = Dsutil.Stats.t

type t = {
  m_counters : (string, counter list) Hashtbl.t;
  m_histograms : (string, histogram) Hashtbl.t;
}

let create () = { m_counters = Hashtbl.create 32; m_histograms = Hashtbl.create 16 }

let handles t name = Option.value (Hashtbl.find_opt t.m_counters name) ~default:[]
let register t name c = Hashtbl.replace t.m_counters name (c :: handles t name)

let counter t name =
  match handles t name with
  | c :: _ -> c
  | [] ->
    let c = { value = 0 } in
    register t name c;
    c

let sum cs = List.fold_left (fun acc c -> acc + c.value) 0 cs
let counter_of t name = sum (handles t name)

type 'a handles = (string * ('a -> counter)) list

let register_all t hs x = List.iter (fun (name, h) -> register t name (h x)) hs

let read hs x name =
  match List.assoc_opt name hs with
  | Some h -> (h x).value
  | None -> invalid_arg ("Metrics.read: no counter " ^ name)

let histogram t name =
  match Hashtbl.find_opt t.m_histograms name with
  | Some h -> h
  | None ->
    let h = Dsutil.Stats.create () in
    Hashtbl.replace t.m_histograms name h;
    h

let observe = Dsutil.Stats.add
let summary h = h

let sorted_bindings table value =
  Hashtbl.fold (fun name v acc -> (name, value v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_bindings t.m_counters sum
let histograms t = sorted_bindings t.m_histograms Fun.id
