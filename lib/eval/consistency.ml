module Timestamp = Replication.Timestamp
module Span = Obs.Span

type violation = {
  read_id : int;
  write_id : int;
  key : int;
  observed : Timestamp.t;
  required : Timestamp.t;
  read_started : float;
  write_ended : float;
}

type report = {
  reads_checked : int;
  writes_indexed : int;
  unstamped : int;
  violations : violation list;
}

let result_ts (sp : Span.t) =
  match sp.Span.result_ts with
  | None -> None
  | Some (version, sid) -> Some (Timestamp.make ~version ~sid)

let completed_ok (sp : Span.t) =
  sp.Span.outcome = Some Span.Ok && sp.Span.ended <> None

(* Newest write to [key] that completed strictly before [t] — strict, so a
   write finishing at the same virtual instant the read starts does not
   constrain it (the ordering of simultaneous events is ambiguous).
   Linear in the key's write count: no index structure needed at
   simulation scale. *)
let newest_before writes ~key ~t =
  List.fold_left
    (fun best (w_id, w_ended, ts) ->
      if w_ended < t then
        match best with
        | Some (_, _, best_ts) when Timestamp.newer_than best_ts ts -> best
        | _ -> Some (w_id, w_ended, ts)
      else best)
    None
    (match Hashtbl.find_opt writes key with Some l -> l | None -> [])

let check ?(read_op = "read") ?(write_op = "write") spans =
  (* key -> (span id, ended, committed ts) list *)
  let writes : (int, (int * float * Timestamp.t) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let reads_checked = ref 0 in
  let writes_indexed = ref 0 in
  let unstamped = ref 0 in
  let violations = ref [] in
  List.iter
    (fun (sp : Span.t) ->
      if completed_ok sp then
        if sp.Span.op = write_op then begin
          match (result_ts sp, sp.Span.key, sp.Span.ended) with
          | Some ts, Some key, Some ended ->
            incr writes_indexed;
            let l =
              match Hashtbl.find_opt writes key with Some l -> l | None -> []
            in
            Hashtbl.replace writes key ((sp.Span.id, ended, ts) :: l)
          | _ -> incr unstamped
        end
        else if sp.Span.op = read_op then begin
          match (result_ts sp, sp.Span.key) with
          | Some observed, Some key -> begin
            incr reads_checked;
            match newest_before writes ~key ~t:sp.Span.started with
            | Some (write_id, write_ended, required)
              when Timestamp.newer_than required observed ->
              violations :=
                {
                  read_id = sp.Span.id;
                  write_id;
                  key;
                  observed;
                  required;
                  read_started = sp.Span.started;
                  write_ended;
                }
                :: !violations
            | _ -> ()
          end
          | _ -> incr unstamped
        end)
    spans;
  {
    reads_checked = !reads_checked;
    writes_indexed = !writes_indexed;
    unstamped = !unstamped;
    violations = List.rev !violations;
  }

let ok r = r.violations = []

let pp_violation ppf v =
  Format.fprintf ppf
    "read #%d (key %d, started %.1f) returned %a but write #%d (ended %.1f) \
     committed %a"
    v.read_id v.key v.read_started Timestamp.pp v.observed v.write_id
    v.write_ended Timestamp.pp v.required

let pp ppf r =
  Format.fprintf ppf "@[<v>reads=%d writes=%d unstamped=%d violations=%d"
    r.reads_checked r.writes_indexed r.unstamped (List.length r.violations);
  List.iter (fun v -> Format.fprintf ppf "@,  %a" pp_violation v) r.violations;
  Format.fprintf ppf "@]"

(* --- increment conservation (cross-shard atomicity) --------------------- *)

type conservation = {
  committed_increments : int;
  uncertain_increments : int;
  observed_increments : int;
  phantom_increments : int;
  lost_increments : int;
}

let check_conservation ~committed ~uncertain ~observed =
  {
    committed_increments = committed;
    uncertain_increments = uncertain;
    observed_increments = observed;
    phantom_increments = max 0 (observed - committed - uncertain);
    lost_increments = max 0 (committed - observed);
  }

let conserved c = c.phantom_increments = 0 && c.lost_increments = 0
