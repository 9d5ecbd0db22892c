(* What the bench drivers share: writing a BENCH artifact, checking its
   shape, and turning a failed gate into a non-zero exit. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let verdict_json (v : Eval.Gate.verdict) =
  Printf.sprintf "{\"pass\":%b,\"failures\":[%s]}" v.pass
    (String.concat ","
       (List.map (fun f -> Printf.sprintf "\"%s\"" (json_escape f)) v.failures))

(* Lists every failed gate's failures on stderr, then exits 1 unless all
   the named verdicts passed. *)
let enforce verdicts =
  let failed = List.filter (fun (_, (v : Eval.Gate.verdict)) -> not v.pass) verdicts in
  List.iter
    (fun (name, (v : Eval.Gate.verdict)) ->
      List.iter (Printf.eprintf "%s gate: %s\n" name) v.failures;
      Printf.printf "%s GATE FAILED\n" (String.uppercase_ascii name))
    failed;
  if failed <> [] then exit 1

let contains s needle =
  let nl = String.length needle and sl = String.length s in
  let rec at i = i + nl <= sl && (String.sub s i nl = needle || at (i + 1)) in
  at 0

(* Writes [json] to [path] and hands back [verdict] plus a structural
   check without a JSON parser: one object holding every [keys] needle,
   which catches a truncated or garbled write.  Artifacts checked
   against [keys] report their size and check on stdout. *)
let publish ~path ~keys verdict json =
  let oc = open_out path in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  let valid =
    String.length json > 2
    && json.[0] = '{'
    && json.[String.length json - 1] = '}'
    && List.for_all (contains json) keys
  in
  if keys = [] then Printf.printf "wrote %s\n" path
  else
    Printf.printf "wrote %s (%d bytes, structural check %s)\n" path
      (String.length json + 1)
      (if valid then "OK" else "FAILED");
  if valid then verdict
  else
    {
      Eval.Gate.pass = false;
      failures = verdict.Eval.Gate.failures @ [ path ^ ": structural check failed" ];
    }
