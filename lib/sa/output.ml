(* mm-sa's report: a summary line, the text rendering and the JSON
   shape CI archives (_build/ci/sa-report.json). *)

type result = {
  findings : Finding.t list;
  suppressed : Finding.t list;
  errors : (string * string) list;  (* path, message *)
  files : int;
}

let summary r =
  Printf.sprintf "%d finding%s, %d suppressed, %d error%s, %d files scanned"
    (List.length r.findings)
    (if List.length r.findings = 1 then "" else "s")
    (List.length r.suppressed)
    (List.length r.errors)
    (if List.length r.errors = 1 then "" else "s")
    r.files

let text fmt r =
  List.iter
    (fun (path, msg) -> Format.fprintf fmt "%s: error: %s@." path msg)
    r.errors;
  List.iter (fun f -> Format.fprintf fmt "%a@." Finding.pp f) r.findings;
  if r.findings = [] && r.errors = [] then
    Format.fprintf fmt "mm-sa: clean (%s)@." (summary r)
  else Format.fprintf fmt "mm-sa: %s@." (summary r)

(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let finding_json (f : Finding.t) =
  Printf.sprintf {|{"rule":"%s","file":"%s","line":%d,"col":%d,"message":"%s"}|}
    (json_escape f.Finding.rule)
    (json_escape f.Finding.file)
    f.Finding.line f.Finding.col
    (json_escape f.Finding.message)

let json fmt r =
  let list xs f = String.concat "," (List.map f xs) in
  Format.fprintf fmt
    {|{"version":1,"tool":"mm-sa","files_scanned":%d,"clean":%b,"findings":[%s],"suppressed":[%s],"errors":[%s]}@.|}
    r.files
    (r.findings = [] && r.errors = [])
    (list r.findings finding_json)
    (list r.suppressed finding_json)
    (list r.errors (fun (path, msg) ->
         Printf.sprintf {|{"file":"%s","message":"%s"}|} (json_escape path)
           (json_escape msg)))
