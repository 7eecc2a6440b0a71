type result = Mm_report.Output.result = {
  tool : string;
  findings : Finding.t list;
  suppressed : Finding.t list;
  errors : (string * string) list;
  files : int;
}

(* ------------------------------------------------------------------ *)
(* File discovery: every .ml under the given root-relative paths,
   skipping dot-directories (dune object dirs), _build and the sim/
   directories. A sim/ directory holds the simulator copy of its
   parent's bodies (DESIGN.md §18): in the source tree only its rt.ml,
   in the build tree also the copied sources, which the parent's scan
   already covers. *)

let collect ~root paths =
  let out = ref [] in
  let rec walk rel =
    let full = Filename.concat root rel in
    if Sys.is_directory full then
      Array.iter
        (fun name ->
          if name.[0] <> '.' && name <> "_build" && name <> "sim" then
            walk (Filename.concat rel name))
        (Sys.readdir full)
    else if Filename.check_suffix rel ".ml" then out := rel :: !out
  in
  List.iter
    (fun p -> if Sys.file_exists (Filename.concat root p) then walk p)
    paths;
  List.sort String.compare !out

let load ~root paths =
  let sources = ref [] and errors = ref [] in
  List.iter
    (fun path ->
      match Source.load ~root ~path with
      | Ok src -> sources := src :: !sources
      | Error msg -> errors := (path, msg) :: !errors)
    paths;
  (List.rev !sources, List.rev !errors)

(* ------------------------------------------------------------------ *)
(* Suppression coverage is the shared policy in Mm_report.Suppress:
   a comment covers its rule to the end of the enclosing top-level item
   (or the next item when it sits between items) — never a whole file. *)

let split_suppressed (src : Source.t) findings =
  let item_spans =
    List.map
      (fun (it : Scan.item) -> (it.Scan.start_line, it.Scan.end_line))
      (Scan.items src.Source.structure)
  in
  List.partition
    (fun f ->
      not (Mm_report.Suppress.covers ~item_spans src.Source.suppressions f))
    findings

(* ------------------------------------------------------------------ *)

let lint_sources (sources : Source.t list) =
  let kept = ref [] and dropped = ref [] and errors = ref [] in
  let by_path =
    List.map (fun (s : Source.t) -> (s.Source.path, s)) sources
  in
  let route (f : Finding.t) =
    match List.assoc_opt f.Mm_report.Finding.file by_path with
    | None -> kept := f :: !kept
    | Some src ->
        let keep, drop = split_suppressed src [ f ] in
        kept := keep @ !kept;
        dropped := drop @ !dropped
  in
  List.iter
    (fun (src : Source.t) ->
      List.iter
        (fun (line, token) ->
          errors :=
            ( src.Source.path,
              Printf.sprintf
                "line %d: mm-lint suppression names no known rule (%s)" line
                token )
            :: !errors)
        src.Source.bad_suppressions;
      List.iter route (Rules.check_file src))
    sources;
  List.iter route (Registry.check sources);
  {
    tool = "mm-lint";
    findings = List.sort_uniq Finding.compare !kept;
    suppressed = List.sort_uniq Finding.compare !dropped;
    errors = List.rev !errors;
    files = List.length sources;
  }

let run ~root ~paths =
  let files = collect ~root paths in
  let sources, load_errors = load ~root files in
  let r = lint_sources sources in
  { r with errors = load_errors @ r.errors }
