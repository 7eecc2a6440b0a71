type result = Mm_report.Output.result = {
  tool : string;
  findings : Mm_report.Finding.t list;
  suppressed : Mm_report.Finding.t list;
  errors : (string * string) list;
  files : int;
}

(* The units mm-sa analyzes by default: the allocator's lock-free core.
   Harness/check/obs code is exercised dynamically and has no
   lock-free publication protocol of its own. Each body there is
   compiled twice (DESIGN.md §18); mm-sa reads the real copy's .cmt
   files and skips the sim/ directories, which hold the simulator copy
   (only its rt.ml in the source tree, also the copied sources in the
   build tree). *)
let default_paths = [ "lib/core"; "lib/lockfree"; "lib/mem"; "lib/pages" ]

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

let load ~root files =
  let units = ref [] and errors = ref [] in
  List.iter
    (fun path ->
      match Tast.load_cmt ~root path with
      | Ok u -> units := u :: !units
      | Error msg -> errors := (path, msg) :: !errors)
    files;
  (List.rev !units, List.rev !errors)

let suppressions (u : Tast.unit_t) =
  Mm_report.Suppress.scan ~marker:"mm-sa:"
    ~known:(fun tok -> Analysis.of_name tok <> None)
    u.Tast.u_text

(* Analyze already-loaded units (the label-deletion regression walk
   re-typechecks one modified unit and reuses cached .cmt loads for the
   rest, then calls this directly). *)
let analyze_units ?(analyses = Analysis.all) (units : Tast.unit_t list) =
  let findings = Checks.analyze ~analyses units in
  let by_path = List.map (fun (u : Tast.unit_t) -> (u.Tast.u_path, u)) units in
  let errors = ref [] in
  let sups_by_path =
    List.map
      (fun (u : Tast.unit_t) ->
        let sups, bad = suppressions u in
        List.iter
          (fun (line, token) ->
            errors :=
              ( u.Tast.u_path,
                Printf.sprintf
                  "line %d: mm-sa suppression names no known analysis (%s)"
                  line token )
              :: !errors)
          bad;
        (u.Tast.u_path, sups))
      units
  in
  let kept, dropped =
    List.partition
      (fun (f : Mm_report.Finding.t) ->
        match List.assoc_opt f.Mm_report.Finding.file by_path with
        | None -> true
        | Some u ->
            let sups = List.assoc f.Mm_report.Finding.file sups_by_path in
            not
              (Mm_report.Suppress.covers ~item_spans:(Cfg.item_spans u) sups f))
      findings
  in
  {
    tool = "mm-sa";
    findings = kept;
    suppressed = dropped;
    errors = List.rev !errors;
    files = List.length units;
  }

let run ~root ?(analyses = Analysis.all) ?(paths = default_paths) () =
  let files = collect ~root paths in
  let units, load_errors = load ~root files in
  let r = analyze_units ~analyses units in
  { r with errors = load_errors @ r.errors }
