type result = Output.result = {
  findings : Finding.t list;
  suppressed : Finding.t list;
  errors : (string * string) list;
  files : int;
}

(* mm-sa's default scope: every library and executable. The flow
   analyses, blocking-in-lockfree and the label registry look only at
   the lock-free sections within it (Tast.in_lockfree_scope). Each body
   there is compiled twice (DESIGN.md §18); mm-sa reads the real copy's
   .cmt files and skips the sim/ directories, which hold the simulator
   copy (only its rt.ml in the source tree, also the copied sources in
   the build tree). *)
let default_paths = [ "lib"; "bin" ]

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

(* A unit with everything mm-sa computes from it alone: its facts and
   its suppression comments. *)
type prepared = {
  p_unit : Tast.unit_t;
  p_facts : Checks.unit_facts;
  p_sups : Suppress.t list;
  p_bad : (int * string) list;  (* suppressions naming no known check *)
}

let prepare (u : Tast.unit_t) =
  let p_sups, p_bad =
    Suppress.scan ~known:(fun tok -> Analysis.of_name tok <> None) u.Tast.u_text
  in
  { p_unit = u; p_facts = Checks.unit_facts u; p_sups; p_bad }

(* Analyze prepared units (the label-deletion walk re-typechecks and
   re-prepares one modified unit, reusing the others). *)
let analyze_prepared ?(analyses = Analysis.all) (ps : prepared list) =
  let findings = Checks.findings ~analyses (List.map (fun p -> p.p_facts) ps) in
  let by_path = List.map (fun p -> (p.p_unit.Tast.u_path, p)) ps in
  let errors =
    List.concat_map
      (fun p ->
        List.map
          (fun (line, token) ->
            ( p.p_unit.Tast.u_path,
              Printf.sprintf
                "line %d: mm-sa suppression names no known check (%s)" line
                token ))
          p.p_bad)
      ps
  in
  let kept, dropped =
    List.partition
      (fun (f : Finding.t) ->
        match List.assoc_opt f.Finding.file by_path with
        | None -> true
        | Some p ->
            not
              (Suppress.covers
                 ~item_spans:(Cfg.item_spans p.p_unit)
                 p.p_sups f))
      findings
  in
  { findings = kept; suppressed = dropped; errors; files = List.length ps }

let analyze_units ?analyses units =
  analyze_prepared ?analyses (List.map prepare units)

let run ~root ?analyses ?(paths = default_paths) () =
  let files = collect ~root paths in
  let units, load_errors = load ~root files in
  let r = analyze_units ?analyses units in
  { r with errors = load_errors @ r.errors }
