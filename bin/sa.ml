(* mm-sa CLI: the repository's static checker, over the compiler's
   typed ASTs. Reads .cmt files out of _build, so build them first:

     dune build @check
     dune exec bin/sa.exe --
     dune exec bin/sa.exe -- --format json
     dune exec bin/sa.exe -- --analysis label-dominance lib/core
     dune exec bin/sa.exe -- --analysis raw-primitive lib bin

   Suppress a finding in source, adjacent to the code it excuses:

     (* mm-sa: allow <analysis>: <reason> *)

   Exit codes: 0 = clean; 1 = usage error, missing .cmt, a functor body
   in a lock-free unit or an unknown suppression token; 2 = findings. *)

open Cmdliner
module D = Mm_sa.Driver
module A = Mm_sa.Analysis

let find_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

let root_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "root" ] ~docv:"DIR"
        ~doc:
          "Repository root; paths are relative to it (default: the \
           nearest ancestor directory containing dune-project).")

let paths_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"PATH"
        ~doc:
          "Root-relative directories or files to analyze (default: lib \
           bin).")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")

let analyses_arg =
  let aconv =
    Arg.conv
      ( (fun s ->
          match A.of_name s with
          | Some a -> Ok a
          | None ->
              Error
                (`Msg
                  (Printf.sprintf "unknown analysis %s (analyses: %s)" s
                     (String.concat ", " (List.map A.name A.all))))),
        fun fmt a -> Format.pp_print_string fmt (A.name a) )
  in
  Arg.(
    value & opt_all aconv []
    & info [ "analysis" ] ~docv:"ANALYSIS"
        ~doc:"Only run $(docv) (repeatable).")

let run root paths format analyses =
  let root =
    match root with
    | Some r -> Ok r
    | None -> (
        match find_root () with
        | Some r -> Ok r
        | None -> Error "no dune-project found above the current directory")
  in
  match root with
  | Error e ->
      prerr_endline ("sa: " ^ e);
      1
  | Ok root ->
      let analyses = if analyses = [] then A.all else analyses in
      let paths = if paths = [] then D.default_paths else paths in
      let r = D.run ~root ~analyses ~paths () in
      let fmt = Format.std_formatter in
      (match format with
      | `Text -> Mm_sa.Output.text fmt r
      | `Json -> Mm_sa.Output.json fmt r);
      if r.D.errors <> [] then 1 else if r.D.findings <> [] then 2 else 0

let () =
  let doc =
    "Static analysis of the lock-free allocator's CAS protocols and the \
     repository's name rules over typed ASTs (checks: "
    ^ String.concat ", " (List.map A.name A.all)
    ^ ")."
  in
  let info = Cmd.info "sa" ~doc in
  exit
    (Cmd.eval'
       (Cmd.v info
          Term.(const run $ root_arg $ paths_arg $ format_arg $ analyses_arg)))
