(* mm-lint checked: every rule fires on its planted fixture, the real
   tree is clean (modulo the documented suppressions), and deleting
   any Rt.label line from the lock-free sections is caught — by R1 when
   the label guards a CAS window, by R5's unused-entry check otherwise.

   The tests run against the _build source mirror: dune copies every
   library source there because the test links every library, so the
   linted tree is exactly the one being compiled. *)

module D = Mm_lint.Driver
module F = Mm_report.Finding
module R = Mm_lint.Rule
module Src = Mm_lint.Source
open Util

(* cwd is _build/default/test; its parent holds lib/ and test/. Falls
   back to dune-project for runs from the real root. *)
let tree_root () =
  let is_dir p = Sys.file_exists p && Sys.is_directory p in
  let looks_like_root dir =
    Sys.file_exists (Filename.concat dir "dune-project")
    || (is_dir (Filename.concat dir "lib")
       && is_dir (Filename.concat dir "test"))
  in
  let rec up dir =
    if looks_like_root dir then dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then Alcotest.fail "cannot locate the source tree"
      else up parent
  in
  up (Sys.getcwd ())

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let count rule file r =
  List.length
    (List.filter
       (fun (f : F.t) -> f.F.rule = R.name rule && f.F.file = file)
       r.D.findings)

let fixtures_flagged () =
  let root = Filename.concat (tree_root ()) "test/lint_fixtures" in
  let r = D.run ~root ~paths:[ "lib" ] in
  Alcotest.(check (list (pair string string))) "no errors" [] r.D.errors;
  Alcotest.(check int) "R1 fixture" 1
    (count R.Unlabelled_cas_window "lib/core/bad_cas_window.ml" r);
  Alcotest.(check int) "R1 fixture (pages)" 1
    (count R.Unlabelled_cas_window "lib/pages/bad_buddy_cas.ml" r);
  Alcotest.(check int) "R2 fixture" 5
    (count R.Raw_primitive "lib/core/bad_raw_mutex.ml" r);
  Alcotest.(check int) "R3 fixture" 2
    (count R.Blocking_in_lockfree "lib/core/bad_blocking.ml" r);
  Alcotest.(check int) "R4 fixture: both failure shapes" 2
    (count R.Hp_protect "lib/core/bad_hp_deref.ml" r);
  Alcotest.(check int) "R5 fixture: literal label" 1
    (count R.Label_registry "lib/core/bad_literal_label.ml" r);
  Alcotest.(check int) "R5 fixture: dup + orphan + unlisted" 3
    (count R.Label_registry "lib/core/labels.ml" r);
  Alcotest.(check int) "R6 fixture: facilities + hooked create" 3
    (count R.Sim_capability "lib/harness/bad_sim_hook.ml" r);
  (* the clean fixtures stay clean *)
  List.iter
    (fun file ->
      List.iter
        (fun rule ->
          Alcotest.(check int) ("clean " ^ file) 0 (count rule file r))
        R.all)
    [ "lib/core/good_labelled.ml"; "lib/lockfree/good_ring.ml";
      "lib/lockfree/lf_labels.ml"; "lib/pages/pg_labels.ml" ];
  (* the fixture suppression moved its finding to the suppressed list *)
  Alcotest.(check int) "suppressed count" 1 (List.length r.D.suppressed);
  match r.D.suppressed with
  | [ f ] ->
      Alcotest.(check string) "suppressed file" "lib/core/good_labelled.ml"
        f.F.file;
      Alcotest.(check string) "suppressed rule" "unlabelled-cas-window"
        f.F.rule
  | _ -> Alcotest.fail "expected exactly one suppressed finding"

let unknown_suppression_rule_is_error () =
  match
    Src.parse ~path:"lib/core/x.ml"
      "(* mm-lint: allow hp-protekt: typo *)\nlet x = 1\n"
  with
  | Error e -> Alcotest.failf "fixture did not parse: %s" e
  | Ok src -> (
      Alcotest.(check int) "no suppression accepted" 0
        (List.length src.Src.suppressions);
      match src.Src.bad_suppressions with
      | [ (1, "hp-protekt") ] -> ()
      | _ -> Alcotest.fail "typoed rule token was not flagged")

let real_tree_clean () =
  let r = D.run ~root:(tree_root ()) ~paths:[ "lib" ] in
  Alcotest.(check (list (pair string string))) "no errors" [] r.D.errors;
  List.iter
    (fun f ->
      Alcotest.failf "real tree finding: %s" (Format.asprintf "%a" F.pp f))
    r.D.findings;
  (* exactly the documented suppressions (space.ml bump_peak,
     desc_pool.ml available, and the obs ring's host-side cursor —
     four references inside one module item, DESIGN.md §12) *)
  Alcotest.(check (list (pair string string)))
    "documented suppressions"
    [
      ("lib/core/desc_pool.ml", "hp-protect");
      ("lib/mem/space.ml", "unlabelled-cas-window");
      ("lib/obs/ring.ml", "raw-primitive");
      ("lib/obs/ring.ml", "raw-primitive");
      ("lib/obs/ring.ml", "raw-primitive");
      ("lib/obs/ring.ml", "raw-primitive");
    ]
    (List.sort compare
       (List.map (fun (f : F.t) -> (f.F.file, f.F.rule)) r.D.suppressed))

(* Deleting any Rt.label line must be caught by lint ∪ sa: by R1 when
   the label guards a syntactically visible CAS window, by R5's
   unused-entry check otherwise, and by mm-sa's label-dominance
   analysis where the window lives behind a call. Exactly one deletion
   breaks no labelled window and so is caught by neither: the descriptor
   pool's tagged-variant desc_alloc label, a decision point ahead of
   Tis.pop, whose own CAS window carries the registry label
   tis.pop_cas. The runtime case "desc: tagged kill at alloc label"
   (test_desc.ml) guards that line instead: it fails when no thread
   reaches desc.alloc in a tagged pool. The walk pins that one line,
   and checks that both tis labels were deleted and caught. *)
let label_deletion_detected () =
  let root = tree_root () in
  let sa_root = Test_sa.repo_root () in
  let files =
    D.collect ~root [ "lib/core"; "lib/lockfree"; "lib/mem"; "lib/pages" ]
  in
  let sources, errs = D.load ~root files in
  Alcotest.(check (list (pair string string))) "sources load" [] errs;
  (* .cmt loads are cached once; each sa probe re-typechecks only the
     modified unit against the compiled interfaces *)
  let sa_units, sa_errs =
    Mm_sa.Driver.load ~root:sa_root
      (Mm_sa.Driver.collect ~root:sa_root Mm_sa.Driver.default_paths)
  in
  Alcotest.(check (list (pair string string))) "units load" [] sa_errs;
  let sa_detects path text' =
    match Mm_sa.Tast.typecheck ~root:sa_root ~path text' with
    | Error e -> Alcotest.failf "%s no longer typechecks: %s" path e
    | Ok u' ->
        let units =
          List.map
            (fun (u : Mm_sa.Tast.unit_t) ->
              if u.Mm_sa.Tast.u_path = path then u' else u)
            sa_units
        in
        (Mm_sa.Driver.analyze_units units).Mm_sa.Driver.findings <> []
  in
  let deletions = ref 0 and undetected = ref [] and sa_only = ref [] in
  let tis_deletions = ref 0 in
  List.iter
    (fun (src : Src.t) ->
      let lines = String.split_on_char '\n' src.Src.text in
      List.iteri
        (fun i line ->
          if contains ~sub:"Rt.label" line then begin
            incr deletions;
            if contains ~sub:"Lf_labels.tis_" line then incr tis_deletions;
            let text' =
              String.concat "\n"
                (List.filteri (fun j _ -> j <> i) lines)
            in
            match Src.parse ~path:src.Src.path text' with
            | Error e ->
                Alcotest.failf "%s minus line %d no longer parses: %s"
                  src.Src.path (i + 1) e
            | Ok src' ->
                let tree =
                  List.map
                    (fun (s : Src.t) ->
                      if s.Src.path = src.Src.path then src' else s)
                    sources
                in
                let r = D.lint_sources tree in
                if r.D.findings = [] then
                  if sa_detects src.Src.path text' then
                    sa_only := (src.Src.path, String.trim line) :: !sa_only
                  else
                    undetected :=
                      (src.Src.path, String.trim line) :: !undetected
          end)
        lines)
    sources;
  (* the walk actually exercised the instrumentation points *)
  Alcotest.(check bool) "saw many label sites" true (!deletions > 20);
  Alcotest.(check int) "both tis labels deleted" 2 !tis_deletions;
  Alcotest.(check (list (pair string string)))
    "no deletion needs mm-sa" [] (List.rev !sa_only);
  match !undetected with
  | [ (file, line) ]
    when Filename.basename file = "desc_pool.ml"
         && contains ~sub:"Labels.desc_alloc" line ->
      ()
  | l ->
      Alcotest.failf
        "expected every deletion but the tagged-variant desc_alloc \
         (guarded by desc: tagged kill at alloc label) to be detected; \
         undetected: %s"
        (String.concat "; "
           (List.map (fun (f, ln) -> f ^ ": " ^ ln) l))

let cases =
  [
    case "fixtures: every rule fires where planted" fixtures_flagged;
    case "unknown suppression rule is an error" unknown_suppression_rule_is_error;
    case "real tree is lint-clean" real_tree_clean;
    case "deleting any Rt.label is detected" label_deletion_detected;
  ]
