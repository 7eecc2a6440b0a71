(* mm-sa checked end-to-end: every planted fixture fires with its file
   and line, the real tree is clean modulo the two reasoned
   suppressions, the shared suppression machinery routes covered
   findings into the suppressed list, the --analysis filter narrows the
   run, and a typoed suppression token is an error.

   The fixture libraries under test/sa_fixtures are compiled (the test
   depends on @check), so mm-sa reads the same kind of .cmt artifacts
   here as it does for the real tree. *)

module D = Mm_sa.Driver
module A = Mm_sa.Analysis
module F = Mm_report.Finding
open Util

(* mm-sa needs the real repository root — both the sources and the
   _build tree holding the .cmt files. Under dune the test runs in
   _build/default/test, so walk up to the directory that contains
   _build/default (the _build mirror itself has no nested _build). *)
let repo_root () =
  let rec up dir =
    let probe = Filename.concat dir "_build/default" in
    if Sys.file_exists probe && Sys.is_directory probe then dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then Alcotest.fail "cannot locate the repository root"
      else up parent
  in
  up (Sys.getcwd ())

let fixture_paths = D.default_paths @ [ "test/sa_fixtures" ]

let lines rule file r =
  List.sort compare
    (List.filter_map
       (fun (f : F.t) ->
         if f.F.rule = rule && f.F.file = file then Some f.F.line else None)
       r.D.findings)

let suppressed_pairs r =
  List.sort compare
    (List.map (fun (f : F.t) -> (f.F.file, f.F.rule)) r.D.suppressed)

let fixtures_flagged () =
  let r = D.run ~root:(repo_root ()) ~paths:fixture_paths () in
  (* every planted violation is reported, with its file and line *)
  Alcotest.(check (list int))
    "S1: raw deref, unvalidated deref, leaked slot" [ 18; 26; 37 ]
    (lines "hp-protocol" "test/sa_fixtures/lib/core/bad_hp.ml" r);
  Alcotest.(check (list int))
    "S2: stale expected + double commit" [ 14; 24 ]
    (lines "cas-loop-progress" "test/sa_fixtures/lib/core/bad_retry.ml" r);
  Alcotest.(check (list int))
    "S3: unfenced publish (fenced twin clean)" [ 16 ]
    (lines "write-before-publish" "test/sa_fixtures/lib/core/bad_publish.ml"
       r);
  Alcotest.(check (list int))
    "S4: unlabelled loop, undischarged window, escaped entry"
    [ 17; 21; 27 ]
    (lines "label-dominance" "test/sa_fixtures/lib/core/bad_label.ml" r);
  Alcotest.(check (list int))
    "S4: pages fixture" [ 9 ]
    (lines "label-dominance" "test/sa_fixtures/lib/pages/bad_order_cas.ml" r);
  Alcotest.(check (list int))
    "S4: lifted loop behind a ~label-forwarding wrapper (direct twin clean)"
    [ 23 ]
    (lines "label-dominance" "test/sa_fixtures/lib/core/lifted_label.ml" r);
  (* Known blind spot: S3 works per function, so stores followed by a
     call to a lifted CAS loop that publishes them are not seen. *)
  Alcotest.(check (list int))
    "S3: unfenced stores before a lifted publishing loop (not seen)" []
    (lines "write-before-publish"
       "test/sa_fixtures/lib/core/lifted_publish.ml" r);
  (* ... and nothing else: the real tree contributes no findings *)
  Alcotest.(check int) "only fixture findings" 11
    (List.length r.D.findings);
  List.iter
    (fun (f : F.t) ->
      if not (String.starts_with ~prefix:"test/sa_fixtures/" f.F.file) then
        Alcotest.failf "real-tree finding: %s" (Format.asprintf "%a" F.pp f))
    r.D.findings;
  (* the covered fixture violation moved to the suppressed list,
     alongside the real tree's two documented suppressions *)
  Alcotest.(check (list (pair string string)))
    "suppressed"
    [
      ("lib/core/desc_pool.ml", "hp-protocol");
      ("lib/mem/space.ml", "label-dominance");
      ("test/sa_fixtures/lib/core/sup_ok.ml", "write-before-publish");
    ]
    (suppressed_pairs r);
  (* a typoed token is an error, not a silent no-op *)
  Alcotest.(check (list (pair string string)))
    "unknown suppression token"
    [
      ( "test/sa_fixtures/lib/core/bad_token.ml",
        "line 4: mm-sa suppression names no known analysis (hp-protokol)" );
    ]
    r.D.errors

let real_tree_clean () =
  let r = D.run ~root:(repo_root ()) () in
  Alcotest.(check (list (pair string string))) "no errors" [] r.D.errors;
  List.iter
    (fun (f : F.t) ->
      Alcotest.failf "real tree finding: %s" (Format.asprintf "%a" F.pp f))
    r.D.findings;
  Alcotest.(check (list (pair string string)))
    "documented suppressions"
    [
      ("lib/core/desc_pool.ml", "hp-protocol");
      ("lib/mem/space.ml", "label-dominance");
    ]
    (suppressed_pairs r)

let analysis_filter () =
  let r =
    D.run ~root:(repo_root ())
      ~analyses:[ A.Write_before_publish ]
      ~paths:fixture_paths ()
  in
  List.iter
    (fun (f : F.t) ->
      Alcotest.(check string) "filtered rule only" "write-before-publish"
        f.F.rule)
    r.D.findings;
  Alcotest.(check (list int))
    "S3 fixture still fires" [ 16 ]
    (lines "write-before-publish" "test/sa_fixtures/lib/core/bad_publish.ml"
       r);
  Alcotest.(check int) "S4 fixtures filtered out" 1
    (List.length r.D.findings)

let cases =
  [
    case "fixtures: every analysis fires where planted" fixtures_flagged;
    case "real tree is sa-clean" real_tree_clean;
    case "--analysis narrows the run" analysis_filter;
  ]
