(* mm-sa checked end-to-end: every planted fixture fires with its file
   and line, the real tree is clean modulo its reasoned suppressions,
   the suppression machinery routes covered findings into the
   suppressed list, a typoed suppression token is an error, the
   --analysis filter narrows the run, a functor body cannot hide code
   from the flow analyses, and deleting any Rt.label line from the
   lock-free sections is caught. The lint cases pin the same for the
   rules of the retired syntactic checker, run as mm-sa checks.

   The fixture libraries under test/sa_fixtures are compiled (the test
   depends on @check), so mm-sa reads the same kind of .cmt artifacts
   here as it does for the real tree. *)

module D = Mm_sa.Driver
module A = Mm_sa.Analysis
module F = Mm_sa.Finding
module Tast = Mm_sa.Tast
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

let fx = "test/sa_fixtures/lib/"
let is_fixture path = String.starts_with ~prefix:"test/sa_fixtures/" path

(* Every unit the cases analyze — the real tree (lib, bin) and the
   fixtures — loaded and prepared once; each case analyzes a subset. *)
let loaded =
  lazy
    (let root = repo_root () in
     let units, errors =
       D.load ~root (D.collect ~root (D.default_paths @ [ "test/sa_fixtures" ]))
     in
     (List.map D.prepare units, errors))

let analyze ?analyses keep =
  let ps, load_errors = Lazy.force loaded in
  let r =
    D.analyze_prepared ?analyses
      (List.filter (fun (p : D.prepared) -> keep p.D.p_unit.Tast.u_path) ps)
  in
  { r with D.errors = List.filter (fun (f, _) -> keep f) load_errors @ r.D.errors }

let lines rule file r =
  List.sort compare
    (List.filter_map
       (fun (f : F.t) ->
         if f.F.rule = rule && f.F.file = fx ^ file then Some f.F.line
         else None)
       r.D.findings)

let suppressed_pairs r =
  List.sort compare
    (List.map (fun (f : F.t) -> (f.F.file, f.F.rule)) r.D.suppressed)

(* The real tree's reasoned suppressions: the descriptor pool's
   quiescent-only freelist walk, the two heap_gid stores ahead of an
   anchor CAS (three calls in malloc_from_partial, one in
   ob_acquire_partial), the statistics-only peak CAS, the store's
   [clean] flag ahead of the superblock pool's push, and the obs
   ring's host-side cursor (four references inside one module item). *)
let real_suppressions =
  [
    ("lib/core/desc_pool.ml", "hp-protocol");
    ("lib/core/lf_alloc.ml", "write-before-publish");
    ("lib/core/lf_alloc.ml", "write-before-publish");
    ("lib/core/lf_alloc.ml", "write-before-publish");
    ("lib/core/lf_alloc.ml", "write-before-publish");
    ("lib/mem/space.ml", "label-dominance");
    ("lib/mem/store.ml", "write-before-publish");
    ("lib/obs/ring.ml", "raw-primitive");
    ("lib/obs/ring.ml", "raw-primitive");
    ("lib/obs/ring.ml", "raw-primitive");
    ("lib/obs/ring.ml", "raw-primitive");
  ]

(* The whole run over the real tree and the fixtures, shared by the
   fixture cases. *)
let everything = lazy (analyze (fun _ -> true))

let pin r what rule file expected =
  Alcotest.(check (list int)) what expected (lines rule file r)

let check_clean r files =
  List.iter
    (fun file ->
      Alcotest.(check (list string))
        ("clean " ^ file) []
        (List.filter_map
           (fun (f : F.t) ->
             if f.F.file = fx ^ file then Some f.F.rule else None)
           r.D.findings))
    files

let fixtures_flagged () =
  let r = Lazy.force everything in
  let pin = pin r in
  (* the flow analyses *)
  pin "S1: raw deref, unvalidated deref, leaked slot" "hp-protocol"
    "core/bad_hp.ml" [ 16; 24; 35 ];
  pin "S2: stale expected + double commit" "cas-loop-progress"
    "core/bad_retry.ml" [ 14; 24 ];
  pin "S3: unfenced publish (fenced twin clean)" "write-before-publish"
    "core/bad_publish.ml" [ 16 ];
  pin "S3: unfenced stores before a lifted publishing loop (fenced twin \
       clean)"
    "write-before-publish" "core/lifted_publish.ml" [ 24 ];
  pin "S3: a retry publishing the same block again (re-bound twin clean)"
    "write-before-publish" "core/rebound_publish.ml" [ 32 ];
  pin "S4: unlabelled loop, undischarged window, escaped entry"
    "label-dominance" "core/bad_label.ml" [ 15; 19; 25 ];
  pin "S4: pages fixture" "label-dominance" "pages/bad_order_cas.ml" [ 9 ];
  pin "S4: lifted loop behind a ~label-forwarding wrapper (direct twin \
       clean)"
    "label-dominance" "core/lifted_label.ml" [ 23 ];
  (* the clean fixture stays clean *)
  check_clean r [ "core/param_window.ml" ];
  (* ... and nothing else: the real tree contributes no findings, and
     the planted cases of the ported lint rules are pinned by the lint
     fixtures case *)
  Alcotest.(check int) "only fixture findings" 32 (List.length r.D.findings);
  List.iter
    (fun (f : F.t) ->
      if not (is_fixture f.F.file) then
        Alcotest.failf "real-tree finding: %s" (Format.asprintf "%a" F.pp f))
    r.D.findings;
  (* the covered fixture violations moved to the suppressed list,
     alongside the real tree's documented suppressions *)
  Alcotest.(check (list (pair string string)))
    "suppressed"
    (List.sort compare
       (real_suppressions
       @ [
           (fx ^ "core/good_labelled.ml", "label-dominance");
           (fx ^ "core/sup_ok.ml", "write-before-publish");
         ]))
    (suppressed_pairs r);
  (* a typoed token is an error, not a silent no-op *)
  Alcotest.(check (list (pair string string)))
    "unknown suppression tokens"
    [
      ( fx ^ "core/bad_token.ml",
        "line 4: mm-sa suppression names no known check (hp-protokol)" );
      ( fx ^ "core/bad_token.ml",
        "line 7: mm-sa suppression names no known check (raw-primitve)" );
    ]
    r.D.errors

let real_tree_clean () =
  let r = analyze (fun f -> not (is_fixture f)) in
  Alcotest.(check (list (pair string string))) "no errors" [] r.D.errors;
  List.iter
    (fun (f : F.t) ->
      Alcotest.failf "real tree finding: %s" (Format.asprintf "%a" F.pp f))
    r.D.findings;
  Alcotest.(check (list (pair string string)))
    "documented suppressions" real_suppressions (suppressed_pairs r)

let analysis_filter () =
  let r = analyze ~analyses:[ A.Write_before_publish ] (fun _ -> true) in
  List.iter
    (fun (f : F.t) ->
      Alcotest.(check string) "filtered rule only" "write-before-publish"
        f.F.rule)
    r.D.findings;
  Alcotest.(check (list int))
    "S3 fixture still fires" [ 16 ]
    (lines "write-before-publish" "core/bad_publish.ml" r);
  Alcotest.(check int) "every other check filtered out" 3
    (List.length r.D.findings)

(* The flow analyses do not descend into functor bodies, so a functor
   with a body in a lock-free unit is a load error rather than a place a
   CAS could hide; a shim that only returns a module path holds no code,
   and outside the lock-free sections functors are fine. *)
let functor_is_load_error () =
  let root = repo_root () in
  let body =
    "module Make (Rt : Mm_runtime.Runtime_intf.S) = struct\n\
    \  let bump (c : int Rt.atomic) = Rt.Atomic.incr c\n\
     end\n"
  in
  (match Tast.typecheck ~root ~path:"lib/core/sa_functor.ml" body with
  | Error e ->
      Alcotest.(check bool)
        "names the functor" true
        (String.starts_with ~prefix:"line 1: functor body not analyzed" e)
  | Ok _ -> Alcotest.fail "a functor body in lib/core loaded");
  (match
     Tast.typecheck ~root ~path:"lib/core/sa_shim.ml"
       "module type S = sig end\nmodule M = struct end\nmodule Make (_ : S) = M\n"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "a module-path shim was rejected: %s" e);
  match Tast.typecheck ~root ~path:"lib/workloads/sa_functor.ml" body with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "a functor outside the lock-free sections: %s" e

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* Deleting any Rt.label line in the lock-free sections must be caught:
   by label-dominance when the label guards a CAS window, including
   through callers' labels, and by label-registry's unused-entry check
   when the deleted line was the registry entry's only use. No
   deletion may go unnoticed, and the walk checks that both tis labels
   were deleted and caught.

   Each probe re-typechecks only the modified unit against the compiled
   interfaces and re-prepares only that unit; the other units' facts
   are reused, and only the cross-unit checks run again. *)
let label_deletion_detected () =
  let root = repo_root () in
  let base =
    List.filter
      (fun (p : D.prepared) ->
        let u = p.D.p_unit in
        (not (is_fixture u.Tast.u_path))
        && Tast.in_lockfree_scope u.Tast.u_section)
      (fst (Lazy.force loaded))
  in
  Alcotest.(check int) "the tree starts clean" 0
    (List.length (D.analyze_prepared base).D.findings);
  let deletions = ref 0 and undetected = ref [] and tis_deletions = ref 0 in
  List.iter
    (fun (p : D.prepared) ->
      let u = p.D.p_unit in
      let path = u.Tast.u_path in
      let text_lines = String.split_on_char '\n' u.Tast.u_text in
      List.iteri
        (fun i line ->
          if contains ~sub:"Rt.label" line then begin
            incr deletions;
            if contains ~sub:"Lf_labels.tis_" line then incr tis_deletions;
            let text' =
              String.concat "\n" (List.filteri (fun j _ -> j <> i) text_lines)
            in
            match Tast.typecheck ~root ~path text' with
            | Error e ->
                Alcotest.failf "%s minus line %d no longer typechecks: %s" path
                  (i + 1) e
            | Ok u' ->
                let probe =
                  List.map
                    (fun (p : D.prepared) ->
                      if p.D.p_unit.Tast.u_path = path then D.prepare u' else p)
                    base
                in
                if (D.analyze_prepared probe).D.findings = [] then
                  undetected := (path, String.trim line) :: !undetected
          end)
        text_lines)
    base;
  (* the walk actually exercised the instrumentation points *)
  Alcotest.(check bool) "saw many label sites" true (!deletions > 20);
  Alcotest.(check int) "both tis labels deleted" 2 !tis_deletions;
  match !undetected with
  | [] -> ()
  | l ->
      Alcotest.failf "expected every deletion to be detected; undetected: %s"
        (String.concat "; " (List.map (fun (f, ln) -> f ^ ": " ^ ln) l))

(* The rules of the retired syntactic checker mm-lint, R1-R6, run as
   mm-sa checks: R1 in label-dominance, R4 in hp-protocol, and R2, R3,
   R5 and R6 under their old names. These cases pin each planted lint
   case, the suppression-token error and the real tree's verdict on
   those checks alone. *)
let ported =
  A.
    [
      Label_dominance;
      Raw_primitive;
      Blocking_in_lockfree;
      Hp_protocol;
      Label_registry;
      Sim_capability;
    ]

let lint_fixtures_flagged () =
  let r = Lazy.force everything in
  let pin = pin r in
  pin "R1: unlabelled straight-line window" "label-dominance"
    "core/bad_cas_window.ml" [ 9 ];
  pin "R1: pages window, labelled twins clean" "label-dominance"
    "pages/bad_buddy_cas.ml" [ 10 ];
  pin "R2: raw primitives" "raw-primitive" "core/bad_raw_mutex.ml"
    [ 4; 5; 8; 9; 10 ];
  pin "R3: lock substrate in a lock-free section" "blocking-in-lockfree"
    "core/bad_blocking.ml" [ 5; 7 ];
  pin "R4: both next_d shapes, and an untracked parameter" "hp-protocol"
    "core/bad_hp_deref.ml" [ 14; 23; 29 ];
  pin "R5: literal label" "label-registry" "core/bad_literal_label.ml" [ 6 ];
  pin "R5: dup + orphan + unlisted" "label-registry" "core/labels.ml"
    [ 7; 8; 9 ];
  pin "R6: facilities + hooked create" "sim-capability"
    "harness/bad_sim_hook.ml" [ 9; 9; 11 ];
  check_clean r
    [
      "core/good_labelled.ml";
      "lockfree/good_ring.ml";
      "lockfree/lf_labels.ml";
      "pages/pg_labels.ml";
    ];
  (* the fixture's suppression moved its R1 finding to the suppressed
     list *)
  Alcotest.(check (list string))
    "suppressed in good_labelled.ml" [ "label-dominance" ]
    (List.filter_map
       (fun (f : F.t) ->
         if f.F.file = fx ^ "core/good_labelled.ml" then Some f.F.rule
         else None)
       r.D.suppressed)

let unknown_suppression_rule_is_error () =
  let known name = A.of_name name <> None in
  let sups, bad =
    Mm_sa.Suppress.scan ~known
      "(* mm-sa: allow hp-protekt: typo *)\nlet x = 1\n"
  in
  Alcotest.(check int) "no suppression accepted" 0 (List.length sups);
  Alcotest.(check (list (pair int string)))
    "typoed rule token flagged" [ (1, "hp-protekt") ] bad

let real_tree_lint_clean () =
  let r = analyze ~analyses:ported (fun f -> not (is_fixture f)) in
  Alcotest.(check (list (pair string string))) "no errors" [] r.D.errors;
  List.iter
    (fun (f : F.t) ->
      Alcotest.failf "real tree finding: %s" (Format.asprintf "%a" F.pp f))
    r.D.findings;
  Alcotest.(check (list (pair string string)))
    "documented suppressions"
    (List.filter
       (fun (_, rule) -> rule <> "write-before-publish")
       real_suppressions)
    (suppressed_pairs r)

let lint_cases =
  [
    case "fixtures: every rule fires where planted" lint_fixtures_flagged;
    case "unknown suppression rule is an error"
      unknown_suppression_rule_is_error;
    case "real tree is lint-clean" real_tree_lint_clean;
  ]

let cases =
  [
    case "fixtures: every analysis fires where planted" fixtures_flagged;
    case "real tree is sa-clean" real_tree_clean;
    case "--analysis narrows the run" analysis_filter;
    case "a functor body in a lock-free unit is a load error"
      functor_is_load_error;
    case "deleting any Rt.label is detected" label_deletion_detected;
  ]
