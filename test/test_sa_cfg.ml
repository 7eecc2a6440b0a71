(* CFG construction and alias tracking, exercised on snippets
   re-typechecked in-process against the compiled interfaces — the same
   machinery the label-deletion walk uses, so these tests also pin that
   path down. Structural assertions look straight at the event nodes
   and edges; behavioural ones run the full analysis stack on the
   snippet. *)

module Cfg = Mm_sa.Cfg
module D = Mm_sa.Driver
module F = Mm_sa.Finding
open Util

let tc ?(path = "lib/core/sa_cfg_snippet.ml") src =
  match Mm_sa.Tast.typecheck ~root:(Test_sa.repo_root ()) ~path src with
  | Ok u -> u
  | Error e -> Alcotest.failf "snippet does not typecheck: %s" e

let analyze u =
  let r = D.analyze_units [ u ] in
  Alcotest.(check (list (pair string string))) "no errors" [] r.D.errors;
  r.D.findings

let count rule fs =
  List.length (List.filter (fun (f : F.t) -> f.F.rule = rule) fs)

let the_function u =
  match Cfg.functions_of_unit u with
  | [ fn ] -> fn
  | l -> Alcotest.failf "expected 1 function, got %d" (List.length l)

let cas_nodes (fn : Cfg.fn) =
  Array.to_list fn.Cfg.cfg.Cfg.nodes
  |> List.filter_map (fun (n : Cfg.node) ->
         match n.Cfg.n_ev with
         | Cfg.Ecas { cell; used; _ } -> Some (cell, used)
         | _ -> None)

let read_cells (fn : Cfg.fn) =
  Array.to_list fn.Cfg.cfg.Cfg.nodes
  |> List.filter_map (fun (n : Cfg.node) ->
         match n.Cfg.n_ev with Cfg.Eread { cell } -> Some cell | _ -> None)

let has_edge kind (fn : Cfg.fn) =
  Array.exists
    (fun (n : Cfg.node) -> List.exists (fun (k, _) -> k = kind) n.Cfg.n_succ)
    fn.Cfg.cfg.Cfg.nodes

(* An or-pattern binds the payload of the scrutinee read on both
   branches; the deref in the nested match is then recognized as
   touching a read-derived descriptor and flagged. *)
let nested_match_or_pattern () =
  let fs =
    analyze
      (tc
         "module Rt = Mm_runtime.Sim_rt\n\
          type nd = { mutable next_d : nd option; tag : int }\n\
          let peek (t : nd option Rt.atomic) =\n\
         \  match Rt.Atomic.get t with\n\
         \  | Some ({ tag = 0; _ } as d) | Some d ->\n\
         \      (match d.next_d with Some _ -> 1 | None -> 0)\n\
         \  | None -> 0\n")
  in
  Alcotest.(check int) "deref flagged through the or-pattern" 1
    (count "hp-protocol" fs);
  Alcotest.(check int) "nothing else" 1 (List.length fs)

(* A while-CAS loop is a strong (retry) backedge: no stale-expected
   complaint for a constant expected value, but the label obligation
   recurs every iteration. *)
let while_cas_loop () =
  let u =
    tc
      "module Rt = Mm_runtime.Sim_rt\n\
       let lock (f : bool Rt.atomic) =\n\
      \  while not (Rt.Atomic.compare_and_set f false true) do () done\n"
  in
  let fn = the_function u in
  (match cas_nodes fn with
  | [ (_, used) ] -> Alcotest.(check bool) "result-bearing" true used
  | l -> Alcotest.failf "expected 1 CAS node, got %d" (List.length l));
  Alcotest.(check bool) "strong backedge" true (has_edge Cfg.Back_strong fn);
  Alcotest.(check bool) "no weak backedge" false (has_edge Cfg.Back_weak fn);
  let fs = analyze u in
  Alcotest.(check int) "constant expected is not stale" 0
    (count "cas-loop-progress" fs);
  Alcotest.(check int) "unlabelled retry CAS" 1 (count "label-dominance" fs)

(* Alias tracking: the atomic reached through a let-bound field alias
   resolves to the same cell at the read and at the CAS, so the
   stale-expected check sees through the alias. *)
let alias_tracking () =
  let u =
    tc
      "module Rt = Mm_runtime.Sim_rt\n\
       type h = { mutable w : int Rt.atomic }\n\
       let stale (hh : h) =\n\
      \  let cell = hh.w in\n\
      \  let seen = Rt.Atomic.get cell in\n\
      \  let rec go () =\n\
      \    if Rt.Atomic.compare_and_set cell seen (seen + 1) then () else go \
       ()\n\
      \  in\n\
      \  go ()\n"
  in
  let fn = the_function u in
  (match (read_cells fn, cas_nodes fn) with
  | [ rc ], [ (cc, _) ] ->
      Alcotest.(check string) "read and CAS name one cell" rc cc
  | _ -> Alcotest.fail "expected exactly one read and one CAS");
  let fs = analyze u in
  Alcotest.(check int) "stale expected seen through the alias" 1
    (count "cas-loop-progress" fs)

(* Partial application walks as a plain call; an iterator lambda
   inlines as a weak loop, so the label armed before List.iter still
   dominates the helping CAS inside it. *)
let partial_application_weak_loop () =
  let u =
    tc
      "module Rt = Mm_runtime.Sim_rt\n\
       open Mm_core\n\
       let push_all rt (c : int Rt.atomic) xs =\n\
      \  Rt.label rt Labels.desc_alloc;\n\
      \  let bump = ( + ) 1 in\n\
      \  List.iter\n\
      \    (fun x ->\n\
      \      let v = Rt.Atomic.get c in\n\
      \      ignore (Rt.Atomic.compare_and_set c v (bump v + x)))\n\
      \    xs\n"
  in
  let fn = the_function u in
  (match cas_nodes fn with
  | [ (_, used) ] ->
      Alcotest.(check bool) "ignore (CAS ...) is a helping CAS" false used
  | l -> Alcotest.failf "expected 1 CAS node, got %d" (List.length l));
  Alcotest.(check bool) "weak backedge" true (has_edge Cfg.Back_weak fn);
  Alcotest.(check bool) "no strong backedge" false
    (has_edge Cfg.Back_strong fn);
  Alcotest.(check (list (pair string string))) "clean" []
    (List.map
       (fun (f : F.t) -> (f.F.rule, f.F.message))
       (analyze u))

let cases =
  [
    case "or-patterns bind read payloads on every branch"
      nested_match_or_pattern;
    case "while-CAS loops are strong backedges" while_cas_loop;
    case "let-bound field aliases resolve to one cell" alias_tracking;
    case "partial application and weak iterator loops"
      partial_application_weak_loop;
  ]
