(* Trace generation, serialization and replay. *)

open Mm_runtime
module Tr = Mm_workloads.Trace
module I = Mm_mem.Alloc_intf
open Util

let well_formed (t : Tr.t) =
  (* Every id malloc'd exactly once, freed exactly once, free after
     malloc in logical order. *)
  let seen_m = Array.make t.Tr.mallocs false in
  let seen_f = Array.make t.Tr.mallocs false in
  Array.iter
    (fun e ->
      match e with
      | Tr.Malloc { id; size; thread } ->
          if seen_m.(id) then Alcotest.failf "id %d malloc'd twice" id;
          seen_m.(id) <- true;
          if size < 0 then Alcotest.fail "negative size";
          if thread < 0 || thread >= t.Tr.threads then
            Alcotest.fail "bad thread"
      | Tr.Free { id; thread } ->
          if not seen_m.(id) then Alcotest.failf "id %d freed before malloc" id;
          if seen_f.(id) then Alcotest.failf "id %d freed twice" id;
          seen_f.(id) <- true;
          if thread < 0 || thread >= t.Tr.threads then
            Alcotest.fail "bad thread")
    t.Tr.events;
  Array.iteri
    (fun id f -> if not f then Alcotest.failf "id %d never freed" id)
    seen_f

let generation () =
  let t = Tr.generate ~seed:3 ~threads:4 ~ops:1_000 () in
  well_formed t;
  Alcotest.(check bool) "has events" true (Array.length t.Tr.events > 1_000);
  Alcotest.(check bool) "live peak sane" true (Tr.max_live t > 10);
  Alcotest.(check bool) "bytes accumulated" true (Tr.total_bytes t > 0)

let deterministic () =
  let a = Tr.generate ~seed:5 () and b = Tr.generate ~seed:5 () in
  Alcotest.(check bool) "same seed, same trace" true (a = b);
  let c = Tr.generate ~seed:6 () in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let serialization_roundtrip =
  qcheck ~count:30 "to_string/of_string roundtrip"
    QCheck2.Gen.(int_range 1 5_000)
    (fun seed ->
      let t = Tr.generate ~seed ~ops:200 () in
      Tr.of_string (Tr.to_string t) = t)

let of_string_rejects () =
  Alcotest.(check bool) "garbage rejected" true
    (match Tr.of_string "nonsense" with
    | _ -> false
    | exception Failure _ -> true)

let replay_all_allocators () =
  let trace = Tr.generate ~seed:7 ~threads:4 ~ops:800 () in
  List.iter
    (fun name ->
      let s = sim ~cpus:4 () in
      let inst = instance name (Rt.simulated s) in
      let m = Tr.run inst trace in
      Alcotest.(check int) "all events replayed"
        (Array.length trace.Tr.events)
        m.Mm_workloads.Metrics.ops;
      inst.I.check ())
    all_allocators

let replay_real_runtime () =
  let trace = Tr.generate ~seed:11 ~threads:4 ~ops:1_500 () in
  let inst = instance "new" Rt.real in
  ignore (Tr.run inst trace);
  inst.I.check ()

let cross_thread_waits () =
  (* With a 100% cross-thread trace the replay exercises the
     publish/wait protocol hard. *)
  let trace =
    Tr.generate ~seed:13 ~threads:4 ~ops:600 ~cross_thread_fraction:1.0 ()
  in
  let s = sim ~cpus:4 () in
  let inst = instance "new" (Rt.simulated s) in
  ignore (Tr.run inst trace);
  inst.I.check ()

let cases =
  [
    case "generation well-formed" generation;
    case "generation deterministic" deterministic;
    serialization_roundtrip;
    case "of_string rejects garbage" of_string_rejects;
    case "replay on all allocators (sim)" replay_all_allocators;
    case "replay on real runtime" replay_real_runtime;
    case "fully cross-thread replay" cross_thread_waits;
  ]
