(* Metrics records: construction from a real run, formatting, and the
   speedup edge cases (zero baseline, zero elapsed). *)

open Mm_runtime
module Metrics = Mm_workloads.Metrics
open Util

let mk ~ops f =
  let inst = instance "libc" Rt.real in
  let run =
    Rt.parallel_run Rt.real
      [| (fun _ -> f inst) |]
  in
  Metrics.make ~workload:"unit" ~instance:inst ~threads:1 ~ops ~run ()

let burst inst =
  let addrs =
    Array.init 100 (fun _ -> inst.Mm_mem.Alloc_intf.malloc 64)
  in
  Array.iter inst.Mm_mem.Alloc_intf.free addrs

let make_and_pp () =
  let m = mk ~ops:200 burst in
  Alcotest.(check string) "workload" "unit" m.Metrics.workload;
  Alcotest.(check string) "allocator" "libc" m.Metrics.allocator;
  Alcotest.(check int) "ops" 200 m.Metrics.ops;
  Alcotest.(check bool) "throughput positive" true
    (m.Metrics.throughput > 0.0);
  let s = Format.asprintf "%a" Metrics.pp m in
  let contains needle =
    let n = String.length needle and l = String.length s in
    let rec go i = i + n <= l && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      if not (contains needle) then
        Alcotest.failf "pp output %S lacks %S" s needle)
    [ "unit"; "libc"; "t=1"; "ops=200" ]

let speedup_ratio () =
  let base = mk ~ops:100 burst in
  let fast =
    { base with Metrics.throughput = base.Metrics.throughput *. 2.0 }
  in
  let r = Metrics.speedup fast ~baseline:base in
  Alcotest.(check bool) "ratio ~2" true (abs_float (r -. 2.0) < 1e-9)

let speedup_zero_baseline () =
  (* ops = 0 gives throughput 0; dividing by it must yield 0, not nan or
     an exception (the experiment tables print this directly). *)
  let base = mk ~ops:0 (fun _ -> ()) in
  Alcotest.(check (float 0.0)) "baseline throughput" 0.0
    base.Metrics.throughput;
  let m = mk ~ops:100 burst in
  Alcotest.(check (float 0.0)) "speedup" 0.0
    (Metrics.speedup m ~baseline:base)

let zero_elapsed_throughput () =
  (* A run too fast to measure must not produce inf. *)
  let m = mk ~ops:100 burst in
  let frozen = { m with Metrics.elapsed = 0.0; throughput = 0.0 } in
  Alcotest.(check (float 0.0)) "self-speedup of frozen run" 0.0
    (Metrics.speedup m ~baseline:frozen)

let cases =
  [
    case "make + pp fields" make_and_pp;
    case "speedup ratio" speedup_ratio;
    case "speedup with zero baseline" speedup_zero_baseline;
    case "zero elapsed handled" zero_elapsed_throughput;
  ]
