(* Temporary exploration smoke for workloads; superseded by the full
   suites later. *)

open Mm_runtime
module Cfg = Mm_mem.Alloc_config
module W = Mm_workloads

let run_all () =
  List.iter
    (fun name ->
      let sim = Sim.create ~cpus:8 ~seed:3 ~max_cycles:2_000_000_000 () in
      let rt = Rt.simulated sim in
      let inst = Mm_harness.Allocators.make name rt (Cfg.make ()) in
      let m =
        W.Linux_scalability.run inst ~threads:4
          { W.Linux_scalability.quick with pairs = 500 }
      in
      Format.printf "%a@." W.Metrics.pp m;
      let m2 = W.Larson.run inst ~threads:4 W.Larson.quick in
      Format.printf "%a@." W.Metrics.pp m2;
      let m3 =
        W.Producer_consumer.run inst ~threads:4 W.Producer_consumer.quick
      in
      Format.printf "%a@." W.Metrics.pp m3;
      inst.Mm_mem.Alloc_intf.check ())
    Mm_harness.Allocators.names

let cases = [ Alcotest.test_case "workloads x allocators (sim)" `Quick run_all ]
