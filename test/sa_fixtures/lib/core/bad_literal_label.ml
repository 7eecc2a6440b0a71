(* Fixture: label-registry, per-unit half — a literal label string the
   registries cannot enumerate. *)

module Rt = Mm_runtime.Sim_rt

let probe rt = Rt.label rt "fx-literal-probe"
