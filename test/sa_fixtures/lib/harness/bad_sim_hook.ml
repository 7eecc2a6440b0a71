(* Fixture: sim-capability. Reaching the simulator's control plane (a
   facility type and constructor, a hooked Sim.create) outside
   lib/runtime and lib/check without consulting Rt.controllable. The
   gated item at the bottom stays clean. *)

module Rt = Mm_runtime.Rt
module Sim = Mm_runtime.Sim

let kill_current () : Sim.action = Sim.Kill

let hooked_sim () = Sim.create ~cpus:2 ~on_label:(fun ~tid:_ _ -> raise Exit) ()

let gated rt : Sim.action = if Rt.controllable rt then Sim.Kill else Sim.Continue
