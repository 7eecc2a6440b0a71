(* Runtime selector.

   Harness, workload and test code that picks a runtime at run time
   holds an [Rt.t] and asks {!backend} for the specialized module
   ({!Real_rt} or {!Sim_rt}) plus its handle, once per run; every
   operation after that is a direct call into that module, which is
   also what each copy of the allocator stack is compiled against
   (DESIGN.md §18). *)

type t = Real | Simulated of Sim.t

type backend =
  | Backend : (module Runtime_intf.S with type t = 'r) * 'r -> backend

let real = Real
let simulated sim = Simulated sim
let is_sim = function Real -> false | Simulated _ -> true
let sim = function Real -> None | Simulated s -> Some s

(* The capability flag of ROADMAP item 4: controlled schedules, label
   interception and kill/stall exploration exist only on backends that
   expose them. Callers outside lib/runtime and lib/check must consult
   this flag before touching any Sim control facility (mm-sa's
   sim-capability check). *)
let controllable = function Real -> false | Simulated _ -> true
let name = function Real -> Real_rt.name | Simulated _ -> Sim_rt.name

let backend = function
  | Real -> Backend ((module Real_rt), ())
  | Simulated s -> Backend ((module Sim_rt), s)

let max_threads = Rt_base.max_threads
let fresh_line = Rt_base.fresh_line

module Obs = Rt_base.Obs

let real_label_hook = Rt_base.real_label_hook

type run_result = Rt_base.run_result = {
  elapsed : float;
  sim_result : Sim.result option;
}

let parallel_run rt bodies =
  let (Backend ((module R), r)) = backend rt in
  R.parallel_run r bodies
