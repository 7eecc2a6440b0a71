(* The real runtime with [cpu_relax] counted. *)
include Mm_runtime.Real_rt

let relaxes = ref 0
let cpu_relax () = incr relaxes
