(* The real-runtime copy of the lock-free structures (DESIGN.md §18);
   Mm_lockfree_sim holds the simulator's. Each [Make] takes only the
   real runtime and returns this copy: it keeps the functor spelling of
   code that names the structures through one (the real-domain
   benchmark). *)

module type REAL_RT =
  Mm_runtime.Runtime_intf.S with type t = Rt.t and type 'a atomic = 'a Rt.atomic

module Lf_labels = Lf_labels
module Backoff = Backoff
module Hazard_pointers = Hazard_pointers

module Ms_queue = struct
  include Ms_queue
  module Make (_ : REAL_RT) = Ms_queue
end

module Tagged_id_stack = struct
  include Tagged_id_stack
  module Make (_ : REAL_RT) = Tagged_id_stack
end

module Treiber_stack = struct
  include Treiber_stack
  module Make (_ : REAL_RT) = Treiber_stack
end
