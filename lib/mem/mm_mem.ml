(* The real-runtime copy of Store and Space (DESIGN.md §18), with the
   runtime-independent modules both copies share; Mm_mem_sim holds the
   simulator's copy. [Store.Make] takes only the real runtime and
   returns this copy, for code that names the store through a functor
   (the real-domain benchmark). *)

module type REAL_RT =
  Mm_runtime.Runtime_intf.S with type t = Rt.t and type 'a atomic = 'a Rt.atomic

module Addr = Addr
module Alloc_config = Alloc_config
module Alloc_intf = Alloc_intf
module Alloc_ops = Alloc_ops
module Block_prefix = Block_prefix
module Size_class = Size_class
module Space = Space

module Store = struct
  include Store
  module Make (_ : REAL_RT) = Store
end
