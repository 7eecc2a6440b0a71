(* The real-runtime copy of the allocator core (DESIGN.md §18), with the
   runtime-independent modules both copies share; Mm_core_sim holds the
   simulator's copy. Each [Make] takes only the real runtime and returns
   this copy, for code that names the core through a functor (the
   real-domain benchmark). *)

module type REAL_RT =
  Mm_runtime.Runtime_intf.S with type t = Rt.t and type 'a atomic = 'a Rt.atomic

module Active_word = Active_word
module Anchor = Anchor
module Labels = Labels
module Partial_list = Partial_list
module Pub_word = Pub_word
module Stripes = Stripes

module Block_cache = struct
  include Block_cache
  module Make (_ : REAL_RT) = Block_cache
end

module Desc_pool = struct
  include Desc_pool
  module Make (_ : REAL_RT) = Desc_pool
end

module Descriptor = struct
  include Descriptor
  module Make (_ : REAL_RT) = Descriptor
end

module Lf_alloc = struct
  include Lf_alloc
  module Make (_ : REAL_RT) = Lf_alloc
end
