(* The real-runtime copy of the page manager (DESIGN.md §18);
   Mm_pages_sim holds the simulator's. Each [Make] takes only the real
   runtime and returns this copy, for code that names the layer through
   a functor (the real-domain benchmark). *)

module type REAL_RT =
  Mm_runtime.Runtime_intf.S with type t = Rt.t and type 'a atomic = 'a Rt.atomic

module Pg_labels = Pg_labels

module Buddy = struct
  include Buddy
  module Make (_ : REAL_RT) = Buddy
end

module Page_manager = struct
  include Page_manager
  module Make (_ : REAL_RT) = Page_manager
end
