(* Fig. 4's pop CAS without its tag bump: an anchor that returns to an
   earlier value compares equal, which is the ABA the tag exists to
   defeat. *)
include Mm_core.Anchor

let incr_tag a = a
