(** Bounded exponential backoff for CAS-retry loops.

    Failed CAS attempts indicate interference; backing off reduces
    coherence traffic on the contended line. Used by every retry loop in
    the allocator and the lock substrate. The state is an unboxed spin
    count threaded through the loop, so a retry loop allocates nothing. *)

module Make (Rt : Mm_runtime.Runtime_intf.S) : sig
  val initial : int
  (** The spin count a retry loop starts from (1). *)

  val spin : Rt.t -> int -> int
  (** [spin rt spins] relaxes the CPU [spins] times and returns the next
      count: doubled, saturating at 256. From [initial] the sequence is
      1, 2, 4, ..., 256, 256, ... *)
end
