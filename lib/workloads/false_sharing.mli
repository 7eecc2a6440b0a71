(** Active-false and Passive-false (from Hoard; paper §4.1): allocators
    that pack blocks handed to different threads into one cache line
    induce false sharing, which these benchmarks expose. Each thread
    performs [pairs] rounds of: obtain a [size]-byte block, write
    [writes_per_byte] times to each of its bytes, free it.

    - {e Active}: every thread allocates its own blocks each round; false
      sharing arises if the allocator co-locates blocks of concurrently
      allocating threads.
    - {e Passive}: one thread allocates the {e initial} block of every
      thread and hands them out; the other threads free them immediately
      and continue as in Active — exposing allocators whose free returns
      a block to a place where it will be handed to a co-located
      neighbour again.

    The paper uses 10,000 rounds of 8-byte blocks with 1,000 writes per
    byte. *)

type params = {
  pairs : int;
  size : int;
  writes_per_byte : int;
  passive : bool;
}

val quick_active : params

val run :
  Mm_mem.Alloc_intf.instance -> threads:int -> params -> Metrics.t
