(** The descriptor's public remote-free list word (owner-biased free
    lists, DESIGN.md §19) — the [Anchor]'s counterpart for the
    [`Owner_biased] mode of {!Mm_mem.Alloc_config.free_lists}.

    One OCaml immediate packs the whole public list so remote frees,
    the owner's bulk claim, and ownership transfer are each one CAS:

    {v
    bits 0..11   head   index of the most recently pushed block (12 bits)
    bits 12..23  count  blocks on the public list (12 bits)
    bit  24      owned  a thread holds the superblock (and its anchor)
    bits 25..61  tag    ABA tag, bumped by claims and ownership flips
    v}

    [head] is garbage when [count = 0]; walks are bounded by [count],
    never by a nil sentinel. Remote pushes keep the tag ({!push_n}): the
    pushed block is exclusively the pusher's, so the only ABA hazards
    are claim-vs-claim and ownership flips, all of which bump it.

    While [owned] is set, the descriptor's anchor is frozen at
    FULL(0,0) (an acquirer freezes it right after setting the bit) and
    every other thread's free lands on this word. While it is clear the
    word holds no blocks: frees push onto the anchor as in the paper's
    Fig. 6. *)

val max_count : int
(** 4095: largest representable [head]/[count] (same as {!Anchor}). *)

val empty : int
(** Unowned, no blocks, tag 0 — a fresh descriptor's public word. *)

val make : head:int -> count:int -> owned:bool -> tag:int -> int
val head : int -> int
val count : int -> int
val owned : int -> bool
val tag : int -> int

val push_n : int -> idx:int -> n:int -> int
(** New word with [n] pre-chained blocks headed by [idx] pushed on
    front: head [idx], count + n, [owned]/[tag] unchanged (the pusher
    pre-links the chain's tail to the old head). A single free is
    [n = 1]. *)

val claim : int -> int
(** The owner's bulk claim: head 0, count 0, owned, tag + 1. *)

val owned_empty : int -> int
(** Owned with no blocks, tag + 1 (fresh superblock install, or an
    acquirer owning an unowned word — which never holds blocks). *)

val unowned_empty : int -> int
(** Unowned with no blocks, tag + 1 (owner handoff, EMPTY release). *)

val pp : Format.formatter -> int -> unit
