(** Michael & Scott's lock-free FIFO queue (PODC 1996 — the paper's
    reference [20]).

    Used for the per-size-class lists of partial superblocks (§3.2.6 of
    the paper, FIFO variant) and as the task queue of the
    Producer-consumer benchmark (§4.1). Nodes are garbage-collected OCaml
    records, which subsumes the "optimized memory management" the paper
    applies to this queue: node reuse — and hence ABA on node pointers —
    cannot occur while a thread still holds a reference. *)

type 'a t

val create : Rt.t -> 'a t

val enqueue : 'a t -> 'a -> unit
(** Enqueue at the tail; lock-free with the standard tail-swing helping. *)

val dequeue : 'a t -> 'a option
(** Dequeue from the head, or [None] if the queue is observed empty. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Linear-time snapshot; only meaningful quiescently (tests). *)

val to_list : 'a t -> 'a list
(** Head-first snapshot; only meaningful quiescently (tests). *)
