(** Treiber's lock-free LIFO stack (IBM System/370 freelist push/pop, the
    paper's reference [8]).

    Nodes are freshly allocated, immutable OCaml records; under garbage
    collection a node's identity can never be reused while reachable, so
    the classic ABA hazard of the pop operation cannot arise and no tag or
    hazard pointer is needed here. (The descriptor freelist in [Mm_core],
    which {e does} recycle its nodes, uses hazard pointers or tags — see
    [Desc_pool].) *)

type 'a t

val create : Rt.t -> 'a t
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a option
val peek : 'a t -> 'a option
val is_empty : 'a t -> bool

val length : 'a t -> int
(** Linear-time snapshot length; only meaningful quiescently (tests). *)

val to_list : 'a t -> 'a list
(** Top-first snapshot; only meaningful quiescently (tests). *)
