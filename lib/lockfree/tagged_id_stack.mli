(** Lock-free LIFO freelist over small integer ids with IBM tag-based ABA
    prevention (System/370 freelist, the paper's reference [8]).

    This is the alternative to hazard pointers for the descriptor freelist
    (see the paper §3.2.5 and reference [18]): the head word packs
    [(tag, id)] into one CAS-able immediate; every pop increments the tag,
    so a pop that raced with a free-and-reuse of the same id fails. The
    "next" links live outside the stack (in the descriptor records),
    supplied by the [get_next]/[set_next] callbacks.

    Ids must lie in [\[0, 2^24)]; the tag occupies the remaining 38 bits
    of the OCaml immediate, wrapping only after ~3·10^11 pops. *)

type t

val create :
  Rt.t ->
  get_next:(int -> int) ->
  set_next:(int -> int -> unit) ->
  unit ->
  t
(** [get_next id] / [set_next id n] read and write the link cell of node
    [id]; a link value of [-1] means "no next". Reading the link of a node
    that was concurrently popped and reused must be safe (it is: links are
    plain int reads and the subsequent CAS fails on the tag).

    The two CAS windows carry the labels {!Lf_labels.tis_push_cas} and
    {!Lf_labels.tis_pop_cas} for the schedule explorer and the
    observability census. *)

val push : t -> int -> unit
val pop : t -> int option
val is_empty : t -> bool

val to_list : t -> int list
(** Top-first snapshot; only meaningful quiescently (tests). *)
