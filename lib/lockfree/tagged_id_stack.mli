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

module Make (Rt : Mm_runtime.Runtime_intf.S) : sig
  type t

  val create :
    Rt.t ->
    ?push_label:string ->
    ?pop_label:string ->
    ?on_push_retry:(unit -> unit) ->
    ?on_pop_retry:(unit -> unit) ->
    get_next:(int -> int) ->
    set_next:(int -> int -> unit) ->
    unit ->
    t
  (** [get_next id] / [set_next id n] read and write the link cell of node
      [id]; a link value of [-1] means "no next". Reading the link of a node
      that was concurrently popped and reused must be safe (it is: links are
      plain int reads and the subsequent CAS fails on the tag).

      [push_label] / [pop_label] name the two CAS windows to the schedule
      explorer and the observability census (defaults:
      {!Lf_labels.tis_push_cas} / {!Lf_labels.tis_pop_cas}); a client
      embedding the stack in a larger structure passes its own registry
      entries so faults and retries are attributed to the embedding
      site. [on_push_retry] / [on_pop_retry]
      run once per failed CAS, letting the client mirror the failure into
      its own striped retry counters (census equality, DESIGN.md §12). *)

  val push : t -> int -> unit
  val pop : t -> int option
  val is_empty : t -> bool

  val to_list : t -> int list
  (** Top-first snapshot; only meaningful quiescently (tests). *)
end
