(** Hazard pointers (Michael, TPDS 2004 — the paper's references [17,19]).

    Safe memory reclamation for lock-free structures whose nodes are
    recycled. The allocator's descriptor freelist recycles descriptors
    (Fig. 7 of the paper uses [SafeCAS], "i.e. ABA-safe"), so a popping
    thread publishes a hazard pointer to the candidate head before
    dereferencing it; retired descriptors are only handed back for reuse
    once a scan finds no hazard pointer to them.

    Each participating thread owns [k] hazard slots indexed by its dense
    runtime id ({!Mm_runtime.Runtime_intf.S.self}) and a private retirement list, so
    all operations except [scan] are contention-free. *)

type 'a t

val create : ?k:int -> ?scan_threshold:int -> Rt.t ->
  reuse:('a -> unit) -> 'a t
(** [create rt ~reuse] builds a hazard-pointer domain whose [reuse] callback
    receives each retired node once it is provably unreferenced. [k] is the
    number of slots per thread (default 1); [scan_threshold] the retirement
    list length that triggers a scan (default [2 * max_threads * k]). *)

val protect : 'a t -> slot:int -> 'a -> unit
(** Publish a hazard pointer to the value. The caller must re-validate its
    source pointer after publishing (standard protocol). *)

val clear : 'a t -> slot:int -> unit
(** Retract the calling thread's hazard pointer in [slot]. *)

val retire : 'a t -> 'a -> unit
(** Declare the node removed from the data structure; it will be passed to
    [reuse] after some later scan proves no thread protects it. *)

val scan : 'a t -> unit
(** Force the calling thread's scan: every node it has retired that no
    current hazard pointer protects is released to [reuse]. *)

val flush : 'a t -> unit
(** Test/teardown helper: repeatedly scan the retirement lists of all
    threads (quiescence required) until everything unprotected is
    released. *)

val retired_count : 'a t -> int
(** Total nodes awaiting reuse across all threads (quiescent snapshot). *)

val protected_count : 'a t -> int
(** Number of currently published hazard pointers (quiescent snapshot). *)
