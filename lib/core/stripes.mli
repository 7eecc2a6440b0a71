(** Striped per-thread words (DESIGN.md §18): one row of int cells per
    thread, padded on both sides so that no cell a thread writes shares
    a cache line with another thread's row or with whatever object the
    GC places next to it. A thread only ever touches its own row, with
    plain loads and stores; totals are quiescent snapshots. *)

type t

val create : threads:int -> columns:int -> t

val pad : int
(** Words before a row's first cell: cell [c] is at index [pad + c]. *)

val row : t -> int -> int array
(** [row t tid] is thread [tid]'s row, for callers that touch several
    of its cells per operation. *)

val bump : t -> int -> int -> unit
(** [bump t tid c] adds one to thread [tid]'s cell [c]. *)

val total : t -> int -> int
(** [total t c] sums column [c] over every thread. *)
