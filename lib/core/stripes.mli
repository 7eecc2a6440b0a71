(** Striped per-thread words (DESIGN.md §18): one row of int cells per
    thread, padded on both sides so that no cell a thread writes shares
    a cache line with another thread's row or with whatever object the
    GC places next to it. A thread only ever touches its own row, with
    plain loads and stores; totals are quiescent snapshots.

    A row is allocated on its thread's first {!row} or {!bump}, not by
    {!create}: until then the thread's slot holds one shared empty row,
    which the inlined lookup tells apart with one [==] test. *)

type t

val create :
  ?init:(int -> int array -> unit) -> threads:int -> columns:int -> unit -> t
(** [create ?init ~threads ~columns ()] is a table of [threads] rows of
    [columns] cells, none allocated yet. [init tid row] runs on each
    row when thread [tid] first touches it, cells all 0 (default: does
    nothing). *)

val pad : int
(** Words before a row's first cell: cell [c] is at index [pad + c]. *)

val row : t -> int -> int array
(** [row t tid] is thread [tid]'s row, allocated and initialised on the
    first call, for callers that touch several of its cells per
    operation. Only thread [tid] may call it while others run. *)

val bump : t -> int -> int -> unit
(** [bump t tid c] adds one to thread [tid]'s cell [c]. *)

val attached : t -> int -> bool
(** Whether thread [tid]'s row has been allocated: a row that has not
    holds only zeros. *)

val iter_attached : t -> (int -> int array -> unit) -> unit
(** [iter_attached t f] calls [f tid row] on every allocated row, in
    thread order (quiescent walks). *)

val total : t -> int -> int
(** [total t c] sums column [c] over every thread. *)
