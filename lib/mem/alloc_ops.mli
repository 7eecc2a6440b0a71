(** Derived allocation operations — the rest of the familiar C API
    (calloc / realloc), built generically on top of any
    {!Alloc_intf.instance}. *)

val calloc : Alloc_intf.instance -> count:int -> size:int -> int
(** Allocate [count * size] bytes, zero-filled. *)

val realloc : Alloc_intf.instance -> int -> int -> int
(** [realloc inst addr n] resizes the block at [addr] to at least [n]
    payload bytes, preserving the first [min old_usable n] bytes.
    [realloc inst Addr.null n] behaves like malloc; growing allocates,
    copies word-wise and frees the old block; shrinking within the
    block's usable size returns [addr] unchanged. *)
