(** The 8-byte block prefix (paper §3.1, Fig. 6 lines 2–5).

    Every allocated block is preceded by one word. For a small block it
    holds a pointer to (here: the id of) the descriptor of its superblock;
    for a large block it holds the block's total length with a tag bit
    set — the paper's "large block bit" ("desc holds sz+1"). [free]
    dispatches on this word, read once at [payload - prefix_bytes]. *)

val small : desc_id:int -> int
val large : total_len:int -> int

val is_large : int -> bool

val desc_id : int -> int
(** Only meaningful for small prefixes. *)

val large_len : int -> int
(** Only meaningful when [is_large w]. *)

val prefix_bytes : int
(** 8: the distance between a block's base and its payload. *)
