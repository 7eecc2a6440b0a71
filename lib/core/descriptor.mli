(** Superblock descriptors and the descriptor table (paper Fig. 3).

    A descriptor records everything the allocator knows about one
    superblock. Descriptors are identified by small positive ids so they
    can be packed into the [Active] word and the block prefix; the table
    maps ids back to records. Ids of descriptors discarded before first
    use (the install-race path of [DescAlloc]) are recycled; descriptors
    themselves are recycled through [Desc_pool], never freed — matching
    the paper (§3.2.5: "superblock descriptors are not reused as regular
    blocks and cannot be returned to the OS"). *)

type t = {
  id : int;
  anchor : int Rt.atomic;  (** packed {!Anchor} word *)
  pub : int Rt.atomic;
      (** packed {!Pub_word}: the public remote-free list of the
          owner-biased mode (DESIGN.md §19). Stays at
          [Pub_word.empty] — and costs nothing — under the default
          [`Anchor] free lists. *)
  mutable next_d : t option;
      (** freelist link, hazard-pointer pool variant *)
  mutable next_id : int;  (** freelist link, tagged pool variant; -1 = nil *)
  mutable sb : int;  (** superblock base address; {!Mm_mem.Addr.null} = none *)
  mutable heap_gid : int;  (** owning processor heap (global index) *)
  mutable sz : int;  (** block size (payload + prefix) *)
  mutable maxcount : int;  (** blocks per superblock *)
  mutable priv_head : int;
      (** owner-biased mode: head block index of the private LIFO.
          Garbage when [priv_count = 0]; read and written only by the
          owning thread (plain accesses, no fences needed). *)
  mutable priv_count : int;  (** blocks on the private LIFO *)
}
(** The mutable fields are written only while the descriptor is privately
    owned (freshly allocated or freshly popped from a partial structure)
    and published by the subsequent CAS, per the paper's fence argument
    (Fig. 4 line 12). *)

type table

val create_table : Rt.t -> capacity:int -> table

val alloc_batch : table -> int -> t list
(** [alloc_batch tbl n] creates [n] fresh descriptors (a "superblock of
    descriptors", Fig. 7 line 5), installs them in the table and returns
    them unlinked. Raises [Failure] when the table is full, having
    discarded any of the [n] it had installed. *)

val discard : table -> t -> unit
(** Forget a never-used descriptor and recycle its id (the install-race
    path of Fig. 7 lines 8–9). *)

val get : table -> int -> t
(** Raises [Invalid_argument] on a dead or out-of-range id. *)

val fold_live : table -> init:'a -> f:('a -> t -> 'a) -> 'a
(** Quiescent iteration over live descriptors (invariant checker). *)

val live_count : table -> int
