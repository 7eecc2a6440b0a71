(** Simulated 63-bit addresses.

    The paper's allocator works on a raw 64-bit address space; our
    substitute packs a {e region id} (a simulated mmap'd range backed by a
    [Bytes.t]) and a byte {e offset} within it into one OCaml immediate:

    [addr = (region_id lsl 32) lor offset]

    Pointer arithmetic inside a region is ordinary integer arithmetic on
    the address, exactly like the paper's
    [addr = sb + avail * sz] / [(ptr - sb) / sz] computations. Addresses
    are also the source of cache-line ids for the simulator: line
    [addr lsr 6] models 64-byte lines, and lines of distinct regions never
    collide. The null address is [0] (region 0 is reserved). *)

val max_offset : int
val max_region : int

val make : region:int -> offset:int -> int
(** Pack. Raises [Invalid_argument] if out of range. *)

val region : int -> int
val offset : int -> int

val line : int -> int
(** Cache line id of the 64-byte-aligned window containing [addr]. *)

val null : int
(** The null address (region 0, offset 0). *)
