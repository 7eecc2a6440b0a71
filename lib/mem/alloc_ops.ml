(* Derived allocation operations (calloc / realloc / aligned_alloc),
   built generically on any allocator instance. *)

open Alloc_intf

let calloc inst ~count ~size =
  if count < 0 || size < 0 then invalid_arg "Alloc_ops.calloc: negative";
  let n = count * size in
  let addr = inst.malloc n in
  let words = (n + 7) / 8 in
  for w = 0 to words - 1 do
    inst.write_word (addr + (8 * w)) 0
  done;
  addr

let realloc inst addr n =
  if n < 0 then invalid_arg "Alloc_ops.realloc: negative size";
  if addr = Addr.null then inst.malloc n
  else begin
    let old_usable = inst.usable_size addr in
    if n <= old_usable then addr
    else begin
      let fresh = inst.malloc n in
      let words = (old_usable + 7) / 8 in
      for w = 0 to words - 1 do
        inst.write_word (fresh + (8 * w)) (inst.read_word (addr + (8 * w)))
      done;
      inst.free addr;
      fresh
    end
  end

let is_pow2 n = n > 0 && n land (n - 1) = 0

let aligned_alloc inst ~align n =
  if not (is_pow2 align) then
    invalid_arg "Alloc_ops.aligned_alloc: alignment must be a power of two";
  if n < 0 then invalid_arg "Alloc_ops.aligned_alloc: negative size";
  if align <= 8 then inst.malloc n
  else begin
    (* Payloads are 8-aligned; over-allocate so an aligned position with
       [n] bytes of room always exists, and leave space for the offset
       word below it. *)
    let raw = inst.malloc (n + align) in
    let aligned = (raw + align - 1) / align * align in
    if aligned = raw then raw
    else begin
      inst.write_word
        (aligned - Block_prefix.prefix_bytes)
        (Block_prefix.offset ~delta:(aligned - raw));
      aligned
    end
  end
