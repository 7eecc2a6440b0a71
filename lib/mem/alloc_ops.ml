(* Derived allocation operations (calloc / realloc),
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
