type state = Active | Full | Partial | Empty

let field_bits = 12
let max_count = (1 lsl field_bits) - 1
let count_shift = field_bits
let state_shift = 2 * field_bits
let tag_shift = state_shift + 2
let tag_bits = 62 - tag_shift
let tag_mask = (1 lsl tag_bits) - 1
let field_mask = max_count

let[@inline] int_of_state = function Active -> 0 | Full -> 1 | Partial -> 2 | Empty -> 3

let[@inline] state_of_int = function
  | 0 -> Active
  | 1 -> Full
  | 2 -> Partial
  | _ -> Empty

let[@inline] make ~avail ~count ~state ~tag =
  if avail < 0 || avail > max_count then invalid_arg "Anchor.make: avail";
  if count < 0 || count > max_count then invalid_arg "Anchor.make: count";
  avail
  lor (count lsl count_shift)
  lor (int_of_state state lsl state_shift)
  lor ((tag land tag_mask) lsl tag_shift)

let[@inline] avail a = a land field_mask
let[@inline] count a = (a lsr count_shift) land field_mask
let[@inline] state a = state_of_int ((a lsr state_shift) land 3)
let[@inline] tag a = (a lsr tag_shift) land tag_mask

let[@inline] set_avail a v =
  if v < 0 || v > max_count then invalid_arg "Anchor.set_avail";
  a land lnot field_mask lor v

let[@inline] set_count a v =
  if v < 0 || v > max_count then invalid_arg "Anchor.set_count";
  a land lnot (field_mask lsl count_shift) lor (v lsl count_shift)

let[@inline] set_state a s =
  a land lnot (3 lsl state_shift) lor (int_of_state s lsl state_shift)

let[@inline] incr_tag a =
  let t = (tag a + 1) land tag_mask in
  a land lnot (tag_mask lsl tag_shift) lor (t lsl tag_shift)

let state_to_string = function
  | Active -> "ACTIVE"
  | Full -> "FULL"
  | Partial -> "PARTIAL"
  | Empty -> "EMPTY"

let pp fmt a =
  Format.fprintf fmt "{avail=%d; count=%d; state=%s; tag=%d}" (avail a)
    (count a)
    (state_to_string (state a))
    (tag a)
