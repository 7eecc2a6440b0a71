let field_bits = 12
let max_count = (1 lsl field_bits) - 1
let count_shift = field_bits
let owned_shift = 2 * field_bits
let tag_shift = owned_shift + 1
let tag_bits = 62 - tag_shift
let tag_mask = (1 lsl tag_bits) - 1
let field_mask = max_count

let[@inline] make ~head ~count ~owned ~tag =
  if head < 0 || head > max_count then invalid_arg "Pub_word.make: head";
  if count < 0 || count > max_count then invalid_arg "Pub_word.make: count";
  head
  lor (count lsl count_shift)
  lor ((if owned then 1 else 0) lsl owned_shift)
  lor ((tag land tag_mask) lsl tag_shift)

let empty = make ~head:0 ~count:0 ~owned:false ~tag:0
let[@inline] head w = w land field_mask
let[@inline] count w = (w lsr count_shift) land field_mask
let[@inline] owned w = (w lsr owned_shift) land 1 = 1
let[@inline] tag w = (w lsr tag_shift) land tag_mask

(* A remote push keeps the tag: pushes never recycle list nodes, so the
   only ABA the tag must defeat is a claim racing a claim (or an
   ownership flip racing anything), and those all bump it. *)
let[@inline] push_n w ~idx ~n =
  make ~head:idx ~count:(count w + n) ~owned:(owned w) ~tag:(tag w)

let[@inline] claim w = make ~head:0 ~count:0 ~owned:true ~tag:(tag w + 1)
let[@inline] owned_empty w = make ~head:0 ~count:0 ~owned:true ~tag:(tag w + 1)
let[@inline] unowned_empty w = make ~head:0 ~count:0 ~owned:false ~tag:(tag w + 1)

let pp fmt w =
  Format.fprintf fmt "{head=%d; count=%d; owned=%b; tag=%d}" (head w) (count w)
    (owned w) (tag w)
