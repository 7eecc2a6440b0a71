let prefix_bytes = 8

(* Two tag bits: 0 = small (descriptor id), 1 = large (total length),
   2 = offset (aligned-allocation marker: the payload was advanced by
   [delta] bytes from the underlying block's payload). *)

let[@inline] small ~desc_id = desc_id lsl 2
let[@inline] large ~total_len = (total_len lsl 2) lor 1
let[@inline] offset ~delta = (delta lsl 2) lor 2

let[@inline] is_large w = w land 3 = 1
let[@inline] is_offset w = w land 3 = 2
let[@inline] desc_id w = w lsr 2
let[@inline] large_len w = w lsr 2
let[@inline] offset_delta w = w lsr 2
