let prefix_bytes = 8

(* The low two bits tag the kind: 0 = small (descriptor id), 1 = large
   (total length). No other tag is ever written. *)

let[@inline] small ~desc_id = desc_id lsl 2
let[@inline] large ~total_len = (total_len lsl 2) lor 1

let[@inline] is_large w = w land 3 = 1
let[@inline] desc_id w = w lsr 2
let[@inline] large_len w = w lsr 2
