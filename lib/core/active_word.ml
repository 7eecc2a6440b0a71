let credit_bits = 6
let max_credits = (1 lsl credit_bits) - 1
let null = 0
let[@inline] is_null w = w = 0

let[@inline] make ~desc_id ~credits =
  if desc_id < 1 then invalid_arg "Active_word.make: desc_id must be >= 1";
  if credits < 0 || credits > max_credits then
    invalid_arg "Active_word.make: credits out of range";
  (desc_id lsl credit_bits) lor credits

let[@inline] desc_id w = w lsr credit_bits
let[@inline] credits w = w land max_credits

let[@inline] dec_credits w =
  if credits w = 0 then invalid_arg "Active_word.dec_credits: no credits";
  w - 1
