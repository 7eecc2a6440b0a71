(* Fixture registry: label-registry, cross-unit half. fx_push_dup
   reuses fx_push's string, fx_orphan is never referenced, fx_unlisted
   is missing from [all]. *)

let fx_pop = "fx_pop"
let fx_push = "fx_push"
let fx_push_dup = "fx_push"
let fx_orphan = "fx_orphan"
let fx_unlisted = "fx_unlisted"
let all = [ fx_pop; fx_push; fx_push_dup; fx_orphan ]
