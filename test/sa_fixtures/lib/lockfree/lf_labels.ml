(* Fixture registry for the lockfree section: consistent on purpose, so
   duplicates are detected across registries but a clean registry
   stays clean. *)

let fx_ring = "fx_ring"
let all = [ fx_ring ]
