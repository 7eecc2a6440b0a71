(* Fixture registry for the pages section: clean on purpose — its
   entries are used by bad_buddy_cas.ml. *)

let fx_buddy_acq = "fx_buddy_acq"
let fx_buddy_rel = "fx_buddy_rel"
let all = [ fx_buddy_acq; fx_buddy_rel ]
