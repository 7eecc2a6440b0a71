(* Fixture: a suppression naming no known check must surface as an
   error, never silently fail to suppress. *)

(* mm-sa: allow hp-protokol: typo *)
let x = 1

(* mm-sa: allow raw-primitve: typo *)
let y = 2
