(* A located mm-sa diagnostic. The check is carried as its registered
   name (Analysis.name), the token suppressions and --analysis use. *)

type t = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

let v ~rule ~file ~line ~col message = { rule; file; line; col; message }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let pp fmt t =
  Format.fprintf fmt "%s:%d:%d: [%s] %s" t.file t.line t.col t.rule t.message
