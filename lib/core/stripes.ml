type t = int array array

(* Words before and after each row's cells: at least one 64-byte line
   plus the adjacent line a hardware prefetcher pulls in with it, so
   the cells sit two lines away from the objects the GC places on
   either side of the row, whatever they are. *)
let pad = 16

let create ~threads ~columns =
  Array.init threads (fun _ -> Array.make (pad + columns + pad) 0)

(* [(t : t)]: inferred, [t] would be ['a array], and the load a
   generic one with a float-array test. *)
let[@inline] row (t : t) tid = t.(tid)

let[@inline] bump t tid c =
  let row = t.(tid) in
  row.(pad + c) <- row.(pad + c) + 1

let total t c = Array.fold_left (fun n row -> n + row.(pad + c)) 0 t
