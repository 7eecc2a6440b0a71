type t = {
  rows : int array array;  (* [unattached] until the thread's first use *)
  width : int;
  init : int -> int array -> unit;
}

(* Words before and after each row's cells: at least one 64-byte line
   plus the adjacent line a hardware prefetcher pulls in with it, so
   the cells sit two lines away from the objects the GC places on
   either side of the row, whatever they are. *)
let pad = 16

(* The one row no thread owns: empty, so nothing can ever write it, and
   a row of cells is never physically equal to it. *)
let unattached : int array = [||]

let create ?(init = fun _ _ -> ()) ~threads ~columns () =
  { rows = Array.make threads unattached; width = pad + columns + pad; init }

(* Out of line: it runs once per thread and table, and allocates. *)
let[@inline never] attach t tid =
  let row = Array.make t.width 0 in
  t.init tid row;
  t.rows.(tid) <- row;
  row

let[@inline] row t tid =
  let row = t.rows.(tid) in
  if row == unattached then attach t tid else row

let[@inline] bump t tid c =
  let row = row t tid in
  row.(pad + c) <- row.(pad + c) + 1

let attached t tid = t.rows.(tid) != unattached

let iter_attached t f =
  Array.iteri (fun tid row -> if row != unattached then f tid row) t.rows

let total t c =
  Array.fold_left
    (fun n row -> if row == unattached then n else n + row.(pad + c))
    0 t.rows
