(* The ring is three parallel preallocated arrays plus a published
   cursor. The writer fills slot [h] with plain stores, then publishes
   with one atomic store of [h + 1]; because slots are never reused
   (drop-on-full), a reader that observes head = h knows slots
   [0, h) are complete and immutable. No CAS anywhere — hence no
   Rt.label either: there is no retry window for a scheduler to bite
   (DESIGN.md §12). *)

(* mm-sa: allow raw-primitive: the published head cursor is
   deliberately a host-side Stdlib.Atomic — going through a runtime atomic
   would charge Sim's cost model and perturb the very run being
   observed. Confined to this module; see DESIGN.md §12. *)
module Cursor = struct
  type t = int Stdlib.Atomic.t

  let make () : t = Stdlib.Atomic.make 0
  let read (c : t) = Stdlib.Atomic.get c

  (* seq_cst store: orders the slot writes before the publication. *)
  let publish (c : t) v = Stdlib.Atomic.set c v
end

type t = {
  ring_tid : int;
  cap : int;
  labels : string array;
  kinds : Event.kind array;
  cycles : int array;
  head : Cursor.t;
  mutable dropped_ : int;  (* writer-only; read quiescently *)
}

let create ~tid ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  {
    ring_tid = tid;
    cap = capacity;
    labels = Array.make capacity "";
    kinds = Array.make capacity Event.Cas_ok;
    cycles = Array.make capacity 0;
    head = Cursor.make ();
    dropped_ = 0;
  }

let tid t = t.ring_tid
let capacity t = t.cap

let record t ~kind ~label ~cycle =
  let h = Cursor.read t.head in
  if h >= t.cap then t.dropped_ <- t.dropped_ + 1
  else begin
    t.labels.(h) <- label;
    t.kinds.(h) <- kind;
    t.cycles.(h) <- cycle;
    Cursor.publish t.head (h + 1)
  end

let length t = Cursor.read t.head
let dropped t = t.dropped_

let snapshot t =
  let h = Cursor.read t.head in
  Array.init h (fun i ->
      {
        Event.tid = t.ring_tid;
        label = t.labels.(i);
        kind = t.kinds.(i);
        cycle = t.cycles.(i);
      })
