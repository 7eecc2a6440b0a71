type snapshot = Alloc_intf.space_snapshot = {
  mapped : int;
  mapped_peak : int;
  used : int;
  used_peak : int;
}

type t = {
  a_mapped : int Rt.atomic;
  a_mapped_peak : int Rt.atomic;
  a_used : int Rt.atomic;
  a_used_peak : int Rt.atomic;
}

let create rt =
  {
    a_mapped = Rt.Atomic.make rt 0;
    a_mapped_peak = Rt.Atomic.make rt 0;
    a_used = Rt.Atomic.make rt 0;
    a_used_peak = Rt.Atomic.make rt 0;
  }

(* mm-sa: allow label-dominance: bump_peak maintains a monotone
   statistics maximum outside any progress or safety argument; the worst
   a lost race costs is an under-reported peak for one probe. Labelling
   it would add a schedule decision point to every accounting store and
   blow up the exhaustive-exploration budget in lib/check. *)
let bump_peak peak v =
  let rec go () =
    let p = Rt.Atomic.get peak in
    if v > p && not (Rt.Atomic.compare_and_set peak p v) then go ()
  in
  go ()

let add counter peak delta =
  let v = Rt.Atomic.fetch_and_add counter delta + delta in
  if delta > 0 then bump_peak peak v

let add_mapped t delta = add t.a_mapped t.a_mapped_peak delta
let add_used t delta = add t.a_used t.a_used_peak delta

let read t =
  {
    mapped = Rt.Atomic.get t.a_mapped;
    mapped_peak = Rt.Atomic.get t.a_mapped_peak;
    used = Rt.Atomic.get t.a_used;
    used_peak = Rt.Atomic.get t.a_used_peak;
  }

let reset_peaks t =
  Rt.Atomic.set t.a_mapped_peak (Rt.Atomic.get t.a_mapped);
  Rt.Atomic.set t.a_used_peak (Rt.Atomic.get t.a_used)
