(* Fixture: blocking-in-lockfree. The blocking lock substrate reached
   from a lock-free section, twice. *)

let with_lock l f =
  Mm_baselines.Locks.acquire l;
  let r = f () in
  Mm_baselines.Locks.release l;
  r
