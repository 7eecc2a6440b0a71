(* Fixture: raw-primitive. Five references to raw multicore primitives
   outside the real runtime backend. *)

let m = Mutex.create ()
let counter = Stdlib.Atomic.make 0

let bump () =
  Mutex.lock m;
  Stdlib.Atomic.incr counter;
  Mutex.unlock m
