(* Kill-tolerant availability (paper §1).

   Uses the simulator's fault injection to kill one thread at *every*
   labelled step of the lock-free malloc/free algorithms in turn, then
   shows the surviving threads completing their work each time. The same
   scenario against the libc baseline kills a lock holder and the
   survivors spin forever.

     dune exec examples/kill_tolerance.exe
*)

open Mm_runtime
module Cfg = Mm_mem.Alloc_config
module I = Mm_mem.Alloc_intf

let threads = 4
let pairs = 1_000

let scenario ~alloc_name ~kill_label =
  let killed = ref false in
  let on_label ~tid l =
    if l = kill_label && tid = 0 && not !killed then begin
      killed := true;
      Sim.Kill
    end
    else Sim.Continue
  in
  let sim = Sim.create ~cpus:4 ~seed:5 ~max_cycles:300_000_000 ~on_label () in
  let inst =
    Mm_harness.Allocators.make alloc_name (Rt.simulated sim)
      (Cfg.make ~nheaps:1 ())
  in
  let body _ =
    for _ = 1 to pairs do
      let a = inst.I.malloc 16 in
      inst.I.free a
    done
  in
  match Sim.run sim (Array.make threads (fun i -> body i)) with
  | _ -> if !killed then "survivors finished" else "(label never reached)"
  | exception Sim.Progress_timeout _ -> "SURVIVORS STUCK (livelock)"
  | exception Sim.Deadlock _ -> "SURVIVORS STUCK (deadlock)"

let () =
  print_endline "killing one thread at every step of the lock-free allocator:";
  List.iter
    (fun label ->
      Printf.printf "  new   killed at %-20s -> %s\n%!" label
        (scenario ~alloc_name:"new" ~kill_label:label))
    Mm_core.Labels.all;
  print_newline ();
  print_endline "the same exercise against a lock-based allocator:";
  Printf.printf "  libc  killed at %-20s -> %s\n" Mm_baselines.Locks.holder_label
    (scenario ~alloc_name:"libc"
       ~kill_label:Mm_baselines.Locks.holder_label)
