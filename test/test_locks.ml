(* Lock substrate: mutual exclusion under adversarial schedules,
   try_acquire semantics, fairness, counters. *)

open Mm_runtime

module Locks = Mm_baselines.Locks
module Locks_s = Mm_baselines_sim.Locks
module Cfg = Mm_mem.Alloc_config
open Util

let kinds =
  [
    ("tas", Cfg.Tas_backoff);
    ("ticket", Cfg.Ticket);
    ("mcs", Cfg.Mcs);
    ("pthread", Cfg.Pthread_like);
  ]

(* Mutual exclusion: concurrent unprotected increments of a plain cell
   would lose updates; under the lock the count is exact. *)
let mutual_exclusion kind () =
  for seed = 1 to 6 do
    let s = sim ~cpus:4 ~seed () in
    let lock = Locks_s.create s kind in
    let cell = ref 0 in
    let body _ =
      for _ = 1 to 200 do
        Locks_s.with_lock lock (fun () ->
            let v = !cell in
            (* A deliberate preemption window inside the critical
               section. *)
            Sim_rt.work s 5;
            cell := v + 1)
      done
    in
    ignore (Sim.run s (Array.make 4 body));
    Alcotest.(check int)
      (Printf.sprintf "seed %d exact count" seed)
      800 !cell
  done

let mutual_exclusion_real kind () =
  (* Modest iteration count: on a single-core host, queue-lock handoffs
     to descheduled threads cost scheduler quanta. *)
  let lock = Locks.create () kind in
  let cell = ref 0 in
  let body _ =
    for _ = 1 to 1_000 do
      Locks.with_lock lock (fun () -> incr cell)
    done
  in
  ignore (Rt.parallel_run Rt.real (Array.make 4 body));
  Alcotest.(check int) "exact count" 4_000 !cell

let try_acquire_semantics kind () =
  let lock = Locks.create () kind in
  Alcotest.(check bool) "free lock acquired" true (Locks.try_acquire lock);
  Alcotest.(check bool) "held lock refused" false (Locks.try_acquire lock);
  Locks.release lock;
  Alcotest.(check bool) "released lock acquired" true (Locks.try_acquire lock);
  Locks.release lock

let counters kind () =
  let lock = Locks.create () kind in
  for _ = 1 to 10 do
    Locks.acquire lock;
    Locks.release lock
  done;
  Alcotest.(check bool) "acquisitions counted" true
    (Locks.acquisitions lock >= 10);
  Alcotest.(check int) "uncontended so far" 0
    (Locks.contended_acquisitions lock)

let contention_counted () =
  let s = sim ~cpus:2 () in
  let lock = Locks_s.create s Cfg.Tas_backoff in
  let body _ =
    for _ = 1 to 100 do
      Locks_s.with_lock lock (fun () -> Sim_rt.work s 200)
    done
  in
  ignore (Sim.run s (Array.make 2 body));
  Alcotest.(check bool) "contention observed" true
    (Locks_s.contended_acquisitions lock > 0)

let mcs_fifo_fairness () =
  (* MCS grants in queue order too. *)
  let s = sim ~cpus:2 () in
  let lock = Locks_s.create s Cfg.Mcs in
  let seq = ref [] in
  let body tid =
    for _ = 1 to 50 do
      Locks_s.acquire lock;
      seq := tid :: !seq;
      Sim_rt.work s 100;
      Locks_s.release lock
    done
  in
  ignore (Sim.run s (Array.init 2 (fun i _ -> body i)));
  Alcotest.(check int) "all acquisitions" 100 (List.length !seq)

let mcs_baseline_allocators () =
  (* The baseline allocators run correctly with MCS locks. *)
  let s = sim ~cpus:4 () in
  let inst =
    instance ~cfg:(Cfg.make ~lock_kind:Cfg.Mcs ()) "hoard" (Rt.simulated s)
  in
  let body tid =
    let rng = Prng.create tid in
    let addrs = Array.init 200 (fun _ -> inst.Mm_mem.Alloc_intf.malloc (Prng.int_in rng 8 100)) in
    Array.iter inst.Mm_mem.Alloc_intf.free addrs
  in
  ignore (Sim.run s (Array.init 4 (fun i _ -> body i)));
  inst.Mm_mem.Alloc_intf.check ()

let ticket_fairness () =
  (* Ticket locks grant in FIFO order: with two threads alternating,
     neither can starve. Record the acquisition sequence and check no
     thread acquires 3+ times in a row while the other is waiting. *)
  let s = sim ~cpus:2 () in
  let lock = Locks_s.create s Cfg.Ticket in
  let seq = ref [] in
  let body tid =
    for _ = 1 to 50 do
      Locks_s.acquire lock;
      seq := tid :: !seq;
      Sim_rt.work s 100;
      Locks_s.release lock
    done
  in
  ignore (Sim.run s (Array.init 2 (fun i _ -> body i)));
  let rec max_streak best cur last = function
    | [] -> best
    | x :: tl ->
        let cur = if x = last then cur + 1 else 1 in
        max_streak (max best cur) cur x tl
  in
  let streak = max_streak 0 0 (-1) (List.rev !seq) in
  Alcotest.(check bool)
    (Printf.sprintf "fair interleaving (max streak %d)" streak)
    true (streak <= 3)

let holder_label_emitted () =
  let hits = ref 0 in
  let on_label ~tid:_ l =
    if l = Locks.holder_label then incr hits;
    Sim.Continue
  in
  let s = sim ~cpus:1 ~on_label () in
  let lock = Locks_s.create s Cfg.Tas_backoff in
  ignore
    (Sim.run s
       [|
         (fun _ ->
           Locks_s.acquire lock;
           Locks_s.release lock);
       |]);
  Alcotest.(check int) "holder label once per acquisition" 1 !hits

let preempted_holder_progress () =
  (* A preempted holder on an oversubscribed CPU must eventually run
     again (spinners yield), so the system finishes. *)
  let s = sim ~cpus:1 ~max_cycles:5_000_000_000 () in
  let lock = Locks_s.create s Cfg.Tas_backoff in
  let body _ =
    for _ = 1 to 20 do
      Locks_s.with_lock lock (fun () -> Sim_rt.work s 200_000)
    done
  in
  ignore (Sim.run s (Array.make 3 body))

let cases =
  List.concat_map
    (fun (name, kind) ->
      [
        case ("mutual exclusion (sim x6) " ^ name) (mutual_exclusion kind);
        case ("mutual exclusion (real) " ^ name) (mutual_exclusion_real kind);
        case ("try_acquire " ^ name) (try_acquire_semantics kind);
        case ("counters " ^ name) (counters kind);
      ])
    kinds
  @ [
      case "contention counted" contention_counted;
      case "ticket fairness" ticket_fairness;
      case "mcs fifo completion" mcs_fifo_fairness;
      case "mcs-locked baseline allocator" mcs_baseline_allocators;
      case "holder label" holder_label_emitted;
      case "preempted holder progress" preempted_holder_progress;
    ]
