(* The simulated multiprocessor, driven through {!Sim_rt}: determinism,
   cost model, scheduling, fault injection, failure detection. *)

open Mm_runtime
open Util

let counter_body counter n _tid =
  for _ = 1 to n do
    Sim_rt.Atomic.incr counter
  done

let determinism () =
  let results =
    List.init 3 (fun _ ->
        let s = sim ~cpus:4 ~seed:7 () in
        let c = Sim_rt.Atomic.make s 0 in
        let r = Sim.run s (Array.make 4 (counter_body c 500)) in
        (r.Sim.makespan_cycles, Sim_rt.Atomic.get c, r.Sim.counters))
  in
  match results with
  | [ a; b; c ] ->
      Alcotest.(check bool) "same seed, identical runs" true (a = b && b = c)
  | _ -> assert false

let seeds_vary () =
  let go seed =
    let s = sim ~cpus:4 ~seed () in
    let c = Sim_rt.Atomic.make s 0 in
    (Sim.run s (Array.make 4 (counter_body c 500))).Sim.makespan_cycles
  in
  Alcotest.(check bool) "different seeds change the schedule" true
    (go 1 <> go 2)

let atomicity () =
  (* 8 threads × 1000 atomic increments = exactly 8000 under any
     interleaving. *)
  let s = sim ~cpus:4 () in
  let c = Sim_rt.Atomic.make s 0 in
  ignore (Sim.run s (Array.make 8 (counter_body c 1000)));
  Alcotest.(check int) "no lost updates" 8000 (Sim_rt.Atomic.get c)

let cas_contention_charged () =
  (* Two threads hammering one line must cost more per op than two
     threads on private lines. *)
  let shared =
    let s = sim ~cpus:2 () in
    let c = Sim_rt.Atomic.make s 0 in
    (Sim.run s (Array.make 2 (counter_body c 1000))).Sim.makespan_cycles
  in
  let private_ =
    let s = sim ~cpus:2 () in
    let cs = Array.init 2 (fun _ -> Sim_rt.Atomic.make s 0) in
    (Sim.run s
       (Array.init 2 (fun i _ ->
            for _ = 1 to 1000 do
              Sim_rt.Atomic.incr cs.(i)
            done)))
      .Sim.makespan_cycles
  in
  Alcotest.(check bool)
    (Printf.sprintf "shared line dearer (%d vs %d)" shared private_)
    true
    (shared > private_ * 2)

let transfers_counted () =
  let s = sim ~cpus:2 () in
  let c = Sim_rt.Atomic.make s 0 in
  let r = Sim.run s (Array.make 2 (counter_body c 100)) in
  Alcotest.(check bool) "remote transfers observed" true
    (r.Sim.counters.Sim.transfers > 50);
  Alcotest.(check int) "atomic count exact" 200 r.Sim.counters.Sim.atomics

let work_advances_clock () =
  let s = sim ~cpus:1 () in
  let r = Sim.run s [| (fun _ -> Sim_rt.work s 100_000) |] in
  Alcotest.(check bool) "clock advanced by work" true
    (r.Sim.makespan_cycles >= 100_000)

let per_cpu_clocks () =
  let s = sim ~cpus:4 () in
  (* Thread i does i*10_000 work; cpu clocks must be ordered. *)
  let r = Sim.run s (Array.init 4 (fun i _ -> Sim_rt.work s (i * 10_000))) in
  Alcotest.(check bool) "cpu 3 ran longest" true
    (r.Sim.cpu_cycles.(3) > r.Sim.cpu_cycles.(1));
  Alcotest.(check int) "makespan = max cpu clock"
    (Array.fold_left max 0 r.Sim.cpu_cycles)
    r.Sim.makespan_cycles

let preemption () =
  (* 8 threads on 2 cpus, each long enough to exceed quanta. *)
  let s = sim ~cpus:2 () in
  let r =
    Sim.run s
      (Array.make 8 (fun _ ->
           for _ = 1 to 50 do
             Sim_rt.work s 10_000
           done))
  in
  Alcotest.(check bool) "context switches happened" true
    (r.Sim.counters.Sim.ctx_switches > 0)

let self_ids () =
  let s = sim ~cpus:2 () in
  let seen = Array.make 6 (-1) in
  ignore
    (Sim.run s
       (Array.init 6 (fun i -> fun arg ->
            seen.(i) <- Sim_rt.self s;
            Alcotest.(check int) "body arg = tid" i arg)));
  Array.iteri (fun i v -> Alcotest.(check int) "self = tid" i v) seen

let exceptions_propagate () =
  let s = sim ~cpus:2 () in
  Alcotest.check_raises "body exception re-raised" Exit (fun () ->
      ignore
        (Sim.run s
           [| (fun _ -> Sim_rt.work s 10); (fun _ -> raise Exit) |]))

let block_until () =
  let s_done = ref false in
  let order = ref [] in
  let on_label ~tid l =
    if l = "gate" && tid = 0 then Sim.Block_until (fun () -> !s_done)
    else Sim.Continue
  in
  let s = sim ~cpus:2 ~on_label () in
  ignore
    (Sim.run s
       [|
         (fun _ ->
           Sim_rt.label s "gate";
           order := `A :: !order);
         (fun _ ->
           Sim_rt.work s 50_000;
           order := `B :: !order;
           s_done := true);
       |]);
  Alcotest.(check bool) "blocked thread resumed after gate" true
    (!order = [ `A; `B ])

let kill_action () =
  let on_label ~tid l =
    if l = "die" && tid = 1 then Sim.Kill else Sim.Continue
  in
  let s = sim ~cpus:2 ~on_label () in
  let done_ = Array.make 2 false in
  let r =
    Sim.run s
      (Array.init 2 (fun i -> fun _ ->
           if i = 1 then Sim_rt.label s "die";
           done_.(i) <- true))
  in
  Alcotest.(check bool) "survivor finished" true done_.(0);
  Alcotest.(check bool) "victim did not" false done_.(1);
  Alcotest.(check int) "killed counted" 1 r.Sim.counters.Sim.killed

let deadlock_detected () =
  let on_label ~tid:_ l =
    if l = "forever" then Sim.Block_until (fun () -> false) else Sim.Continue
  in
  let s = sim ~cpus:1 ~on_label () in
  (match Sim.run s [| (fun _ -> Sim_rt.label s "forever") |] with
  | _ -> Alcotest.fail "expected Deadlock"
  | exception Sim.Deadlock _ -> ());
  (* The instance is reusable afterwards. *)
  ignore (Sim.run s [| (fun _ -> Sim_rt.work s 10) |])

let timeout_detected () =
  let s = sim ~cpus:1 ~max_cycles:100_000 () in
  match
    Sim.run s
      [|
        (fun _ ->
          while true do
            Sim_rt.work s 1_000
          done);
      |]
  with
  | _ -> Alcotest.fail "expected Progress_timeout"
  | exception Sim.Progress_timeout _ -> ()

let mem_batch_accounting () =
  let s = sim ~cpus:1 () in
  let r =
    Sim.run s
      [|
        (fun _ -> Sim.step_mem_batch ~line:1234 ~write:true ~count:500);
      |]
  in
  Alcotest.(check int) "batch counted as 500 accesses" 500
    r.Sim.counters.Sim.plain;
  Alcotest.(check bool) "charged ~500 plain accesses" true
    (r.Sim.makespan_cycles >= 500 * Cost.default.Cost.plain_access)

let nested_run_rejected () =
  let s = sim ~cpus:1 () in
  let s2 = sim ~cpus:1 () in
  Alcotest.check_raises "nested"
    (Failure "Sim.run: cannot run a simulation inside another") (fun () ->
      ignore
        (Sim.run s [| (fun _ -> ignore (Sim.run s2 [| (fun _ -> ()) |])) |]))

let yield_gives_cpu () =
  (* Two threads pinned to one cpu; A yields in a loop until B sets a
     flag. Without yield rescheduling this would time out. *)
  let s = sim ~cpus:1 ~max_cycles:50_000_000 () in
  let flag = Sim_rt.Atomic.make s 0 in
  ignore
    (Sim.run s
       [|
         (fun _ ->
           while Sim_rt.Atomic.get flag = 0 do
             Sim_rt.yield s
           done);
         (fun _ -> Sim_rt.Atomic.set flag 1);
       |]);
  ()

let no_contention_costs () =
  (* With the no-contention cost table, shared vs private lines cost
     roughly the same. *)
  let run costs =
    let s = Sim.create ~cpus:2 ~costs ~seed:1 () in
    let c = Sim_rt.Atomic.make s 0 in
    (Sim.run s (Array.make 2 (counter_body c 1000))).Sim.makespan_cycles
  in
  let flat = run Cost.no_contention in
  let real = run Cost.default in
  Alcotest.(check bool) "contention costs matter" true (real > flat)

let cases =
  [
    case "determinism" determinism;
    case "seeds vary schedules" seeds_vary;
    case "atomic increments never lost" atomicity;
    case "contended line costs more" cas_contention_charged;
    case "transfers counted" transfers_counted;
    case "work advances clock" work_advances_clock;
    case "per-cpu clocks" per_cpu_clocks;
    case "preemption on oversubscription" preemption;
    case "self ids are dense" self_ids;
    case "exceptions propagate" exceptions_propagate;
    case "block_until" block_until;
    case "kill" kill_action;
    case "deadlock detected" deadlock_detected;
    case "timeout detected" timeout_detected;
    case "mem batch accounting" mem_batch_accounting;
    case "nested run rejected" nested_run_rejected;
    case "yield gives cpu away" yield_gives_cpu;
    case "cost table sensitivity" no_contention_costs;
  ]
