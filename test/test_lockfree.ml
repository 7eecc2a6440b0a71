(* Lock-free building blocks: Treiber stack, MS queue, hazard pointers,
   tagged id stack, backoff. Sequential semantics plus concurrent
   conservation under both runtimes and several simulated schedules. *)

open Mm_runtime

(* Sequential semantics run on the real copy; schedule-driven
   concurrency tests on the simulated one. *)
module Ts = Mm_lockfree.Treiber_stack
module Msq = Mm_lockfree.Ms_queue
module Hp = Mm_lockfree.Hazard_pointers
module Tis = Mm_lockfree.Tagged_id_stack
module Msq_s = Mm_lockfree_sim.Ms_queue
module Hp_s = Mm_lockfree_sim.Hazard_pointers
module Tis_s = Mm_lockfree_sim.Tagged_id_stack

open Util

(* ---------------- Treiber stack ---------------- *)

let treiber_seq () =
  let s = Ts.create () in
  Alcotest.(check bool) "empty" true (Ts.is_empty s);
  Alcotest.(check (option int)) "pop empty" None (Ts.pop s);
  Ts.push s 1;
  Ts.push s 2;
  Ts.push s 3;
  Alcotest.(check (option int)) "peek" (Some 3) (Ts.peek s);
  Alcotest.(check (list int)) "to_list top-first" [ 3; 2; 1 ] (Ts.to_list s);
  Alcotest.(check int) "length" 3 (Ts.length s);
  Alcotest.(check (option int)) "lifo" (Some 3) (Ts.pop s);
  Alcotest.(check (option int)) "lifo" (Some 2) (Ts.pop s);
  Alcotest.(check (option int)) "lifo" (Some 1) (Ts.pop s);
  Alcotest.(check (option int)) "drained" None (Ts.pop s)

let treiber_qcheck =
  qcheck "treiber matches list model (sequential)"
    QCheck2.Gen.(list (int_range 0 2))
    (fun ops ->
      let s = Ts.create () in
      let model = ref [] in
      List.iteri
        (fun i op ->
          if op < 2 then begin
            Ts.push s i;
            model := i :: !model
          end
          else begin
            let got = Ts.pop s in
            let expect =
              match !model with
              | [] -> None
              | x :: tl ->
                  model := tl;
                  Some x
            in
            if got <> expect then raise Exit
          end)
        ops;
      Ts.to_list s = !model)

(* Conservation: [producers] push disjoint values, [consumers] pop;
   nothing lost, nothing duplicated. The same body runs on both copies
   of the stack. *)
module Conserve
    (Rt : Mm_runtime.Runtime_intf.S) (Ts : sig
      type 'a t

      val create : Rt.t -> 'a t
      val push : 'a t -> 'a -> unit
      val pop : 'a t -> 'a option
    end) =
struct
  let stack_conservation h mk_run =
    let s = Ts.create h in
    let n = 200 and producers = 2 and consumers = 2 in
    let popped = Array.make (producers * n) false in
    let producer p _ =
      for i = 0 to n - 1 do
        Ts.push s ((p * n) + i)
      done
    in
    let consumer _ _ =
      for _ = 1 to n do
        match Ts.pop s with
        | Some v ->
            assert (not popped.(v));
            popped.(v) <- true
        | None -> ()
      done
    in
    let bodies =
      Array.init (producers + consumers) (fun i ->
          if i < producers then producer i else consumer i)
    in
    mk_run bodies;
    (* Drain what remains. *)
    let rec drain () =
      match Ts.pop s with
      | Some v ->
          assert (not popped.(v));
          popped.(v) <- true;
          drain ()
      | None -> ()
    in
    drain ();
    Array.iteri
      (fun i seen -> if not seen then Alcotest.failf "value %d lost" i)
      popped
end

module Conserve_r = Conserve (Real_rt) (Ts)
module Conserve_s = Conserve (Sim_rt) (Mm_lockfree_sim.Treiber_stack)

let treiber_conc_real () =
  Conserve_r.stack_conservation () (fun bodies ->
      ignore (Rt.parallel_run Rt.real bodies))

let treiber_conc_sim () =
  for seed = 1 to 10 do
    let s = sim ~cpus:4 ~seed () in
    Conserve_s.stack_conservation s (fun bodies -> ignore (Sim.run s bodies))
  done

(* ---------------- MS queue ---------------- *)

let msq_seq () =
  let q = Msq.create () in
  Alcotest.(check bool) "empty" true (Msq.is_empty q);
  Alcotest.(check (option int)) "dequeue empty" None (Msq.dequeue q);
  Msq.enqueue q 1;
  Msq.enqueue q 2;
  Msq.enqueue q 3;
  Alcotest.(check (list int)) "to_list head-first" [ 1; 2; 3 ] (Msq.to_list q);
  Alcotest.(check int) "length" 3 (Msq.length q);
  Alcotest.(check (option int)) "fifo" (Some 1) (Msq.dequeue q);
  Alcotest.(check (option int)) "fifo" (Some 2) (Msq.dequeue q);
  Msq.enqueue q 4;
  Alcotest.(check (option int)) "fifo" (Some 3) (Msq.dequeue q);
  Alcotest.(check (option int)) "fifo" (Some 4) (Msq.dequeue q);
  Alcotest.(check (option int)) "drained" None (Msq.dequeue q);
  Alcotest.(check bool) "empty again" true (Msq.is_empty q)

let msq_qcheck =
  qcheck "ms queue matches queue model (sequential)"
    QCheck2.Gen.(list (int_range 0 2))
    (fun ops ->
      let q = Msq.create () in
      let model = Queue.create () in
      List.iteri
        (fun i op ->
          if op < 2 then begin
            Msq.enqueue q i;
            Queue.push i model
          end
          else begin
            let got = Msq.dequeue q in
            let expect = Queue.take_opt model in
            if got <> expect then raise Exit
          end)
        ops;
      Msq.to_list q = List.of_seq (Queue.to_seq model))

(* FIFO per producer: each producer's values are dequeued in their
   production order. *)
let msq_per_producer_fifo () =
  for seed = 1 to 10 do
    let s = sim ~cpus:4 ~seed () in
    let q = Msq_s.create s in
    let n = 150 and producers = 3 in
    let dequeued = ref [] in
    let bodies =
      Array.init (producers + 1) (fun i ->
          if i < producers then fun _ ->
            for k = 0 to n - 1 do
              Msq_s.enqueue q ((i * n) + k)
            done
          else fun _ ->
            for _ = 1 to producers * n do
              match Msq_s.dequeue q with
              | Some v -> dequeued := v :: !dequeued
              | None -> Sim_rt.yield s
            done)
    in
    ignore (Sim.run s bodies);
    let rec drain () =
      match Msq_s.dequeue q with
      | Some v ->
          dequeued := v :: !dequeued;
          drain ()
      | None -> ()
    in
    drain ();
    let seq = List.rev !dequeued in
    Alcotest.(check int) "all values seen" (producers * n) (List.length seq);
    for p = 0 to producers - 1 do
      let mine = List.filter (fun v -> v / n = p) seq in
      let expected = List.init n (fun k -> (p * n) + k) in
      if mine <> expected then
        Alcotest.failf "seed %d: producer %d order violated" seed p
    done
  done

(* ---------------- Hazard pointers ---------------- *)

let hp_basic () =
  let reused = ref [] in
  let hp = Hp.create () ~scan_threshold:4 ~reuse:(fun n -> reused := n :: !reused) in
  let a = ref 1 and b = ref 2 in
  Hp.protect hp ~slot:0 a;
  Hp.retire hp a;
  Hp.retire hp b;
  Hp.scan hp;
  Alcotest.(check bool) "unprotected b reused" true (List.memq b !reused);
  Alcotest.(check bool) "protected a not reused" true
    (not (List.memq a !reused));
  Alcotest.(check int) "a still pending" 1 (Hp.retired_count hp);
  Hp.clear hp ~slot:0;
  Hp.scan hp;
  Alcotest.(check bool) "a reused after clear" true (List.memq a !reused);
  Alcotest.(check int) "nothing pending" 0 (Hp.retired_count hp)

let hp_threshold_triggers_scan () =
  let reused = ref 0 in
  let hp = Hp.create () ~scan_threshold:8 ~reuse:(fun _ -> incr reused) in
  for i = 1 to 8 do
    Hp.retire hp (ref i)
  done;
  Alcotest.(check int) "scan fired at threshold" 8 !reused

let hp_multi_slot () =
  let reused = ref [] in
  let hp =
    Hp.create () ~k:2 ~scan_threshold:100
      ~reuse:(fun n -> reused := n :: !reused)
  in
  let a = ref 1 and b = ref 2 in
  Hp.protect hp ~slot:0 a;
  Hp.protect hp ~slot:1 b;
  Alcotest.(check int) "two protected" 2 (Hp.protected_count hp);
  Hp.retire hp a;
  Hp.retire hp b;
  Hp.scan hp;
  Alcotest.(check (list reject)) "none reused" [] !reused;
  Hp.clear hp ~slot:0;
  Hp.clear hp ~slot:1;
  Hp.flush hp;
  Alcotest.(check int) "both reused after flush" 2 (List.length !reused)

(* The safety property under concurrency: a node is never handed to
   [reuse] while some thread's hazard pointer covers it. We track the
   protection windows with host-side state updated around the sim
   steps. *)
let hp_concurrent_safety () =
  for seed = 1 to 8 do
    let s = sim ~cpus:4 ~seed () in
    let protected_now = Array.make 4 None in
    let violations = ref 0 in
    let reuse node =
      Array.iter
        (fun p -> if p == Some node then incr violations)
        protected_now
    in
    let hp = Hp_s.create s ~scan_threshold:6 ~reuse in
    let body tid =
      let rng = Prng.create (seed + tid) in
      for i = 1 to 100 do
        let node = ref ((tid * 1000) + i) in
        Hp_s.protect hp ~slot:0 node;
        protected_now.(tid) <- Some node;
        Sim_rt.work s (Prng.int rng 50);
        protected_now.(tid) <- None;
        Hp_s.clear hp ~slot:0;
        Hp_s.retire hp node
      done
    in
    ignore (Sim.run s (Array.init 4 (fun i _ -> body i)));
    Alcotest.(check int)
      (Printf.sprintf "seed %d: no protected node reused" seed)
      0 !violations
  done

(* ---------------- Tagged id stack ---------------- *)

let tagged_seq () =
  let next = Array.make 64 (-1) in
  let s =
    Tis.create ()
      ~get_next:(fun i -> next.(i))
      ~set_next:(fun i v -> next.(i) <- v)
      ()
  in
  Alcotest.(check bool) "empty" true (Tis.is_empty s);
  Alcotest.(check (option int)) "pop empty" None (Tis.pop s);
  Tis.push s 5;
  Tis.push s 9;
  Alcotest.(check (list int)) "to_list" [ 9; 5 ] (Tis.to_list s);
  Alcotest.(check (option int)) "lifo" (Some 9) (Tis.pop s);
  (* Reuse after pop: the classic ABA shape — push 5's id again. *)
  Tis.push s 9;
  Alcotest.(check (option int)) "reused id pops fine" (Some 9) (Tis.pop s);
  Alcotest.(check (option int)) "then 5" (Some 5) (Tis.pop s);
  Alcotest.(check (option int)) "drained" None (Tis.pop s)

let tagged_bad_id () =
  let s =
    Tis.create () ~get_next:(fun _ -> -1) ~set_next:(fun _ _ -> ()) ()
  in
  Alcotest.check_raises "negative id"
    (Invalid_argument "Tagged_id_stack.push: bad id") (fun () -> Tis.push s (-1))

let tagged_conservation () =
  for seed = 1 to 10 do
    let s = sim ~cpus:4 ~seed () in
    let next = Array.make 1024 (-1) in
    let stack =
      Tis_s.create s
        ~get_next:(fun i -> next.(i))
        ~set_next:(fun i v -> next.(i) <- v)
        ()
    in
    (* Pre-fill with ids 0..255; threads pop/push randomly; at the end
       every id is present exactly once (in stack or never popped). *)
    for i = 0 to 255 do
      Tis_s.push stack i
    done;
    let body tid =
      let rng = Prng.create (seed * 100 + tid) in
      let held = ref [] in
      for _ = 1 to 200 do
        if Prng.bool rng && !held <> [] then begin
          match !held with
          | id :: rest ->
              held := rest;
              Tis_s.push stack id
          | [] -> ()
        end
        else
          match Tis_s.pop stack with
          | Some id -> held := id :: !held
          | None -> ()
      done;
      List.iter (Tis_s.push stack) !held
    in
    ignore (Sim.run s (Array.init 4 (fun i _ -> body i)));
    let final = List.sort compare (Tis_s.to_list stack) in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: ids conserved" seed)
      (List.init 256 (fun i -> i))
      final
  done

(* ---------------- Backoff ---------------- *)

(* Every retry loop threads [spin]'s count from [initial]: it relaxes
   1, 2, 4, ..., 256 times and then stays at 256. *)
let backoff_basics () =
  let module Backoff = Counting_rt.Backoff in
  let counts = ref [] and relaxes = ref [] in
  let spins = ref Backoff.initial in
  for _ = 1 to 11 do
    counts := !spins :: !counts;
    Counting_rt.Rt.relaxes := 0;
    spins := Backoff.spin () !spins;
    relaxes := !Counting_rt.Rt.relaxes :: !relaxes
  done;
  let expected = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 256; 256 ] in
  Alcotest.(check (list int)) "spin counts" expected (List.rev !counts);
  Alcotest.(check (list int)) "cpu_relax calls per spin" expected
    (List.rev !relaxes)

let cases =
  [
    case "treiber sequential" treiber_seq;
    treiber_qcheck;
    case "treiber conservation (real)" treiber_conc_real;
    case "treiber conservation (sim x10 seeds)" treiber_conc_sim;
    case "ms queue sequential" msq_seq;
    msq_qcheck;
    case "ms queue per-producer fifo (sim x10 seeds)" msq_per_producer_fifo;
    case "hazard basic protection" hp_basic;
    case "hazard scan threshold" hp_threshold_triggers_scan;
    case "hazard multi-slot" hp_multi_slot;
    case "hazard concurrent safety (sim x8 seeds)" hp_concurrent_safety;
    case "tagged stack sequential + reuse" tagged_seq;
    case "tagged stack id validation" tagged_bad_id;
    case "tagged stack conservation (sim x10 seeds)" tagged_conservation;
    case "backoff basics" backoff_basics;
  ]
